import json
import math

import numpy as np
import pytest

from speckle_bell.chsh import (
    SRecord,
    UndefinedCorrelationError,
    alice_basis,
    enumerate_s,
    rate_matrix,
)
from speckle_bell.polarization import PoincareState, Projector
from speckle_bell.stats import (
    AcquisitionConfig,
    CertificationReport,
    CountRecord,
    certify,
    certify_arrays,
    e_with_sigma,
    histogram,
    noisy_enumerate,
    record_stream,
    s_with_sigma,
    sample_counts,
    write_histogram_csv,
    write_report_json,
)

CFG = AcquisitionConfig(pair_rate=500.0, integration_time=240.0, efficiency=0.5, seed=0)


def random_alice_pair(rng):
    a = alice_basis(PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), "A")
    ap = alice_basis(PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), "A'")
    return a, ap


def random_projectors(rng, n):
    return [
        Projector(
            complex(rng.uniform(0.05, 1.0)),
            PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
        )
        for _ in range(n)
    ]


# ------------------------------------------------------------------ sampling

def test_sample_counts_zero_rate():
    rec = sample_counts((0.0, 0.0, 0.0, 0.0), CFG, record_stream(0, 0))
    assert rec.counts == (0, 0, 0, 0)


def test_sample_counts_deterministic():
    a = sample_counts((0.1, 0.2, 0.3, 0.4), CFG, record_stream(7, 1, 2))
    b = sample_counts((0.1, 0.2, 0.3, 0.4), CFG, record_stream(7, 1, 2))
    assert a == b


def test_sample_counts_concentration():
    # mean 1e6 stays within 5 sigma
    cfg = AcquisitionConfig(pair_rate=1e6, integration_time=1.0, efficiency=1.0)
    rec = sample_counts((1.0, 1.0, 1.0, 1.0), cfg, record_stream(3, 0))
    for n in rec.counts:
        assert abs(n - 1e6) < 5_000


def test_sample_counts_rejects_negative_rate():
    with pytest.raises(ValueError):
        sample_counts((0.1, -0.1, 0.0, 0.0), CFG, record_stream(0, 0))


def test_poisson_moments():
    stream = record_stream(11, 0)
    lam = 50.0
    draws = stream.poisson(lam, 100_000)
    assert abs(draws.mean() - lam) / lam < 0.03
    assert abs(draws.var() - lam) / lam < 0.03


def test_acquisition_config_validation():
    with pytest.raises(ValueError):
        AcquisitionConfig(pair_rate=0)
    with pytest.raises(ValueError):
        AcquisitionConfig(efficiency=1.5)
    with pytest.raises(ValueError):
        AcquisitionConfig(integration_time=-1)
    with pytest.raises(ValueError, match="efficiency"):  # count scale above 1e19
        AcquisitionConfig(pair_rate=float("inf"))


def test_count_record_validation():
    with pytest.raises(ValueError):
        CountRecord((1, 2, -1, 0))


# --------------------------------------------------------------- propagation

def test_e_symmetric_counts():
    for n in (100, 1000):
        e, sigma = e_with_sigma(CountRecord((n, n, n, n)))
        assert e == 0.0
        assert abs(sigma - 1 / (2 * math.sqrt(n))) < 1e-15


def test_e_boundary_counts():
    e, sigma = e_with_sigma(CountRecord((500, 0, 0, 500)))
    assert e == 1.0
    assert sigma == 0.0  # sqrt(n) rule: zero cells carry zero error


def test_e_sigma_value():
    _, sigma = e_with_sigma(CountRecord((100, 100, 100, 100)))
    assert sigma == pytest.approx(0.05, abs=1e-15)


def test_e_rejects_all_zero():
    with pytest.raises(UndefinedCorrelationError):
        e_with_sigma(CountRecord((0, 0, 0, 0)))


def test_e_sigma_matches_monte_carlo():
    # propagated error against resampled standard deviation of e
    rng = np.random.default_rng(44)
    for n in (100, 1000, 10_000):
        _, sigma = e_with_sigma(CountRecord((n, n, n, n)))
        counts = rng.poisson(n, size=(10_000, 4))
        counts = counts[counts.sum(axis=1) > 0]
        e = (counts[:, 0] - counts[:, 1] - counts[:, 2] + counts[:, 3]) / counts.sum(axis=1)
        assert abs(e.std() - sigma) / sigma < 0.05


def test_s_with_sigma_symmetric():
    recs = [CountRecord((100, 100, 100, 100))] * 4
    rec = s_with_sigma(recs)
    assert rec.s == 0.0
    assert rec.sigma == pytest.approx(0.1, abs=1e-15)


def test_s_with_sigma_anchor():
    for n in (100, 1000, 10_000):
        rec = s_with_sigma([CountRecord((n, n, n, n))] * 4)
        assert abs(rec.sigma - 1 / math.sqrt(n)) < 1e-12


def test_s_with_sigma_representable_scale():
    # values like S = 2.21 +/- 0.02 must be reachable with realistic counts
    plus = CountRecord((2429, 700, 700, 2429))   # e = +0.5526
    minus = CountRecord((700, 2429, 2429, 700))  # e = -0.5526
    rec = s_with_sigma([plus, plus, plus, minus])
    assert rec.s == pytest.approx(2.21, abs=0.01)
    assert rec.sigma == pytest.approx(0.021, abs=0.005)


def test_s_with_sigma_needs_four():
    with pytest.raises(ValueError):
        s_with_sigma([CountRecord((1, 1, 1, 1))] * 3)


# --------------------------------------------------------------- noisy runs

def test_noisy_enumerate_deterministic_and_converging():
    rng = np.random.default_rng(45)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 6)
    nu = 0.93
    cfg = AcquisitionConfig(pair_rate=500.0, integration_time=240.0, efficiency=0.5, seed=21)
    a = noisy_enumerate(alice, projectors, nu, cfg)
    b = noisy_enumerate(alice, projectors, nu, cfg)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.s, b.s) and np.array_equal(a.sigma, b.sigma)
    assert a.s.size == 225

    # long-integration limit approaches the exact values within 3 sigma
    exact = enumerate_s(alice, projectors, nu)
    heavy = noisy_enumerate(
        alice,
        projectors,
        nu,
        AcquisitionConfig(pair_rate=500.0, integration_time=1e6, efficiency=0.5, seed=22),
    )
    assert np.array_equal(heavy.labels, exact.labels)
    assert np.all(heavy.sigma > 0)
    worst = np.max(np.abs(heavy.s - exact.s) / heavy.sigma)
    assert worst < 3.0
    light = noisy_enumerate(
        alice,
        projectors,
        nu,
        AcquisitionConfig(pair_rate=500.0, integration_time=240.0, efficiency=0.5, seed=22),
    )
    assert heavy.sigma.max() < light.sigma.max()


def test_noisy_enumerate_matches_scalar_pipeline():
    # the grid must reproduce sample_counts -> e_with_sigma -> s_with_sigma
    # exactly, including the per-record stream indexing
    rng = np.random.default_rng(50)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 5)
    nu = 0.8
    cfg = AcquisitionConfig(seed=33)
    enum = noisy_enumerate(alice, projectors, nu, cfg)
    rates = rate_matrix(alice, projectors, nu)
    idx_i, idx_j = np.triu_indices(5, 1)  # projector pair of each basis, in label order

    def count_record(a_idx, k):
        i, j = int(idx_i[k]), int(idx_j[k])
        row1, row2 = (0, 1) if a_idx == 0 else (2, 3)
        return sample_counts(
            (rates[row1, i], rates[row1, j], rates[row2, i], rates[row2, j]),
            cfg,
            record_stream(cfg.seed, a_idx, k),
        )

    n = enum.labels.size
    for row in range(0, n * n, 7):
        k, kp = enum.labels[row // n] - 1, enum.labels[row % n] - 1
        ref = s_with_sigma(
            [count_record(0, k), count_record(1, k), count_record(0, kp), count_record(1, kp)]
        )
        assert enum.s.flat[row] == ref.s
        assert enum.sigma.flat[row] == ref.sigma


def test_noisy_records_within_sanity_bound():
    rng = np.random.default_rng(49)
    enum = noisy_enumerate(random_alice_pair(rng), random_projectors(rng, 8), 0.93, CFG)
    assert np.all(0.0 <= enum.s)
    assert np.all(enum.s <= 2 * math.sqrt(2) + 5 * enum.sigma)


def test_noisy_enumerate_skips_dark_bases():
    rng = np.random.default_rng(46)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 2) + [
        Projector(0j, PoincareState(0.0, 0.0)),
        Projector(0j, PoincareState(1.0, 1.0)),
    ]
    enum = noisy_enumerate(alice, projectors, 0.93, CFG)
    assert enum.skipped == 11
    assert enum.s.size == 25


# ------------------------------------------------------------- certification

def test_certify_thresholds():
    recs = [
        SRecord(1.9, 0.05, ("A", "A'"), (1, 2)),
        SRecord(2.5, 0.05, ("A", "A'"), (1, 3)),
        SRecord(2.1, 0.05, ("A", "A'"), (2, 3)),
    ]
    rep = certify(recs, skipped=4)
    assert rep.total == 3
    assert rep.above_2 == 2
    assert rep.above_2_by_5sigma == 1  # (2.5-2)/0.05 = 10, (2.1-2)/0.05 = 2
    assert rep.max_s == 2.5 and rep.max_s_sigma == 0.05
    assert rep.skipped == 4


def test_certify_all_below():
    rep = certify([SRecord(1.0, 0.0, ("A", "A'"), (1, 1))])
    assert rep.above_2 == 0 and rep.above_2_by_5sigma == 0


def test_certify_noiseless_never_5sigma():
    rep = certify([SRecord(2.8, 0.0, ("A", "A'"), (1, 2))])
    assert rep.above_2 == 1 and rep.above_2_by_5sigma == 0


def test_certify_monotone_under_extension():
    rng = np.random.default_rng(47)
    records = [
        SRecord(float(rng.uniform(0, 2.8)), float(rng.uniform(0.01, 0.2)), ("A", "A'"), (1, 1))
        for _ in range(200)
    ]
    prev = certify(records[:0])
    for i in range(1, 200, 13):
        cur = certify(records[:i])
        assert cur.above_2 >= prev.above_2
        assert cur.above_2_by_5sigma >= prev.above_2_by_5sigma
        assert cur.max_s >= prev.max_s
        prev = cur


def _random_grid(seed):
    rng = np.random.default_rng(seed)
    shape = (rng.integers(1, 30),) * 2
    s = rng.uniform(0.0, 3.0, shape)
    sigma = rng.uniform(0.0, 0.2, shape)
    sigma[rng.uniform(size=shape) < 0.2] = 0.0
    s[rng.uniform(size=shape) < 0.1] = 2.0
    return s, sigma


CERTIFY_CASES = {
    "empty": (np.zeros((0, 0)), np.zeros((0, 0))),
    "all-zero-s": (np.zeros((3, 3)), np.full((3, 3), 0.1)),
    "ties-at-max": (np.array([[1.0, 2.5], [2.5, 2.5]]), np.array([[0.1, 0.2], [0.3, 0.4]])),
    "sigma-0-above-2": (np.array([[2.7, 4.0], [1.0, 4.0]]), np.zeros((2, 2))),
    "float-above-2": (np.array([[2.0000000000000004, 2.0]]), np.array([[0.0, 0.0]])),
    **{f"random-{seed}": _random_grid(seed) for seed in range(5)},
}


@pytest.mark.parametrize("name", sorted(CERTIFY_CASES))
def test_certify_arrays_matches_certify(name):
    s, sigma = CERTIFY_CASES[name]
    rows = [
        SRecord(a, b, ("A", "A'"), (0, 0))
        for a, b in zip(s.ravel().tolist(), sigma.ravel().tolist())
    ]
    got = certify_arrays(s, sigma, skipped=3)
    assert got == certify(rows, skipped=3)
    assert all(type(v) is int for v in (got.total, got.above_2, got.above_2_by_5sigma, got.skipped))
    assert type(got.max_s) is float and type(got.max_s_sigma) is float


def test_report_validation_and_json(tmp_path):
    with pytest.raises(ValueError):
        CertificationReport(total=1, above_2=2, above_2_by_5sigma=0, max_s=0, max_s_sigma=0, skipped=0)
    rep = CertificationReport(10, 2, 1, 2.5, 0.04, 0)
    path = tmp_path / "report.json"
    write_report_json(rep, path)
    loaded = json.loads(path.read_text())
    assert loaded == {
        "total": 10,
        "above_2": 2,
        "above_2_by_5sigma": 1,
        "max_s": 2.5,
        "max_s_sigma": 0.04,
        "skipped": 0,
    }


# ---------------------------------------------------------------- histogram

def test_histogram_empty(tmp_path):
    counts = histogram([], 0.5, (0.0, 2.0))
    assert counts.shape == (6,) and not counts.any()  # 4 bins + 2 sentinels
    path = tmp_path / "h.csv"
    write_histogram_csv(counts, 0.5, (0.0, 2.0), path)
    lines = path.read_text().splitlines()
    assert lines[1] == "-inf,0,0" and lines[-1] == "2,inf,0"


def test_histogram_edge_goes_to_upper_bin():
    counts = histogram([0.5], 0.25, (0.0, 1.0))
    # bins: [0,.25) [.25,.5) [.5,.75) [.75,1): value 0.5 opens the third bin
    assert counts.tolist() == [0, 0, 0, 1, 0, 0]


def test_histogram_conservation_with_sentinels():
    rng = np.random.default_rng(48)
    values = rng.uniform(-1, 4, 10_000)
    counts = histogram(values, 0.05, (0.0, 3.0))
    assert counts.sum() == 10_000
    assert counts[0] > 0 and counts[-1] > 0


def test_histogram_bin_count_for_default_range(tmp_path):
    counts = histogram([], 0.05, (0.0, 3.0))
    assert len(counts) == 62  # 60 bins + 2 sentinels
    path = tmp_path / "h.csv"
    write_histogram_csv(counts, 0.05, (0.0, 3.0), path)
    lines = path.read_text().splitlines()
    assert lines[2].startswith("0,")
    assert float(lines[-2].split(",")[1]) == pytest.approx(3.0)


def test_histogram_rejects_bad_args():
    with pytest.raises(ValueError):
        histogram([1.0], 0.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        histogram([1.0], 0.1, (1.0, 0.0))
    with pytest.raises(ValueError):
        histogram([math.nan], 0.1, (0.0, 1.0))


def test_histogram_csv(tmp_path):
    counts = histogram([0.1, 0.9, 5.0], 0.5, (0.0, 1.0))
    path = tmp_path / "h.csv"
    write_histogram_csv(counts, 0.5, (0.0, 1.0), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert lines[1].startswith("-inf,0,")
    assert lines[-1].endswith(",1")  # the 5.0 overflow
    assert lines[1:] == ["-inf,0,0", "0,0.5,1", "0.5,1,1", "1,inf,1"]
    # a mean over draws: whole numbers print without a fraction
    write_histogram_csv(np.array([1.5, 3.0, 0.0, 0.25]), 0.5, (0.0, 1.0), path)
    assert path.read_text().splitlines()[1:] == [
        "-inf,0,1.5", "0,0.5,3", "0.5,1,0", "1,inf,0.25"
    ]
    # a negative-zero low edge keeps its sign on the underflow row only
    write_histogram_csv(histogram([-1.0, 0.0], 0.5, (-0.0, 1.0)), 0.5, (-0.0, 1.0), path)
    assert path.read_text().splitlines()[1:] == [
        "-inf,-0,1", "0,0.5,1", "0.5,1,0", "1,inf,0"
    ]
