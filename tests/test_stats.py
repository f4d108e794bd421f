import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from speckle_bell import chsh, stats
from speckle_bell.cli import (
    ConfigError,
    ExperimentConfig,
    build_channel,
    chsh_enumeration,
    draw_alice_pair,
)
from speckle_bell.chsh import (
    SRecord,
    UndefinedCorrelationError,
    alice_basis,
    enumerate_s,
    rate_matrix,
    s_tiles,
)
from speckle_bell.polarization import PoincareState, Projector
from speckle_bell.stats import (
    HIST_BIN_WIDTH,
    HIST_NBINS,
    _BIN_2,
    AcquisitionConfig,
    CertificationReport,
    certify,
    certify_arrays,
    e_with_sigma,
    histogram,
    noisy_enumerate,
    record_stream,
    s_with_sigma,
    sample_counts,
    separable_counts,
    write_histogram_csv,
    write_report_json,
)

CFG = AcquisitionConfig(30000.0, 0)  # 500 pairs/s x 0.5**2 x 240 s


def random_alice_pair(rng):
    a = alice_basis(PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), "A")
    ap = alice_basis(PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), "A'")
    return a, ap


def grids(enum):
    """Whole (D, D) S and sigma grids, stacked from the enumeration's tiles."""
    tiles = [(s.copy(), np.array(sigma)) for s, sigma in s_tiles(enum)]
    return np.concatenate([s for s, _ in tiles]), np.concatenate([g for _, g in tiles])


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
    counts = sample_counts((0.0, 0.0, 0.0, 0.0), CFG, record_stream(0, 0))
    assert counts == (0, 0, 0, 0) and all(type(n) is int for n in counts)


def test_sample_counts_deterministic():
    a = sample_counts((0.1, 0.2, 0.3, 0.4), CFG, record_stream(7, 1, 2))
    b = sample_counts((0.1, 0.2, 0.3, 0.4), CFG, record_stream(7, 1, 2))
    means = [r * CFG.count_scale for r in (0.1, 0.2, 0.3, 0.4)]
    assert a == b == tuple(record_stream(7, 1, 2).poisson(means).tolist())


def test_sample_counts_concentration():
    # mean 1e6 stays within 5 sigma
    cfg = AcquisitionConfig(1e6, 0)
    counts = sample_counts((1.0, 1.0, 1.0, 1.0), cfg, record_stream(3, 0))
    assert len(counts) == 4
    for n in counts:
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
    # the count model's fields are checked by ExperimentConfig.validate, last
    for values, message in (
        ({"efficiency": 0.0}, "efficiency must be in (0, 1], got 0.0"),
        ({"efficiency": 1.5}, "efficiency must be in (0, 1], got 1.5"),
        ({"pair_rate": 0}, "pair_rate must be positive, got 0"),
        ({"integration_time": -1}, "integration_time must be positive, got -1"),
    ):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**values).validate()
        assert str(exc.value) == message
    # every cell's Poisson mean (at most count_scale / 2) must stay in numpy's range
    for values in ({"integration_time": 1e300}, {"pair_rate": 1e18},
                   {"pair_rate": 1e300, "integration_time": 1e300}):  # overflows to inf
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**values).validate()
        for field in ("pair_rate", "efficiency", "integration_time"):
            assert field in str(exc.value)
    ExperimentConfig(pair_rate=1e19, efficiency=1.0, integration_time=1.0).validate()
    # the record the sampler reads: counts per unit joint probability
    cfg = ExperimentConfig(pair_rate=500.0, integration_time=240.0, efficiency=0.5)
    assert cfg.validate().acquisition.count_scale == CFG.count_scale


# --------------------------------------------------------------- propagation

def test_e_symmetric_counts():
    for n in (100, 1000):
        e, sigma = e_with_sigma((n, n, n, n))
        assert e == 0.0
        assert abs(sigma - 1 / (2 * math.sqrt(n))) < 1e-15


def test_e_boundary_counts():
    e, sigma = e_with_sigma((500, 0, 0, 500))
    assert e == 1.0
    assert sigma == 0.0  # sqrt(n) rule: zero cells carry zero error


def test_e_sigma_value():
    _, sigma = e_with_sigma((100, 100, 100, 100))
    assert sigma == pytest.approx(0.05, abs=1e-15)


def test_e_rejects_all_zero():
    with pytest.raises(UndefinedCorrelationError):
        e_with_sigma((0, 0, 0, 0))


def test_e_sigma_matches_monte_carlo():
    # propagated error against resampled standard deviation of e
    rng = np.random.default_rng(44)
    for n in (100, 1000, 10_000):
        _, sigma = e_with_sigma((n, n, n, n))
        counts = rng.poisson(n, size=(10_000, 4))
        counts = counts[counts.sum(axis=1) > 0]
        e = (counts[:, 0] - counts[:, 1] - counts[:, 2] + counts[:, 3]) / counts.sum(axis=1)
        assert abs(e.std() - sigma) / sigma < 0.05


def test_s_with_sigma_symmetric():
    recs = [(100, 100, 100, 100)] * 4
    rec = s_with_sigma(recs)
    assert rec.s == 0.0
    assert rec.sigma == pytest.approx(0.1, abs=1e-15)


def test_s_with_sigma_anchor():
    for n in (100, 1000, 10_000):
        rec = s_with_sigma([(n, n, n, n)] * 4)
        assert abs(rec.sigma - 1 / math.sqrt(n)) < 1e-12


def test_s_with_sigma_representable_scale():
    # values like S = 2.21 +/- 0.02 must be reachable with realistic counts
    plus = (2429, 700, 700, 2429)   # e = +0.5526
    minus = (700, 2429, 2429, 700)  # e = -0.5526
    rec = s_with_sigma([plus, plus, plus, minus])
    assert rec.s == pytest.approx(2.21, abs=0.01)
    assert rec.sigma == pytest.approx(0.021, abs=0.005)


def test_s_with_sigma_needs_four():
    with pytest.raises(ValueError):
        s_with_sigma([(1, 1, 1, 1)] * 3)


# --------------------------------------------------------------- noisy runs

def test_noisy_enumerate_deterministic_and_converging():
    rng = np.random.default_rng(45)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 6)
    nu = 0.93
    cfg = AcquisitionConfig(30000.0, 21)
    a = noisy_enumerate(alice, projectors, nu, cfg)
    b = noisy_enumerate(alice, projectors, nu, cfg)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.e, b.e) and np.array_equal(a.var, b.var)
    a_s, a_sigma = grids(a)
    assert a_s.size == 225
    assert np.array_equal(grids(b)[0], a_s) and np.array_equal(grids(b)[1], a_sigma)

    # long-integration limit approaches the exact values within 3 sigma
    exact = enumerate_s(alice, projectors, nu)
    heavy = noisy_enumerate(
        alice,
        projectors,
        nu,
        AcquisitionConfig(1.25e8, 22),
    )
    assert np.array_equal(heavy.labels, exact.labels)
    heavy_s, heavy_sigma = grids(heavy)
    assert np.all(heavy_sigma > 0)
    worst = np.max(np.abs(heavy_s - grids(exact)[0]) / heavy_sigma)
    assert worst < 3.0
    light = noisy_enumerate(
        alice,
        projectors,
        nu,
        AcquisitionConfig(30000.0, 22),
    )
    assert heavy_sigma.max() < grids(light)[1].max()


def test_noisy_enumerate_matches_scalar_pipeline():
    # per-basis E and variance must reproduce sample_counts -> e_with_sigma
    # exactly, including the per-record stream indexing, and S and sigma
    # s_with_sigma
    rng = np.random.default_rng(50)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 5)
    nu = 0.8
    cfg = AcquisitionConfig(30000.0, 33)
    enum = noisy_enumerate(alice, projectors, nu, cfg)
    rates = rate_matrix(alice, projectors, nu)
    idx_i, idx_j = np.triu_indices(5, 1)  # projector pair of each basis, in label order

    def counts(a_idx, k):
        i, j = int(idx_i[k]), int(idx_j[k])
        row1, row2 = (0, 1) if a_idx == 0 else (2, 3)
        return sample_counts(
            (rates[row1, i], rates[row1, j], rates[row2, i], rates[row2, j]),
            cfg,
            record_stream(cfg.seed, a_idx, k),
        )

    assert enum.labels.tolist() == list(range(1, 11))  # no dark basis at 30000 counts
    for col, k in enumerate(enum.labels - 1):
        for a_idx in (0, 1):
            e, sigma = e_with_sigma(counts(a_idx, k))
            assert enum.e[a_idx, col] == e and enum.var[a_idx, col] == sigma * sigma

    n = enum.labels.size
    s, sigma = grids(enum)
    for row in range(0, n * n, 7):
        k, kp = enum.labels[row // n] - 1, enum.labels[row % n] - 1
        ref = s_with_sigma([counts(0, k), counts(1, k), counts(0, kp), counts(1, kp)])
        assert s.flat[row] == ref.s
        assert sigma.flat[row] == ref.sigma


def test_noisy_enumerate_at_the_count_bound():
    # count_scale 1e19: a basis total exceeds int64, so the counts are summed
    # in float64 and E stays defined, as e_with_sigma's
    for seed in (3, 4, 5):
        cfg = ExperimentConfig(m_spatial=1, n_positions=1, pair_rate=1e19, efficiency=1.0,
                               integration_time=1.0, seed=seed).validate()
        enum = chsh_enumeration(cfg)
        assert enum.labels.tolist() == [1] and enum.skipped == 0
        projectors = build_channel(cfg)[2]
        cells = chsh.basis_cells(rate_matrix(draw_alice_pair(cfg), projectors, cfg.visibility))
        for a_idx in (0, 1):
            stream = record_stream(cfg.acquisition.seed, a_idx, 0)
            e, sigma = e_with_sigma(sample_counts(cells[a_idx, :, 0], cfg.acquisition, stream))
            assert enum.e[a_idx, 0] == e and enum.var[a_idx, 0] == sigma * sigma


def test_e_with_sigma_variance_is_near_exact():
    # var = 4ab/T^3 with a = n11 + n22, b = n12 + n21, T = a + b; above
    # T = 9.5e7, T*T is inexact in float64, but sigma*sigma stays within 8 ulp
    rng = np.random.default_rng(51)
    scales = 10.0 ** rng.uniform(0, 12, 3000)
    draws = np.floor(rng.uniform(0, 1, (3000, 4)) * scales[:, None]).astype(np.int64)
    assert np.count_nonzero(draws.sum(1) > 9.5e7) > 1000
    for n11, n12, n21, n22 in draws.tolist():
        a, b = n11 + n22, n12 + n21
        if a + b == 0:
            continue
        exact = Fraction(4 * a * b, (a + b) ** 3)
        _, sigma = e_with_sigma((n11, n12, n21, n22))
        assert abs(Fraction(sigma * sigma) - exact) <= 8 * Fraction(math.ulp(float(exact)))


def test_noisy_records_within_sanity_bound():
    rng = np.random.default_rng(49)
    enum = noisy_enumerate(random_alice_pair(rng), random_projectors(rng, 8), 0.93, CFG)
    s, sigma = grids(enum)
    assert np.all(0.0 <= s)
    assert np.all(s <= 2 * math.sqrt(2) + 5 * sigma)


def test_noisy_enumerate_skips_dark_bases():
    rng = np.random.default_rng(46)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 2) + [
        Projector(0j, PoincareState(0.0, 0.0)),
        Projector(0j, PoincareState(1.0, 1.0)),
    ]
    enum = noisy_enumerate(alice, projectors, 0.93, CFG)
    assert enum.skipped == 11
    assert enum.labels.size**2 == 25


# ------------------------------------------------------------- certification

def test_certify_thresholds():
    recs = [
        SRecord(1.9, 0.05),
        SRecord(2.5, 0.05),
        SRecord(2.1, 0.05),
    ]
    rep = certify(recs, skipped=4)
    assert rep.total == 3
    assert rep.above_2 == 2
    assert rep.above_2_by_5sigma == 1  # (2.5-2)/0.05 = 10, (2.1-2)/0.05 = 2
    assert rep.max_s == 2.5 and rep.max_s_sigma == 0.05
    assert rep.skipped == 4


def test_certify_all_below():
    rep = certify([SRecord(1.0, 0.0)])
    assert rep.above_2 == 0 and rep.above_2_by_5sigma == 0


def test_certify_noiseless_never_5sigma():
    rep = certify([SRecord(2.8, 0.0)])
    assert rep.above_2 == 1 and rep.above_2_by_5sigma == 0


def test_certify_monotone_under_extension():
    rng = np.random.default_rng(47)
    records = [
        SRecord(float(rng.uniform(0, 2.8)), float(rng.uniform(0.01, 0.2))) for _ in range(200)
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
    # the maximum in the last row of a 7-row tile and the first of the next
    "tie-across-edge": (np.array([[1.0, 2.0]] * 6 + [[1.5, 2.6], [2.6, 0.0], [2.6, 2.6]]),
                        np.array([[0.1, 0.1]] * 6 + [[0.1, 0.07], [0.3, 0.1], [0.4, 0.5]])),
    **{f"random-{seed}": _random_grid(seed) for seed in range(5)},
}


@pytest.mark.parametrize("name", sorted(CERTIFY_CASES))
def test_certify_arrays_matches_certify(name):
    """Row tiles of height 1, 7 or the whole grid fold to certify's report."""
    s, sigma = CERTIFY_CASES[name]
    rows = list(map(SRecord, s.ravel().tolist(), sigma.ravel().tolist()))
    for height in (1, 7, len(s) or 1):
        tiles = ((s[i:i + height], sigma[i:i + height]) for i in range(0, len(s), height))
        got = certify_arrays(tiles, skipped=3)
        assert got == certify(rows, skipped=3), height
        assert all(type(v) is int for v in (got.total, got.above_2, got.above_2_by_5sigma, got.skipped))
        assert type(got.max_s) is float and type(got.max_s_sigma) is float
    assert certify_arrays([(s, sigma)], skipped=3) == got  # one tile, empty or not
    if name == "tie-across-edge":  # the first maximum and its sigma win
        assert (got.max_s, got.max_s_sigma) == (2.6, 0.07)


def test_certify_arrays_reads_s_tiles(monkeypatch):
    """certify_arrays over s_tiles equals certify over the whole grids, at tile
    heights that split D = 28 unevenly, noisy or not."""
    rng = np.random.default_rng(53)
    alice, projectors = random_alice_pair(rng), random_projectors(rng, 8)
    cfg = AcquisitionConfig(30000.0, 4)
    for enum in (enumerate_s(alice, projectors, 1.0), noisy_enumerate(alice, projectors, 1.0, cfg)):
        s, sigma = grids(enum)
        want = certify(
            list(map(SRecord, s.ravel().tolist(), sigma.ravel().tolist())), skipped=enum.skipped
        )
        for tile_rows in (1, 7, 10**6):
            monkeypatch.setattr(chsh, "_S_TILE_ROWS", tile_rows)
            assert certify_arrays(s_tiles(enum), enum.skipped) == want
    assert want.above_2 > want.above_2_by_5sigma > 0


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
    counts = histogram([])
    assert counts.tolist() == [0] * 62  # 60 bins + 2 sentinels
    path = tmp_path / "h.csv"
    write_histogram_csv(counts, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "-inf,0,0" and lines[-1] == "3,inf,0"


def test_histogram_edge_goes_to_upper_bin():
    # bins: [0,.05) ... [1.95,2) [2,2.05) ...: S = 2 opens the bin above the bound
    want = [0] * 62
    want[1 + 40] = 1
    assert histogram([2.0]).tolist() == want


def test_histogram_edge_rule_is_float64_floor(tmp_path):
    """The bin is floor(S / HIST_BIN_WIDTH) in float64, not the
    printed edges: 0.15 / 0.05 < 3, so S = 0.15 counts in the 0.1,0.15 row."""
    assert 0.15 / 0.05 < 3
    path = tmp_path / "h.csv"
    write_histogram_csv(histogram([0.15]), path)
    assert path.read_text().splitlines()[4] == "0.1,0.15,1"


def test_histogram_conservation_with_sentinels():
    rng = np.random.default_rng(48)
    values = rng.uniform(-1, 4, 10_000)
    counts = histogram(values)
    assert counts.sum() == 10_000
    assert counts[0] > 0 and counts[-1] > 0
    # one value in each sentinel row, the overflow row starting at 3
    assert histogram([-1e-300, -math.inf]).tolist() == [2] + [0] * 61
    assert histogram([3.0, 4.0, math.inf]).tolist() == [0] * 61 + [3]
    assert histogram([2.9999]).tolist() == [0] * 60 + [1, 0]


def test_histogram_bin_count_for_default_range(tmp_path):
    assert (HIST_BIN_WIDTH, HIST_NBINS, _BIN_2) == (0.05, 60, 40)
    assert histogram([2.0])[1 + _BIN_2] == 1  # 2 opens bin _BIN_2
    path = tmp_path / "h.csv"
    write_histogram_csv(histogram([]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 62
    assert lines[2].startswith("0,")
    assert float(lines[-2].split(",")[1]) == pytest.approx(3.0)


def test_histogram_rejects_bad_args():
    with pytest.raises(ValueError, match="NaN"):
        histogram([1.0, math.nan])


def test_histogram_csv(tmp_path):
    counts = histogram([0.1, 0.9, 2.0, 5.0])
    path = tmp_path / "h.csv"
    write_histogram_csv(counts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    rows = lines[1:]
    assert rows[:4] == ["-inf,0,0", "0,0.05,0", "0.05,0.1,0", "0.1,0.15,1"]
    assert rows[18:20] == ["0.85,0.9,0", "0.9,0.95,1"]
    assert rows[41] == "2,2.05,1"
    assert rows[-2:] == ["2.95,3,0", "3,inf,1"]  # the 5.0 overflow
    # a mean over draws: whole numbers print without a fraction
    write_histogram_csv(np.array([1.5, 3.0] + [0.0] * 59 + [0.25]), path)
    rows = path.read_text().splitlines()[1:]
    assert rows[:3] == ["-inf,0,1.5", "0,0.05,3", "0.05,0.1,0"]
    assert rows[-1] == "3,inf,0.25"


# ------------------------------------------------------ separable binning

def grid_counts(e):
    """The oracle of separable_counts: the histogram and above-2 count of
    every S of the whole (D, D) grid."""
    s = chsh.s_combination(*e)
    return histogram(s).tolist(), int(np.count_nonzero(s > 2.0))


def exact_rows(monkeypatch, e):
    """The rows K that separable_counts(e) passes to chsh.s_combination."""
    rows, combine = [], chsh.s_combination
    monkeypatch.setattr(
        chsh, "s_combination", lambda e_a, e_ap, k: rows.extend(k.tolist()) or combine(e_a, e_ap, k)
    )
    separable_counts(e)
    monkeypatch.setattr(chsh, "s_combination", combine)
    return rows


def guarded_rows(e, eps=1e-9):
    """Oracle of the kernel's guard: the rows K that hold a K' where x_K + y_K'
    lies within eps bin units of a bin edge, 2 among them."""
    u = np.add.outer(e[0] + e[1], e[0] - e[1]) / HIST_BIN_WIDTH
    return (abs(u - np.round(u)) <= eps).any(1).nonzero()[0].tolist()


def exact_counts(monkeypatch, e):
    """The number of S values that separable_counts of e passes to
    stats.histogram at tile heights 1, 7 and 10**6, where each call takes at
    most one tile and the counts equal the grid oracle's."""
    want, real = grid_counts(e), stats.histogram
    calls, binned = [], []
    monkeypatch.setattr(stats, "histogram", lambda s: calls.append(s.shape) or real(s))
    for tile_rows in (1, 7, 10**6):
        monkeypatch.setattr(chsh, "_S_TILE_ROWS", tile_rows)
        calls.clear()
        counts, above = separable_counts(e)
        assert (counts.tolist(), above) == want
        assert all(rows <= tile_rows and cols == e.shape[1] for rows, cols in calls)
        binned.append(sum(rows * cols for rows, cols in calls))
    monkeypatch.setattr(stats, "histogram", real)
    return binned


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(0, 300),
    kind=st.sampled_from(["ratio", "nudged", "uniform", "zero"]),
    max_total=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=0, kind="uniform", max_total=1, seed=0)
@example(d=120, kind="zero", max_total=1, seed=0)  # every S is 0: every row is exact
@example(d=3, kind="nudged", max_total=1, seed=75)  # a sum of fractions ulps below 2
def test_separable_counts_match_the_grid(d, kind, max_total, seed):
    """E are ratios n / t of small counts, t <= max_total (S often on a bin
    edge or on 2); multiples of 1/40 or 1/80 nudged by at most 6e-11, whose
    frac p and frac q may lie ulps below 1 and their sum ulps below 2, where
    only the top guard band tells the pair's bin; uniform floats; or all
    zero."""
    rng = np.random.default_rng(seed)
    if kind == "ratio":
        t = rng.integers(1, max_total, (2, d), endpoint=True)
        e = rng.integers(-t, t, endpoint=True) / t
    elif kind == "nudged":
        den = rng.choice([40, 80])
        nudge = rng.choice([0.0, 1e-17, -1e-17, 2.2e-16, -2.2e-16, 1e-11, -1e-11, 6e-11], (2, d))
        e = np.clip(rng.integers(-den, den, (2, d), endpoint=True) / den + nudge, -1.0, 1.0)
    elif kind == "uniform":
        e = rng.uniform(-1.0, 1.0, (2, d))
    else:
        e = np.zeros((2, d))
    counts, above = separable_counts(e)
    assert counts.dtype == np.intp and type(above) is int
    assert (counts.tolist(), above) == grid_counts(e)


def test_separable_counts_bin_only_guarded_rows_exactly(monkeypatch):
    """At D = 2000, two planted rows hold an S that trips one guard band
    each: frac p + frac q = 1 (the carry band) and p, q whole numbers (the
    zero band, frac p + frac q = 0).  Those two rows, and only they, are
    binned from their S; a third planted S, 2 + 3e-10, has frac p + frac q
    6e-9 above 1, outside the three bands (0, 1 and 2), and the lattice
    counts it above 2."""
    rng = np.random.default_rng(2024)
    e = rng.uniform(-1.0, 1.0, (2, 2000))
    e[:, 100] = 0.2, 0.13  # x = 0.33, y = 0.07: S(100, 100) = 0.4 with fractional p, q
    e[:, 700] = 0.25, 0.25  # x = 0.5, y = 0: S(700, 700) = 0.5, p = 10 and q = 0
    x, y = np.array([1.21, 0.0234567]), np.array([0.0123456, 0.79 + 3e-10])
    e[:, 1300:1302] = (x + y) / 2, (x - y) / 2  # S(1300, 1301) = 2 + 3e-10
    s = chsh.s_combination(*e)
    assert (s[100, 100], s[700, 700]) == (0.4, 0.5) and 0 < s[1300, 1301] - 2 < 1e-9
    assert abs(s[1300, 1301] / HIST_BIN_WIDTH - 40) > 1e-9  # off the bin edge's band
    want = grid_counts(e)
    assert exact_rows(monkeypatch, e) == [100, 700]
    counts, above = separable_counts(e)
    assert (counts.tolist(), above) == want


def test_separable_counts_near_2(monkeypatch):
    """S(K, K') = x_K + y_K' planted at 2, 2 +- 1 ulp, 2 +- 2 ulps and
    2 +- 3e-10, at both signs of E.  The rows of the ulp pairs lie in the
    guard band of bin edge 2 and are binned from their S; the 3e-10 pairs,
    6e-9 bin units off it, are binned by the lattice."""
    up, down = np.nextafter(2.0, 3.0) - 2.0, 2.0 - np.nextafter(2.0, 1.0)
    targets = [2.0, 2 + up, 2 - down, 2 + 2 * up, 2 - 2 * down, 2 + 3e-10, 2 - 3e-10]
    x = (1100 + 10 * np.arange(7)) / 1024  # x / w in (30, 31) and far from whole numbers
    y = np.array(targets) - x  # exact: x has 11 significant bits
    e = np.zeros((2, 14))
    e[:, :7] = x / 2  # x_K = x, y_K = 0
    e[0, 7:] = y  # x_K' = y_K' = y
    assert [chsh.s_combination(*e)[k, 7 + k] for k in range(7)] == targets
    for sign in (1, -1):
        assert exact_rows(monkeypatch, sign * e) == [0, 1, 2, 3, 4]
        counts, above = separable_counts(sign * e)
        assert (counts.tolist(), above) == grid_counts(sign * e)


def test_separable_counts_guard_both_signs(monkeypatch):
    """x_0 / w = 23 and y_1 / w = 12 are each just below a whole number, so
    frac p_0 + frac q_1 is nearly 2: S(0, 1) = 1.75 lies on a bin edge in the
    top band (2), not in the zero band (0) or the carry band (1).  Under -E
    both fractions are nearly 0, in the zero band.  At either sign row 0 is
    binned from its S."""
    e = np.array([[7 / 30, 17 / 30], [11 / 12, -1 / 30]])
    p, q = (e[0] + e[1]) / HIST_BIN_WIDTH, (e[0] - e[1]) / HIST_BIN_WIDTH
    assert 1 - 1e-12 < p[0] - math.floor(p[0]) < 1 and 1 - 1e-12 < q[1] - math.floor(q[1]) < 1
    assert chsh.s_combination(*e)[0, 1] == 1.75
    for sign in (1, -1):
        assert 0 in exact_rows(monkeypatch, sign * e)
        counts, above = separable_counts(sign * e)
        assert (counts.tolist(), above) == grid_counts(sign * e)


def test_separable_counts_at_64_positions(monkeypatch):
    """Noiseless, n_positions = 64, seed 5: D = 8128 and 66 million S, in one
    row of which some S lies in the guard band; the counts equal those of the
    S tiles."""
    enum = chsh_enumeration(ExperimentConfig(n_positions=64, seed=5, noiseless=True))
    assert len(exact_rows(monkeypatch, enum.e)) == 1
    want, above = histogram(()), 0
    for tile, _ in s_tiles(enum):
        want += histogram(tile)
        above += int(np.count_nonzero(tile > 2.0))
    counts, got_above = separable_counts(enum.e)
    assert (counts.tolist(), got_above) == (want.tolist(), above)


def test_noiseless_counts_take_the_separable_path(monkeypatch):
    """At the default D = 435, noiseless enumerations are binned from their
    per-basis sums, never from S, and equal the whole-grid oracle."""
    for seed in (5, 11, 12):
        cfg = ExperimentConfig(seed=seed)
        _, _, projectors = build_channel(cfg)
        for nu in (0.0, 0.93, 1.0):
            enum = enumerate_s(draw_alice_pair(cfg), projectors, nu)
            assert exact_counts(monkeypatch, enum.e) == [0, 0, 0]


def test_counts_on_bin_edges_bin_their_rows_exactly(monkeypatch):
    """E in multiples of 1/40 put S exactly on 0, 0.15, 2 and 3, or only on
    the bin edges 0 and 0.15: every row holds such an S, so every row is
    binned from its S and the counts are the grid's."""
    e = np.array([[0.0, 1.0, 0.075, 1.0, 1.0], [0.0, -1.0, 0.075, 0.5, -0.5]])
    for cells, want in ((e, {0.0, 0.15, 2.0, 3.0}), (e[:, [0, 2]], {0.0, 0.15})):
        d = cells.shape[1]
        assert set(chsh.s_combination(*cells).ravel().tolist()) >= want
        assert guarded_rows(cells) == list(range(d))
        assert exact_counts(monkeypatch, cells) == [d * d] * 3


def test_noisy_low_count_counts_match_the_grid(monkeypatch):
    """About 125 counts per unit probability: E are ratios of small counts,
    and some rows, not all, are binned from their S."""
    cfg = ExperimentConfig(m_spatial=12, n_positions=4, integration_time=1.0, seed=3)
    e = chsh_enumeration(cfg).e
    assert e.shape[1] == 28
    rows = guarded_rows(e)
    assert 0 < len(rows) < 28
    assert exact_counts(monkeypatch, e) == [len(rows) * 28] * 3


def test_noisy_default_counts_bin_few_rows_exactly(monkeypatch):
    """At the defaults, E as ratios of counts put some S on a bin edge: only
    the rows that hold one, a few of D = 435, are binned from their S."""
    for seed in (1, 2, 3):
        e = chsh_enumeration(ExperimentConfig(seed=seed)).e
        rows = guarded_rows(e)
        assert e.shape[1] == 435 and 0 < len(rows) < 50
        assert exact_counts(monkeypatch, e) == [len(rows) * 435] * 3


def test_separable_above_2_matches_the_report():
    """chsh writes report.json's above_2 from its S tiles and discards the
    above-2 count of separable_counts: at the defaults, noisy and noiseless,
    the two agree."""
    for seed in (1, 2, 3):
        for noiseless in (False, True):
            enum = chsh_enumeration(ExperimentConfig(seed=seed, noiseless=noiseless))
            _, above = separable_counts(enum.e)
            assert above == certify_arrays(s_tiles(enum)).above_2
