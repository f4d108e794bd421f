import math

import numpy as np
import pytest

from speckle_bell.chsh import (
    TSIRELSON,
    MeasurementBasis,
    UndefinedCorrelationError,
    alice_basis,
    build_bob_bases,
    correlation,
    enumerate_s,
    max_violation_search,
    s_grid,
    s_value,
    write_srecords_csv,
)
from speckle_bell.medium import bob_projector_set, random_tm
from speckle_bell.polarization import PoincareState, Projector

H = PoincareState(0.0, 0.0)
D = PoincareState(math.pi / 2, 0.0)


def unit_basis(phi, label):
    """Equatorial orthogonal basis at azimuth phi, unit weights."""
    return alice_basis(PoincareState(math.pi / 2, phi), label)


def pair_basis(p1, p2, label=0):
    return MeasurementBasis(p1, p2, label)


def unit(theta, phi):
    return Projector(1.0 + 0.0j, PoincareState(theta, phi))


EQ_A = unit_basis(0.0, "A")
EQ_AP = unit_basis(math.pi / 2, "A'")
EQ_BK = unit_basis(math.pi / 4, 1)
EQ_BKP = unit_basis(7 * math.pi / 4, 2)


def random_projectors(rng, n, unit_weight=False):
    out = []
    for _ in range(n):
        amp = 1.0 if unit_weight else rng.uniform(0.05, 1.0)
        amp = amp * np.exp(1j * rng.uniform(0, 2 * math.pi))
        out.append(
            Projector(complex(amp), PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
        )
    return out


def random_alice_pair(rng):
    a = alice_basis(PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), "A")
    ap = alice_basis(PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), "A'")
    return a, ap


# --------------------------------------------------------------- correlation

def test_correlation_hv_basis():
    a = alice_basis(H, "A")
    b = pair_basis(unit(0.0, 0.0), unit(math.pi, 0.0))
    for nu in (0.0, 0.5, 1.0):
        assert correlation(a, b, nu).e == pytest.approx(1.0, abs=1e-15)


def test_correlation_da_bases():
    a = alice_basis(D, "A")
    b = pair_basis(unit(math.pi / 2, 0.0), unit(math.pi / 2, math.pi))
    assert correlation(a, b, 1.0).e == pytest.approx(-1.0, abs=1e-15)
    assert correlation(a, b, 0.0).e == pytest.approx(0.0, abs=1e-15)


def test_correlation_bounded():
    rng = np.random.default_rng(30)
    for _ in range(500):
        a, _ = random_alice_pair(rng)
        p1, p2 = random_projectors(rng, 2)
        e = correlation(a, pair_basis(p1, p2), rng.uniform(0, 1)).e
        assert abs(e) <= 1 + 1e-12


def test_correlation_undefined_for_dark_basis():
    a = alice_basis(D, "A")
    dark = Projector(0j, PoincareState(0.0, 0.0))
    dark2 = Projector(0j, PoincareState(1.0, 0.0))
    with pytest.raises(UndefinedCorrelationError):
        correlation(a, pair_basis(dark, dark2), 1.0)


def test_basis_rejects_identical_projectors():
    p = unit(1.0, 1.0)
    with pytest.raises(ValueError):
        MeasurementBasis(p, p, 0)


# ------------------------------------------------------------------- s_value

def test_s_value_equatorial_max():
    rec = s_value(EQ_A, EQ_AP, EQ_BK, EQ_BKP, 1.0)
    assert abs(rec.s - TSIRELSON) < 1e-9
    assert rec.sigma == 0.0
    assert rec.alice_bases == ("A", "A'") and rec.bob_bases == (1, 2)


def test_s_value_separable_equatorial():
    assert s_value(EQ_A, EQ_AP, EQ_BK, EQ_BKP, 0.0).s == pytest.approx(0.0, abs=1e-12)


def test_s_value_partial_visibility():
    rec = s_value(EQ_A, EQ_AP, EQ_BK, EQ_BKP, 0.93)
    assert abs(rec.s - TSIRELSON * 0.93) < 1e-9


def test_s_value_same_bob_basis():
    rec = s_value(EQ_A, EQ_AP, EQ_BK, EQ_BK, 1.0)
    e = correlation(EQ_A, EQ_BK, 1.0).e
    assert rec.s == pytest.approx(2 * abs(e), abs=1e-12)
    assert rec.s <= 2 + 1e-12


def test_s_invariant_under_common_amplitude_rescaling():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, ap = random_alice_pair(rng)
        p1, p2, p3, p4 = random_projectors(rng, 4)
        nu = rng.uniform(0, 1)
        base = s_value(a, ap, pair_basis(p1, p2, 1), pair_basis(p3, p4, 2), nu).s
        f = rng.uniform(0.1, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        scaled_k = pair_basis(
            Projector(p1.amplitude * f, p1.state), Projector(p2.amplitude * f, p2.state), 1
        )
        g = rng.uniform(0.1, 3.0)
        scaled_kp = pair_basis(
            Projector(p3.amplitude * g, p3.state), Projector(p4.amplitude * g, p4.state), 2
        )
        assert abs(s_value(a, ap, scaled_k, scaled_kp, nu).s - base) < 1e-12


# --------------------------------------------------------------- enumeration

def test_build_bob_bases_counts_and_labels():
    rng = np.random.default_rng(32)
    bases = build_bob_bases(random_projectors(rng, 30))
    assert len(bases) == 435
    assert [b.label for b in bases[:3]] == [1, 2, 3]
    assert bases[-1].label == 435


def test_enumerate_counts_n30():
    tm = random_tm(40, 2)
    projectors = bob_projector_set(tm, list(range(15)))
    rng = np.random.default_rng(33)
    enum = enumerate_s(random_alice_pair(rng), projectors, 0.93)
    assert enum.s.size == 189_225
    assert enum.skipped == 0


def test_enumerate_counts_small():
    rng = np.random.default_rng(34)
    alice = random_alice_pair(rng)
    enum2 = enumerate_s(alice, random_projectors(rng, 2), 1.0)
    assert enum2.s.size == 1
    assert enum2.labels.tolist() == [1]  # the single pair (1, 1)
    assert enum2.s[0, 0] <= 2 + 1e-12
    enum3 = enumerate_s(alice, random_projectors(rng, 3), 1.0)
    assert enum3.s.size == 9


def test_enumerate_requires_two_projectors():
    rng = np.random.default_rng(35)
    with pytest.raises(ValueError):
        enumerate_s(random_alice_pair(rng), random_projectors(rng, 1), 1.0)


def test_enumerate_matches_scalar_s_value():
    rng = np.random.default_rng(36)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 6)
    bases = build_bob_bases(projectors)
    enum = enumerate_s(alice, projectors, 0.7)
    n = len(bases)
    assert enum.s.size == n * n
    # bit-identical to the scalar path, K-major ordering
    for row in range(0, n * n, max(1, n * n // 50)):
        k, kp = enum.labels[row // n], enum.labels[row % n]
        ref = s_value(alice[0], alice[1], bases[k - 1], bases[kp - 1], 0.7)
        assert enum.s.flat[row] == ref.s
        assert (k, kp) == ref.bob_bases


def test_enumerate_deterministic():
    rng = np.random.default_rng(37)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 8)
    first = enumerate_s(alice, projectors, 0.93)
    second = enumerate_s(alice, projectors, 0.93)
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.s, second.s)
    assert np.array_equal(first.sigma, second.sigma)
    assert first.alice_labels == second.alice_labels == ("A", "A'")


def test_enumerate_tsirelson_bound():
    rng = np.random.default_rng(38)
    for nu in (0.0, 0.5, 1.0):
        enum = enumerate_s(random_alice_pair(rng), random_projectors(rng, 10), nu)
        assert enum.s.max() <= TSIRELSON + 1e-9


def test_enumerate_separable_classical_bound():
    rng = np.random.default_rng(39)
    enum = enumerate_s(random_alice_pair(rng), random_projectors(rng, 12), 0.0)
    assert enum.s.max() <= 2 + 1e-9


def test_enumerate_skips_dark_pairs():
    rng = np.random.default_rng(40)
    projectors = random_projectors(rng, 2)
    projectors += [
        Projector(0j, PoincareState(0.0, 0.0)),
        Projector(0j, PoincareState(1.0, 2.0)),
    ]
    enum = enumerate_s(random_alice_pair(rng), projectors, 1.0)
    # 6 bases; the (dark, dark) one is undefined: 36 - 25 = 11 skipped
    assert enum.skipped == 11
    assert enum.s.size == 25
    dark_label = 6  # pair (2,3) is last in lexicographic order
    assert dark_label not in enum.labels.tolist()


def test_s_grid_symmetric_inputs():
    rng = np.random.default_rng(41)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 5)
    grid, defined = s_grid(alice, projectors, 0.8)
    assert grid.shape == (10, 10)
    assert defined.all()
    assert np.all(grid >= -1e-15)


# -------------------------------------------------------------------- search

def test_search_deterministic():
    a = max_violation_search(0.5, 2000, seed=5)
    b = max_violation_search(0.5, 2000, seed=5)
    assert a == b


def test_search_separable_bound_quick():
    rec = max_violation_search(0.0, 20_000, seed=6)
    assert rec.s <= 2 + 1e-9


def test_search_entangled_quick():
    rec = max_violation_search(1.0, 20_000, seed=7)
    assert 2.0 < rec.s <= TSIRELSON + 1e-9
    assert rec.s == float.fromhex("0x1.61a573c957d98p+1")  # 2.7628617032166396


def test_search_rejects_bad_args():
    with pytest.raises(ValueError):
        max_violation_search(1.0, 0, seed=0)
    with pytest.raises(ValueError):
        max_violation_search(1.5, 10, seed=0)


def test_search_approaches_quantum_maximum():
    rec = max_violation_search(1.0, 1_000_000, seed=8)
    assert 2.8 <= rec.s <= TSIRELSON + 1e-9


def test_equatorial_grid_at_crossing_visibility():
    # on the equator the classical threshold is reached exactly at
    # nu = 1/sqrt(2); a settings grid there must not exceed 2
    nu = 1 / math.sqrt(2) - 1e-9
    grid = np.linspace(0, 2 * math.pi, 13)[:-1]
    worst = 0.0
    for pa in grid[:6]:
        for pap in grid[:6]:
            a = unit_basis(pa, "A")
            ap = unit_basis(pap, "A'")
            for pk in grid:
                for pkp in grid:
                    if pk == pkp:
                        continue
                    s = s_value(a, ap, unit_basis(pk, 1), unit_basis(pkp, 2), nu).s
                    worst = max(worst, s)
    assert worst <= 2 + 1e-6


# -------------------------------------------------------------------- export

def test_srecords_csv(tmp_path):
    rng = np.random.default_rng(42)
    enum = enumerate_s(random_alice_pair(rng), random_projectors(rng, 3), 0.93)
    path = tmp_path / "s.csv"
    write_srecords_csv(enum, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,kprime,aliceA,aliceAprime,s,sigma"
    assert len(lines) == 10
    k, kp, la, lap, s, sigma = lines[1].split(",")
    assert (k, kp, la, lap) == ("1", "1", "A", "A'")
    assert float(sigma) == 0.0
