import math

import numpy as np
import pytest

from speckle_bell import chsh
from speckle_bell.chsh import (
    TSIRELSON,
    MeasurementBasis,
    UndefinedCorrelationError,
    alice_basis,
    build_bob_bases,
    correlation,
    enumerate_s,
    max_violation_search,
    s_combination,
    s_grid,
    s_tiles,
    s_value,
    write_srecords_csv,
)
from speckle_bell.medium import HaarChannel, bob_projector_set
from speckle_bell.pairsource import joint_rates
from speckle_bell.polarization import PoincareState, Projector
from speckle_bell.stats import AcquisitionConfig, noisy_enumerate

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
    projectors = bob_projector_set(HaarChannel(40, 2).columns(), list(range(15)))
    rng = np.random.default_rng(33)
    enum = enumerate_s(random_alice_pair(rng), projectors, 0.93)
    assert enum.labels.size**2 == 189_225
    assert enum.skipped == 0


def test_enumerate_counts_small():
    rng = np.random.default_rng(34)
    alice = random_alice_pair(rng)
    enum2 = enumerate_s(alice, random_projectors(rng, 2), 1.0)
    assert enum2.labels.size**2 == 1
    assert enum2.labels.tolist() == [1]  # the single pair (1, 1)
    assert s_combination(*enum2.e)[0, 0] <= 2 + 1e-12
    enum3 = enumerate_s(alice, random_projectors(rng, 3), 1.0)
    assert enum3.labels.size**2 == 9


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
    s = s_combination(*enum.e)
    assert s.size == n * n
    # bit-identical to the scalar path, K-major ordering
    for row in range(0, n * n, max(1, n * n // 50)):
        k, kp = enum.labels[row // n], enum.labels[row % n]
        ref = s_value(alice[0], alice[1], bases[k - 1], bases[kp - 1], 0.7)
        assert s.flat[row] == ref.s


def test_enumerate_deterministic():
    rng = np.random.default_rng(37)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 8)
    first = enumerate_s(alice, projectors, 0.93)
    second = enumerate_s(alice, projectors, 0.93)
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.e, second.e)
    assert first.var is None and second.var is None  # noiseless: sigma 0
    assert first.alice_labels == second.alice_labels == ("A", "A'")


def test_enumerate_tsirelson_bound():
    rng = np.random.default_rng(38)
    for nu in (0.0, 0.5, 1.0):
        enum = enumerate_s(random_alice_pair(rng), random_projectors(rng, 10), nu)
        assert s_combination(*enum.e).max() <= TSIRELSON + 1e-9


def test_enumerate_separable_classical_bound():
    rng = np.random.default_rng(39)
    enum = enumerate_s(random_alice_pair(rng), random_projectors(rng, 12), 0.0)
    assert s_combination(*enum.e).max() <= 2 + 1e-9


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
    assert enum.labels.size**2 == 25
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


@pytest.mark.parametrize("tile_rows, heights", [(1, [1] * 15), (7, [7, 7, 1]), (10**6, [15])])
def test_s_tiles_match_s_grid(monkeypatch, tile_rows, heights):
    monkeypatch.setattr(chsh, "_S_TILE_ROWS", tile_rows)
    rng = np.random.default_rng(42)
    alice = random_alice_pair(rng)
    projectors = random_projectors(rng, 6)
    grid, _ = s_grid(alice, projectors, 0.9)
    tiles = [(s.copy(), sigma) for s, sigma in s_tiles(enumerate_s(alice, projectors, 0.9))]
    assert [len(s) for s, _ in tiles] == heights
    assert np.concatenate([s for s, _ in tiles]).tobytes() == grid.tobytes()  # bit for bit
    for s, sigma in tiles:  # noiseless: a read-only zero view, no arithmetic
        assert sigma.shape == s.shape and not sigma.flags.writeable
        assert sigma.strides == (0, 0) and not sigma.any()


# -------------------------------------------------------------------- search

def test_search_deterministic():
    a = max_violation_search(0.5, 2000, seed=5)
    b = max_violation_search(0.5, 2000, seed=5)
    assert a == b


def test_search_separable_bound_quick():
    assert max_violation_search(0.0, 20_000, seed=6) <= 2 + 1e-9


def test_search_entangled_quick():
    s = max_violation_search(1.0, 20_000, seed=7)
    assert type(s) is float and 2.0 < s <= TSIRELSON + 1e-9
    assert s == float.fromhex("0x1.61a573c957d98p+1")  # 2.7628617032166396


def test_search_rejects_bad_args():
    with pytest.raises(ValueError):
        max_violation_search(1.0, 0, seed=0)
    with pytest.raises(ValueError):
        max_violation_search(1.5, 10, seed=0)


def test_search_approaches_quantum_maximum():
    assert 2.8 <= max_violation_search(1.0, 1_000_000, seed=8) <= TSIRELSON + 1e-9


def test_isotropic_settings_violate_at_the_analytic_rate():
    """Isotropic random unit-weight bases A, A', K, K' on the singlet violate
    each CHSH variant (the minus sign on one of the four terms) with
    probability (pi - 3)/2, so some variant with 2(pi - 3), and never two at
    once (Liang, Harrigan, Bartlett & Rudolph, PRL 104, 050401 (2010))."""
    n, chunk = 200_000, 50_000  # chunks keep the (2, 2, 2, 2, chunk) rates small
    rng = np.random.default_rng(12345)
    violated = np.empty((4, n), dtype=bool)  # [variant, trial]
    for start in range(0, n, chunk):
        theta = np.arccos(rng.uniform(-1.0, 1.0, (4, chunk)))
        phi = rng.uniform(0.0, 2 * math.pi, (4, chunk))
        # bases A, A', K, K' by outcome: each state, then its complement
        th, ph = np.stack((theta, math.pi - theta), 1), np.stack((phi, phi + math.pi), 1)
        # cells[A or A', K or K', 4, chunk]
        cells = joint_rates(
            th[:2, None, :, None], ph[:2, None, :, None],
            th[None, 2:, None, :], ph[None, 2:, None, :], 1.0, 1.0,
        ).reshape(2, 2, 4, chunk)
        e = chsh.cell_correlations(cells)
        terms = np.stack((e[0, 0], e[1, 0], e[0, 1], e[1, 1]))  # E(A,K), E(A',K), E(A,K'), E(A',K')
        violated[:, start:start + chunk] = np.abs(terms.sum(0) - 2.0 * terms) > 2.0

    def within_5_sd(count, p):
        return abs(count / n - p) < 5.0 * math.sqrt(p * (1.0 - p) / n)

    assert within_5_sd(np.count_nonzero(violated[3]), (math.pi - 3.0) / 2.0)  # enumerated variant
    assert within_5_sd(np.count_nonzero(violated.any(0)), 2.0 * (math.pi - 3.0))
    assert violated.sum(0).max() == 1


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


def _untiled_srecords(enum):
    """srecords.csv text from whole (D, D) S and sigma grids, as one join."""
    s = s_combination(*enum.e)
    if enum.var is None:
        sigma = np.zeros_like(s)
    else:
        v_a, v_ap = enum.var
        sigma = np.sqrt(((v_a[:, None] + v_ap[:, None]) + v_a[None, :]) + v_ap[None, :])
    labels = enum.labels.tolist()
    rows = [
        f"{k},{kp},A,A',{a:.12g},{b:.12g}"
        for (k, kp), a, b in zip(
            ((k, kp) for k in labels for kp in labels), s.ravel().tolist(), sigma.ravel().tolist()
        )
    ]
    return "\n".join(["k,kprime,aliceA,aliceAprime,s,sigma", *rows]) + "\n"


def test_srecords_csv_independent_of_tile_height(tmp_path, monkeypatch):
    """The file is the same at tile heights 1, 7 (D = 27 is not a multiple) and
    whole, noisy or not, and equals the untiled text.  The (dark, dark) basis
    is label 1, so a K label shifted at a tile edge shows in every row after it."""
    rng = np.random.default_rng(43)
    alice = random_alice_pair(rng)
    projectors = [Projector(0j, PoincareState(0.0, 0.0)),
                  Projector(0j, PoincareState(1.0, 2.0))] + random_projectors(rng, 6)
    enums = [enumerate_s(alice, projectors, 0.93),
             noisy_enumerate(alice, projectors, 0.93, AcquisitionConfig(62.5, 0))]
    for enum in enums:
        assert enum.labels[0] == 2 and enum.labels.size == 27
        want = _untiled_srecords(enum)
        for tile_rows in (1, 7, 10**6):
            monkeypatch.setattr(chsh, "_S_TILE_ROWS", tile_rows)
            path = tmp_path / f"s_{tile_rows}.csv"
            write_srecords_csv(enum, path)
            assert path.read_text() == want, tile_rows
    assert enums[1].var.min() == 0.0 < enums[1].var.max()  # sigma-0 and resolved rows
