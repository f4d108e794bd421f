import cmath
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speckle_bell
from speckle_bell.medium import (
    POL_H,
    POL_V,
    HaarChannel,
    TransmissionMatrix,
    bob_projector_set,
    load_tm,
    random_tm,
    save_tm,
    speckle_intensity,
)
from speckle_bell.pairsource import joint_rates
from speckle_bell.polarization import AmplitudeVector, PoincareState, Projector, wrap_angle


def identity_block(m):
    """The lit input mode's (2M, 2) block of the identity channel."""
    return np.eye(2 * m, 2, dtype=complex)


def test_random_tm_smallest_case():
    tm = random_tm(1, 0)
    assert tm.entries.shape == (2, 2)
    assert tm.unitarity_residual() < 1e-10


def test_random_tm_reproducible_and_normalized():
    a = random_tm(200, 123)
    b = random_tm(200, 123)
    assert np.array_equal(a.entries, b.entries)
    norms = np.linalg.norm(a.entries, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_random_tm_seed_sensitivity():
    a = random_tm(5, 1)
    b = random_tm(5, 2)
    assert np.max(np.abs(a.entries - b.entries)) > 1e-6


def test_random_tm_rejects_zero_modes():
    with pytest.raises(ValueError):
        random_tm(0, 0)


def test_unitarity_both_sides():
    tm = random_tm(50, 9)
    n = 2 * tm.m_spatial
    assert np.max(np.abs(tm.entries.conj().T @ tm.entries - np.eye(n))) < 1e-10
    assert np.max(np.abs(tm.entries @ tm.entries.conj().T - np.eye(n))) < 1e-10


def test_haar_columns_match_random_tm():
    for m in (1, 2, 12, 40):
        for seed in (0, 5, 123):
            entries = random_tm(m, seed).entries
            channel = HaarChannel(m, seed)
            block = channel.columns()
            assert not block.flags.writeable
            assert block.tobytes() == entries[:, :2].tobytes()
            assert channel.entries.tobytes() == entries.tobytes()


# Digests of the lit input mode's block, of the same columns of the full
# unitary, and of Alice's analyzer states, under this process's BLAS settings.
_BLAS_PROBE = """
import hashlib
from speckle_bell import cli
from speckle_bell.medium import HaarChannel, random_tm
for seed in (3, 41):
    alice = cli.draw_alice_pair(cli.ExperimentConfig(seed=seed))
    states = repr([(p.state.theta, p.state.phi) for b in alice for p in (b.first, b.second)])
    print(hashlib.sha256(HaarChannel(200, seed).columns().tobytes()).hexdigest(),
          hashlib.sha256(random_tm(200, seed).entries[:, :2].tobytes()).hexdigest(),
          hashlib.sha256(states.encode()).hexdigest())
"""


def test_haar_columns_independent_of_blas_threads():
    # The block and Alice's states use no BLAS: neither OpenBLAS's thread
    # count nor its CPU kernel may change their bits.
    src = Path(speckle_bell.__file__).resolve().parents[1]
    base = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    outputs = []
    for setting in (("OPENBLAS_NUM_THREADS", "1"), ("OPENBLAS_NUM_THREADS", "2"),
                    ("OPENBLAS_CORETYPE", "Haswell"), ("OPENBLAS_CORETYPE", "Sandybridge")):
        env = {**base, setting[0]: setting[1], "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append([line.split() for line in done.stdout.splitlines()])
    assert len(outputs[0]) == 2
    for block, full, _ in outputs[0]:
        assert block == full
    assert all(lines == outputs[0] for lines in outputs[1:])


def test_haar_block_law():
    scipy_stats = pytest.importorskip("scipy.stats")
    for m in (1, 2, 12, 1000):
        block = HaarChannel(m, 7).columns()
        assert np.max(np.abs(block.conj().T @ block - np.eye(2))) < 1e-12
    # One output mode (two rows) per seed, pooled over 1,000 seeds at M = 6:
    # a row's Jones vector is uniform on the sphere and its weight is that
    # of 2 of the 2M coordinates of a uniform unit vector, Beta(2, 2M - 2).
    m = 6
    projectors = [p for seed in range(1000)
                  for p in bob_projector_set(HaarChannel(m, seed).columns(), [seed % m])]
    cos_theta = [math.cos(p.state.theta) for p in projectors]
    phi = [p.state.phi for p in projectors]
    weight = [p.weight for p in projectors]
    assert scipy_stats.kstest(cos_theta, scipy_stats.uniform(-1, 2).cdf).pvalue > 1e-3
    assert scipy_stats.kstest(phi, scipy_stats.uniform(0, 2 * math.pi).cdf).pvalue > 1e-3
    assert scipy_stats.kstest(weight, scipy_stats.beta(2, 2 * m - 2).cdf).pvalue > 1e-3


def test_projector_identity_h_detector():
    p = bob_projector_set(identity_block(3), [0])[POL_H]
    assert p.amplitude == 1.0
    assert p.state.theta == 0.0 and p.state.phi == 0.0


def test_projector_identity_v_detector():
    # limit of the angle formulas as the H coefficient vanishes; the
    # projected state must be V, confirmed by the overlap oracle
    p = bob_projector_set(identity_block(3), [0])[POL_V]
    assert abs(p.amplitude - 1.0) < 1e-12
    assert p.state.theta == math.pi and p.state.phi == 0.0
    from speckle_bell.polarization import PoincareState, overlap

    assert overlap(p.state, PoincareState(math.pi, 0.0)) > 1 - 1e-12


def test_projector_direct_substitution():
    block = identity_block(2)
    block[0, 0] = 1 / math.sqrt(2)       # t^HH at (k=0, b=0)
    block[0, 1] = 1j / math.sqrt(2)      # t^HV
    p = bob_projector_set(block, [0])[POL_H]
    assert abs(abs(p.amplitude) - 1.0) < 1e-12
    assert abs(p.state.theta - math.pi / 2) < 1e-12
    assert abs(p.state.phi - math.pi / 2) < 1e-12


def test_projector_dark():
    block = np.zeros((4, 2), dtype=complex)  # M = 2, input mode 0 routes no light
    p = bob_projector_set(block, [0])[POL_H]
    assert p.amplitude == 0 and p.weight == 0.0


def angle_formula_projector(t_h: complex, t_v: complex) -> Projector:
    """The projector from its angle formulas written out, with the pole values
    (theta = pi, phi = 0, arg c = arg t_v) when |t_h| < 1e-300, and dark when
    both magnitudes are."""
    ah, av = abs(t_h), abs(t_v)
    if ah < 1e-300 and av < 1e-300:
        return Projector(0j, PoincareState(0.0, 0.0))
    magnitude = math.hypot(ah, av)
    if ah < 1e-300:
        return Projector(cmath.rect(magnitude, cmath.phase(t_v)), PoincareState(math.pi, 0.0))
    theta = 2.0 * math.atan2(av, ah)
    phi = wrap_angle(cmath.phase(t_v) - cmath.phase(t_h))
    return Projector(cmath.rect(magnitude, cmath.phase(t_h)), PoincareState(theta, phi))


def test_projector_matches_angle_formulas_bit_for_bit():
    # magnitudes over 40 decades, so either coefficient can dominate
    rng = np.random.default_rng(60)
    block = (rng.standard_normal((4000, 2)) + 1j * rng.standard_normal((4000, 2))) * 10.0 ** (
        rng.uniform(-20.0, 20.0, (4000, 2))
    )
    got = bob_projector_set(block, list(range(2000)))
    want = [angle_formula_projector(*row) for row in block.tolist()]
    assert [repr(p) for p in got] == [repr(p) for p in want]


def test_projector_edge_rows_give_the_pole_rates():
    """Rows with exact zeros of either sign, subnormals and magnitudes below
    1e-300 may differ from the pole values in phi at a pole or in the phase of
    an amplitude whose weight is 0, but never in a joint rate."""
    parts = (0.0, -0.0, 5e-324, -5e-324, 1e-301, -1e-301, 0.6, -1.0)
    block = np.array(
        [complex(a, b) for a, b in itertools.product(parts, repeat=2)], dtype=complex
    )
    block = np.array(list(itertools.product(block, repeat=2)))  # every (t_h, t_v)
    got = bob_projector_set(block, list(range(len(block) // 2)))
    want = [angle_formula_projector(*row) for row in block.tolist()]
    rng = np.random.default_rng(61)
    theta_a, phi_a = rng.uniform(0.0, math.pi, (64, 1)), rng.uniform(0.0, 2 * math.pi, (64, 1))

    def rates(projectors, nu):
        theta, phi, weight = np.array(
            [(p.state.theta, p.state.phi, p.weight) for p in projectors]
        ).T
        return joint_rates(theta_a, phi_a, theta, phi, weight, nu)

    for nu in (0.0, 0.93, 1.0):
        assert rates(got, nu).tobytes() == rates(want, nu).tobytes()


def test_projector_out_of_range():
    with pytest.raises(ValueError):
        bob_projector_set(identity_block(2), [5])


def test_bob_projector_set_counts():
    block = HaarChannel(20, 3).columns()
    assert len(bob_projector_set(block, list(range(15)))) == 30
    assert len(bob_projector_set(block, [0, 3, 7, 9])) == 8


def test_bob_projector_set_identity_pair():
    projs = bob_projector_set(identity_block(2), [0])
    assert len(projs) == 2
    assert projs[0].state.theta == 0.0  # H detector first
    assert projs[1].state.theta == math.pi


def test_bob_projector_set_rejects_duplicates():
    with pytest.raises(ValueError):
        bob_projector_set(HaarChannel(4, 0).columns(), [1, 1])
    with pytest.raises(ValueError):
        bob_projector_set(HaarChannel(4, 0).columns(), [])


def test_projector_energy_accounting():
    # |c|^2 summed over output modes and both detectors covers both input
    # polarization columns, hence 2; a single input column routes energy 1
    tm = random_tm(40, 5)
    total_c = 0.0
    for k in range(tm.m_spatial):
        for pol in (POL_H, POL_V):
            total_c += bob_projector_set(tm.entries[:, :2], [k])[pol].weight
    assert abs(total_c - 2.0) < 1e-10
    col_h = np.sum(np.abs(tm.entries[:, 0]) ** 2)
    col_v = np.sum(np.abs(tm.entries[:, 1]) ** 2)
    assert abs(col_h - 1.0) < 1e-10 and abs(col_v - 1.0) < 1e-10


def test_detector_angles_uncorrelated():
    # H- and V-detector projector angles at the same output mode should be
    # statistically independent for strongly mixing channels
    thetas_h, thetas_v, phis_h, phis_v = [], [], [], []
    for seed in range(10):
        block = HaarChannel(200, 100 + seed).columns()
        for k in range(200):
            ph = bob_projector_set(block, [k])[POL_H]
            pv = bob_projector_set(block, [k])[POL_V]
            thetas_h.append(ph.state.theta)
            thetas_v.append(pv.state.theta)
            phis_h.append(ph.state.phi)
            phis_v.append(pv.state.phi)
    r_theta = np.corrcoef(thetas_h, thetas_v)[0, 1]
    r_phi = np.corrcoef(phis_h, phis_v)[0, 1]
    assert abs(r_theta) < 0.05
    assert abs(r_phi) < 0.05


def test_eigenphases_uniform():
    # pooled eigenphases of sampled unitaries must be uniform on the circle
    scipy_stats = pytest.importorskip("scipy.stats")
    phases = []
    for seed in range(60):
        tm = random_tm(16, 1000 + seed)
        phases.extend(np.angle(np.linalg.eigvals(tm.entries)))
    phases = np.asarray(phases)
    nbins = 16
    counts, _ = np.histogram(phases, bins=nbins, range=(-math.pi, math.pi))
    chi2, p = scipy_stats.chisquare(counts)
    assert p > 0.01


def test_speckle_identity_routes_input():
    intensity = speckle_intensity(identity_block(4), AmplitudeVector(1.0, 0.0))
    assert intensity.shape == (4, 2) and not intensity.flags.writeable
    intensity_h, intensity_v = intensity.T
    assert abs(intensity_h[0] - 1.0) < 1e-12
    total = np.sum(intensity_h) + np.sum(intensity_v)
    assert total == pytest.approx(1.0, abs=1e-10)
    mask = np.ones(4, dtype=bool)
    mask[0] = False
    assert np.max(intensity_h[mask]) < 1e-12
    assert np.max(intensity_v) < 1e-12


def test_speckle_conserves_intensity():
    v = AmplitudeVector(0.6, 0.8j)
    intensity_h, intensity_v = speckle_intensity(HaarChannel(100, 17).columns(), v).T
    assert abs(np.sum(intensity_h) + np.sum(intensity_v) - 1.0) < 1e-10


def test_speckle_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        speckle_intensity(HaarChannel(4, 0).columns(), AmplitudeVector(1.0, 1.0))


def test_speckle_intensities_exponential():
    scipy_stats = pytest.importorskip("scipy.stats")
    intensity = speckle_intensity(HaarChannel(200, 31).columns(), AmplitudeVector(1.0, 0.0))
    samples = np.concatenate(intensity.T)
    # unit column norm fixes the theoretical mean at 1/(2M)
    scaled = samples * (2 * 200)
    _, p = scipy_stats.kstest(scaled, "expon")
    assert p > 0.01


# Signed zero, the smallest subnormal, both float extremes, and values whose
# shortest repr has 1 or 17 significant digits.
_EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                0.1, 2.0000000000000004]
_EDGE_TM_SHA256 = "953d258301687148686346c5d337b4a3e5d20beb15a9e8013b339c303f924656"


def test_tm_round_trip(tmp_path):
    tm = random_tm(6, 77)
    path = tmp_path / "tm.txt"
    save_tm(tm, path)
    back = load_tm(path)
    assert back.m_spatial == tm.m_spatial
    assert back.seed == tm.seed
    assert np.array_equal(back.entries, tm.entries)

    # 2M x 2M entries, real and imaginary parts cycling through the edge values
    parts = np.resize(np.array(_EDGE_FLOATS), 2 * 4 * 4)
    edge = TransmissionMatrix(2, parts.view(complex).reshape(4, 4), seed=2**64 - 1)
    path = tmp_path / "edge.txt"
    save_tm(edge, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _EDGE_TM_SHA256
    back = load_tm(path)
    assert back.seed == edge.seed
    assert back.entries.tobytes() == edge.entries.tobytes()


def test_tm_load_rejects_bad_header(tmp_path):
    path = tmp_path / "tm.txt"
    path.write_text("XX v9 M=2 seed=0\n")
    with pytest.raises(ValueError):
        load_tm(path)


def test_tm_load_rejects_missing_entries(tmp_path):
    path = tmp_path / "tm.txt"
    path.write_text("TM v1 M=1 seed=0\n0 H 0 H 1 0\n")
    with pytest.raises(ValueError):
        load_tm(path)


_VALID_TM = ["TM v1 M=1 seed=0", "0 H 0 H 1 0", "0 H 0 V 0 0", "0 V 0 H 0 0", "0 V 0 V 1 0"]
_BAD_TM_LINES = {
    "blank": "", "comment": "0 V 0 H 0 0 # c", "letters-HV": "0 HV 0 H 0 0",
    "letter-X": "0 X 0 H 0 0", "letter-h": "0 V 0 h 0 0", "k-is-M": "1 V 0 H 0 0",
    "j-negative": "0 V -1 H 0 0", "5-fields": "0 V 0 H 0", "7-fields": "0 V 0 H 0 0 0",
    "index-0.0": "0.0 V 0 H 0 0", "value-abc": "0 V 0 H abc 0",
    "duplicate": "0 H 0 H 1 0",  # in place of the missing "0 V 0 H" entry
}
_BAD_TM_FILES = {
    **{name: "\n".join([*_VALID_TM[:3], line, _VALID_TM[4]]) + "\n"
       for name, line in _BAD_TM_LINES.items()},
    "header-only": _VALID_TM[0] + "\n",
    "empty": "",
}


# Cases that fail the six-field parse, named by their file line (line 4).
_UNPARSABLE_TM = ("blank", "comment", "5-fields", "7-fields", "index-0.0", "value-abc")


@pytest.mark.parametrize(
    ("name", "text"), _BAD_TM_FILES.items(), ids=_BAD_TM_FILES.keys()
)
def test_tm_load_rejects_malformed_file(tmp_path, name, text):
    path = tmp_path / "tm.txt"
    path.write_text(text)
    where = f"{path}:4: malformed entry line" if name in _UNPARSABLE_TM else str(path)
    with pytest.raises(ValueError, match=re.escape(where)):
        load_tm(path)


def test_tm_load_accepts_any_line_order(tmp_path):
    path = tmp_path / "tm.txt"
    path.write_text("\n".join([_VALID_TM[0], *reversed(_VALID_TM[1:])]) + "\n")
    assert np.array_equal(load_tm(path).entries, np.eye(2))
