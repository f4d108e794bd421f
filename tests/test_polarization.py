import math

import numpy as np
import pytest

from speckle_bell.polarization import (
    AmplitudeVector,
    PoincareState,
    amplitude_vector,
    orthogonal_complement,
    overlap,
    random_alice_state,
    waveplate_detector1_angles,
    waveplate_projection,
    wrap_angle,
)

D = PoincareState(math.pi / 2, 0.0)
A = PoincareState(math.pi / 2, math.pi)


def close(state, theta, phi, tol=1e-12):
    c = state.canonical()
    dphi = abs(c.phi - wrap_angle(phi))
    dphi = min(dphi, 2 * math.pi - dphi)
    return abs(c.theta - theta) < tol and dphi < tol


def test_amplitude_vector_h():
    v = amplitude_vector(PoincareState(0.0, 0.0))
    assert v.h == 1.0 and v.v == 0.0


def test_amplitude_vector_v():
    v = amplitude_vector(PoincareState(math.pi, 0.0))
    assert abs(v.h) < 1e-12
    assert abs(v.v - 1.0) < 1e-12


def test_amplitude_vector_d():
    v = amplitude_vector(D)
    assert abs(v.h - 1 / math.sqrt(2)) < 1e-12
    assert abs(v.v - 1 / math.sqrt(2)) < 1e-12


def test_unit_norm_random():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        s = PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert abs(amplitude_vector(s).norm_sq() - 1.0) < 1e-12


def test_theta_beyond_pi_folds_to_same_ray():
    rng = np.random.default_rng(4)
    for _ in range(200):
        theta = rng.uniform(math.pi, 2 * math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        folded = PoincareState(theta, phi)
        assert 0.0 <= folded.theta <= math.pi
        # same physical ray as the raw Jones vector of the unfolded angles
        raw = AmplitudeVector(
            math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)
        )
        got = amplitude_vector(folded)
        assert abs(abs(raw.inner(got)) - 1.0) < 1e-12


def test_orthogonal_complement_of_h():
    c = orthogonal_complement(PoincareState(0.0, 0.0))
    assert c.theta == math.pi and c.phi == math.pi
    assert overlap(PoincareState(0.0, 0.0), c) < 1e-24


def test_orthogonal_complement_of_d_is_a():
    c = orthogonal_complement(D)
    assert close(c, math.pi / 2, math.pi)


def test_orthogonal_complement_circular():
    c = orthogonal_complement(PoincareState(math.pi / 2, math.pi / 2))
    assert close(c, math.pi / 2, 3 * math.pi / 2)


def test_orthogonal_complement_involution():
    rng = np.random.default_rng(5)
    for _ in range(500):
        s = PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        twice = orthogonal_complement(orthogonal_complement(s))
        assert abs(twice.theta - s.theta) < 1e-12
        dphi = abs(twice.phi - s.phi)
        assert min(dphi, 2 * math.pi - dphi) < 1e-12


def test_orthogonality_inner_product():
    rng = np.random.default_rng(6)
    for _ in range(500):
        s = PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        o = orthogonal_complement(s)
        ip = amplitude_vector(s).inner(amplitude_vector(o))
        assert abs(ip) < 1e-12


def test_canonical_zeroes_phi_at_poles():
    assert PoincareState(math.pi, 2.5).canonical().phi == 0.0
    assert PoincareState(0.0, 1.0).canonical().phi == 0.0
    s = PoincareState(1.0, 2.0)
    assert s.canonical() == s


def test_waveplate_anchor_d_a():
    assert close(waveplate_projection(math.radians(22.5), 0.0, 1), math.pi / 2, 0.0)
    assert close(waveplate_projection(math.radians(22.5), 0.0, 2), math.pi / 2, math.pi)


def test_waveplate_identity_orientation():
    assert close(waveplate_projection(0.0, 0.0, 1), 0.0, 0.0)


def test_waveplate_detectors_orthogonal():
    rng = np.random.default_rng(7)
    for _ in range(300):
        hwp, qwp = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        d1 = waveplate_projection(hwp, qwp, 1)
        d2 = waveplate_projection(hwp, qwp, 2)
        assert overlap(d1, d2) < 1e-24


def test_waveplate_angles_are_wrapped_first():
    rng = np.random.default_rng(9)
    for hwp, qwp in rng.uniform(-20.0, 20.0, (50, 2)).tolist():
        for detector in (1, 2):
            assert waveplate_projection(hwp, qwp, detector) == waveplate_projection(
                wrap_angle(hwp), wrap_angle(qwp), detector
            )


def test_waveplate_bad_detector():
    with pytest.raises(ValueError):
        waveplate_projection(0, 0, 3)


def jones_detector1(hwp, qwp):
    """Oracle: the analyzer's Jones product HWP(hwp) QWP(qwp) applied to |H>,
    with plates diag(1, -1) and diag(1, -i) in their fast-axis frames."""
    def rotation(angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])

    def plate(angle, retardance):
        r = rotation(angle)
        return r @ np.diag([1.0, retardance]) @ r.T

    return (plate(hwp, -1.0) @ plate(qwp, -1.0j))[:, 0]


def bloch(h, v):
    """Stokes vector of the Jones vector (h, v), normalized."""
    cross = np.conj(h) * v
    return np.array([2 * cross.real, 2 * cross.imag, abs(h) ** 2 - abs(v) ** 2]) / (
        abs(h) ** 2 + abs(v) ** 2)


def test_vectorized_angles_match_scalar():
    rng = np.random.default_rng(8)
    al = rng.uniform(0, 2 * math.pi, 100)
    be = rng.uniform(0, 2 * math.pi, 100)
    theta, phi = waveplate_detector1_angles(al, be)
    for k in range(100):
        want = bloch(*jones_detector1(al[k], be[k]))
        for state in (PoincareState(theta[k], phi[k]), waveplate_projection(al[k], be[k], 1)):
            vec = amplitude_vector(state)
            assert np.max(np.abs(bloch(vec.h, vec.v) - want)) < 1e-12


def test_random_alice_state_deterministic():
    a = random_alice_state(np.random.default_rng(42))
    b = random_alice_state(np.random.default_rng(42))
    assert a == b


def test_random_alice_state_covers_sphere():
    # 1e4 draws must hit every octant of the sphere
    rng = np.random.default_rng(10)
    occupancy = np.zeros(8, dtype=int)
    for _ in range(10_000):
        s = random_alice_state(rng)
        x = math.sin(s.theta) * math.cos(s.phi)
        y = math.sin(s.theta) * math.sin(s.phi)
        z = math.cos(s.theta)
        occupancy[(x > 0) * 4 + (y > 0) * 2 + (z > 0)] += 1
    assert occupancy.min() > 0


def test_to_poincare_rejects_zero():
    with pytest.raises(ValueError):
        AmplitudeVector(0.0, 0.0).to_poincare()
