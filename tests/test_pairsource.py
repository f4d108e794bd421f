import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speckle_bell.medium import POL_H, POL_V, bob_projector_set, random_tm
from speckle_bell.pairsource import (
    DelayModel,
    PairStateModel,
    UndefinedContrastError,
    contrast,
    hom_curve,
    hom_rate,
    joint_probability,
    joint_rates,
    oracle_joint_probability,
    relabeled,
    write_hom_csv,
)
from speckle_bell.polarization import (
    PoincareState,
    Projector,
    orthogonal_complement,
)

D = PoincareState(math.pi / 2, 0.0)
A = PoincareState(math.pi / 2, math.pi)
H = PoincareState(0.0, 0.0)


def unit(theta, phi):
    return Projector(1.0 + 0.0j, PoincareState(theta, phi))


def random_projector(rng, unit_weight=False):
    state = PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
    amp = 1.0 + 0.0j if unit_weight else rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return Projector(complex(amp), state)


def random_state(rng):
    return PoincareState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))


# ---------------------------------------------------------------- joint rates

def test_joint_probability_destructive():
    assert joint_probability(D, unit(math.pi / 2, 0.0), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_joint_probability_constructive():
    assert joint_probability(D, unit(math.pi / 2, math.pi), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_joint_probability_separable():
    assert joint_probability(D, unit(math.pi / 2, 0.0), 0.0) == pytest.approx(0.25, abs=1e-15)


def test_joint_probability_hh_pairing():
    # matching-polarization pairing of the working convention
    for nu in (0.0, 0.5, 1.0):
        assert joint_probability(H, unit(0.0, 0.0), nu) == pytest.approx(0.5, abs=1e-15)


def test_joint_probability_rejects_bad_visibility():
    with pytest.raises(ValueError):
        joint_probability(D, unit(1.0, 1.0), 1.5)
    with pytest.raises(ValueError):
        joint_probability(D, unit(1.0, 1.0), -0.01)


@settings(max_examples=300, deadline=None)
@given(
    theta_a=st.floats(0, math.pi),
    phi_a=st.floats(0, 2 * math.pi, exclude_max=True),
    theta_b=st.floats(0, math.pi),
    phi_b=st.floats(0, 2 * math.pi, exclude_max=True),
    weight=st.floats(0, 1),
    nu=st.floats(0, 1),
)
def test_joint_probability_bounds(theta_a, phi_a, theta_b, phi_b, weight, nu):
    bob = Projector(complex(math.sqrt(weight)), PoincareState(theta_b, phi_b))
    p = joint_probability(PoincareState(theta_a, phi_a), bob, nu)
    assert -1e-15 <= p <= weight / 2 + 1e-15


def test_joint_probability_bounds_bulk():
    rng = np.random.default_rng(20)
    for _ in range(10_000):
        alice = random_state(rng)
        bob = random_projector(rng)
        nu = rng.uniform(0, 1)
        p = joint_probability(alice, bob, nu)
        assert -1e-15 <= p <= bob.weight / 2 + 1e-15


def test_visibility_linearity():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        alice = random_state(rng)
        bob = random_projector(rng)
        nu = rng.uniform(0, 1)
        p = joint_probability(alice, bob, nu)
        blend = nu * joint_probability(alice, bob, 1.0) + (1 - nu) * joint_probability(alice, bob, 0.0)
        assert abs(p - blend) < 1e-15


def test_two_outcome_completeness():
    # over both Alice outcomes and both detectors of one output mode the
    # rates sum to the routed probability, independent of visibility
    tm = random_tm(30, 8)
    rng = np.random.default_rng(22)
    for k in (0, 7, 19):
        p_h = bob_projector_set(tm, [k])[POL_H]
        p_v = bob_projector_set(tm, [k])[POL_V]
        routed = (p_h.weight + p_v.weight) / 2
        alice = random_state(rng)
        totals = []
        for nu in (0.0, 0.37, 1.0):
            total = sum(
                joint_probability(a, b, nu)
                for a in (alice, orthogonal_complement(alice))
                for b in (p_h, p_v)
            )
            totals.append(total)
        for t in totals:
            assert abs(t - routed) < 1e-10


# -------------------------------------------------------------------- oracle

def test_oracle_singlet_anticorrelation():
    assert oracle_joint_probability(H, unit(math.pi, 0.0), 1.0) == pytest.approx(0.5, abs=1e-12)


def test_oracle_singlet_forbids_hh():
    assert oracle_joint_probability(H, unit(0.0, 0.0), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_working_formula_under_relabeling():
    rng = np.random.default_rng(23)
    worst = 0.0
    cases = []
    for _ in range(1000):
        alice = random_state(rng)
        bob = random_projector(rng)
        nu = rng.uniform(0, 1)
        oracle = oracle_joint_probability(alice, bob, nu)
        worst = max(worst, abs(oracle - joint_probability(alice, relabeled(bob), nu)))
        cases.append((alice, relabeled(bob), nu, oracle))
    assert worst < 1e-12

    # the broadcast kernel on the same draws as arrays, non-unit weights
    alice, bob, nu, oracle = zip(*cases)
    rates = joint_rates(
        np.array([a.theta for a in alice]),
        np.array([a.phi for a in alice]),
        np.array([b.state.theta for b in bob]),
        np.array([b.state.phi for b in bob]),
        np.array([b.weight for b in bob]),
        np.array(nu),
    )
    assert np.max(np.abs(rates - np.array(oracle))) < 1e-12


def test_joint_rates_exact_zero_at_orthogonal_poles():
    # cos(pi/2) rounds to ~6e-17; the kernel must keep the exact pole
    # values so that bases built from orthogonal poles stay degenerate
    states = [PoincareState(0.0, 0.0), PoincareState(math.pi, 1.0)]
    bobs = [Projector(0.6 + 0.2j, states[0]), Projector(1.3j, states[1])]
    theta = np.array([st.theta for st in states])
    phi = np.array([st.phi for st in states])
    for nu in np.linspace(0.0, 1.0, 11):
        rates = joint_rates(
            theta[:, None], phi[:, None], theta[None, :], phi[None, :],
            np.array([b.weight for b in bobs]), nu,
        )
        assert rates[0, 1] == 0.0 and rates[1, 0] == 0.0
        for a, alice in enumerate(states):
            for b, bob in enumerate(bobs):
                assert joint_probability(alice, bob, nu) == rates[a, b]


def test_pair_state_model_density_matrix():
    rho = PairStateModel(0.4).density_matrix()
    assert rho.shape == (4, 4)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
    with pytest.raises(ValueError):
        PairStateModel(1.2)


# ----------------------------------------------------------------- hom / C

def test_hom_rate_endpoints():
    model = DelayModel(0.1)
    bob = unit(math.pi / 2, math.pi)
    assert hom_rate(D, bob, 0.0, model, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert hom_rate(D, bob, 1.0, model, 1.0) == pytest.approx(0.25, abs=1e-10)


def test_hom_rate_even_in_delay():
    rng = np.random.default_rng(24)
    model = DelayModel(0.1)
    for _ in range(100):
        alice = random_state(rng)
        bob = random_projector(rng)
        nu0 = rng.uniform(0, 1)
        delta = rng.uniform(0, 0.5)
        assert hom_rate(alice, bob, delta, model, nu0) == hom_rate(alice, bob, -delta, model, nu0)


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel(0.0)


def test_contrast_d_and_a_anchor():
    bob = unit(math.pi / 2, math.pi)
    assert contrast(D, bob, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert contrast(A, bob, 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_contrast_vanishes_for_polar_bob():
    rng = np.random.default_rng(25)
    for _ in range(50):
        alice = PoincareState(rng.uniform(0.05, math.pi - 0.05), rng.uniform(0, 2 * math.pi))
        assert contrast(alice, unit(0.0, 0.0), 0.93) == 0.0


def test_contrast_undefined_at_opposite_poles():
    with pytest.raises(UndefinedContrastError):
        contrast(PoincareState(math.pi, 0.0), unit(0.0, 0.0), 1.0)


def test_contrast_matches_endpoint_ratio():
    rng = np.random.default_rng(26)
    model = DelayModel(0.1)
    for _ in range(1000):
        alice = random_state(rng)
        bob = random_projector(rng)
        if bob.weight < 1e-6:
            continue
        nu0 = rng.uniform(0, 1)
        r0 = hom_rate(alice, bob, 0.0, model, nu0)
        rinf = hom_rate(alice, bob, 60 * model.coherence_length, model, nu0)
        if rinf <= 1e-300:
            continue
        assert abs(contrast(alice, bob, nu0) - (r0 - rinf) / rinf) < 1e-12


def test_contrast_desk_scale_panel():
    # eight random channel modes: D and A contrasts are sign-opposed per
    # mode and bounded by the source visibility
    tm = random_tm(50, 12)
    nu0 = 0.93
    projs = [
        bob_projector_set(tm, [k])[pol]
        for k in (3, 11, 24, 40)
        for pol in (POL_H, POL_V)
    ]
    for bob in projs:
        c_d = contrast(D, bob, nu0)
        c_a = contrast(A, bob, nu0)
        assert abs(c_d) <= nu0 + 1e-12
        assert abs(c_d + c_a) < 1e-12


def test_hom_curve_shape_and_export(tmp_path):
    model = DelayModel(0.1)
    curve = hom_curve(D, unit(math.pi / 2, math.pi), model, 0.93)
    assert curve.delays.shape == (101,)
    assert curve.delays[0] == -0.5 and curve.delays[-1] == 0.5
    assert np.all(curve.rates >= 0)
    path = tmp_path / "hom.csv"
    write_hom_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "delta,rate"
    assert len(lines) == 102
    write_hom_csv(curve, tmp_path / "hom2.csv")
    assert (tmp_path / "hom2.csv").read_bytes() == path.read_bytes()
