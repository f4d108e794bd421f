"""Two-photon joint-detection physics for a visibility-parametrized source.

The source interpolates between a polarization singlet (visibility 1) and
the classically correlated separable mixture left when the photons no longer
interfere (visibility 0).  The working formula for a joint detection by an
analyzer state (theta, phi) and a weighted channel projector
(c, theta_k, phi_k) is

    p = |c|^2/2 * [ cos^2(theta/2) cos^2(theta_k/2)
                    + sin^2(theta/2) sin^2(theta_k/2)
                    - 2 nu |cos(theta/2) cos(theta_k/2)
                            sin(theta/2) sin(theta_k/2)| cos(phi_k - phi) ]

(the absolute-value bars are inert for angles in [0, pi] and are kept as a
matter of record).  In this convention matching polarizations are
correlated; the first-principles Born-rule engine below uses the singlet
directly and therefore agrees after relabeling the channel projector
theta_k -> pi - theta_k.  Tests pin that equivalence.

A source path delay delta lowers the visibility to nu0 exp(-(delta/l_c)^2)
for a coherence length l_c; :func:`hom_curve` scans it over +-HOM_SPAN l_c.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .polarization import PoincareState, Projector, amplitude_vector

HOM_SPAN = 5.0  # half-width of a delay scan, in coherence lengths


class UndefinedContrastError(ValueError):
    """Raised when the interference contrast denominator vanishes."""


def _check_visibility(nu: float, name: str = "nu") -> float:
    nu = float(nu)
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {nu}")
    return nu


def _half_trig(theta):
    """(cos(theta/2), sin(theta/2)) elementwise, with exact values at the poles.

    cos(0), sin(0) and sin(pi/2) are exact, but ``cos(pi/2)`` rounds to ~6e-17,
    which would make genuinely degenerate rate denominators nonzero; it is
    zeroed (theta lies in [0, pi])."""
    half = 0.5 * theta
    return np.cos(half) * (theta != math.pi), np.sin(half)


def density_matrix(nu: float) -> np.ndarray:
    """4x4 two-photon density matrix of visibility ``nu`` in the (HH, HV, VH, VV) basis."""
    nu = _check_visibility(nu, "visibility")
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rho_ent = np.outer(singlet, singlet.conj())
    rho_sep = np.diag([0.0, 0.5, 0.5, 0.0])
    return nu * rho_ent + (1.0 - nu) * rho_sep


def joint_rates(theta_a, phi_a, theta_b, phi_b, weight_b, nu: float):
    """Coincidence probabilities of analyzer states ``(theta_a, phi_a)`` and
    channel projectors ``(weight_b, theta_b, phi_b)``, broadcast elementwise.

    With :attr:`Projector.weight` values and a checked ``nu``, every element
    equals :func:`joint_probability` bit for bit."""
    ca, sa = _half_trig(theta_a)
    cb, sb = _half_trig(theta_b)
    cross = np.abs(ca * cb * sa * sb) * np.cos(phi_b - phi_a)
    return 0.5 * weight_b * (ca * ca * cb * cb + sa * sa * sb * sb - 2.0 * nu * cross)


def joint_probability(alice: PoincareState, bob: Projector, nu: float) -> float:
    """Coincidence probability of the (alice, bob) joint projection."""
    nu = _check_visibility(nu)
    b = bob.state
    return float(joint_rates(alice.theta, alice.phi, b.theta, b.phi, bob.weight, nu))


def relabeled(bob: Projector) -> Projector:
    """Antipodal relabeling theta_k -> pi - theta_k linking the two engines."""
    return Projector(
        bob.amplitude, PoincareState(math.pi - bob.state.theta, bob.state.phi)
    )


def oracle_joint_probability(alice: PoincareState, bob: Projector, nu: float) -> float:
    """First-principles Born-rule value via explicit 4x4 density matrix.

    Builds the mixed two-photon state for visibility ``nu`` and contracts it
    with the tensor product of the two projectors.  Equals
    :func:`joint_probability` evaluated on ``relabeled(bob)``.
    """
    rho = density_matrix(nu)
    a = amplitude_vector(alice)
    b = amplitude_vector(bob.state)
    va = np.array([a.h, a.v])
    vb = np.array([b.h, b.v]) * bob.amplitude
    proj = np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
    return float(np.real(np.trace(rho @ proj)))


def contrast(alice: PoincareState, bob: Projector, nu0: float) -> float:
    """Contrast (R_0 - R_inf)/R_inf of the delay curve, from the rates at zero
    delay (visibility ``nu0``) and at infinite delay (visibility 0)."""
    nu0 = _check_visibility(nu0, "nu0")
    b = bob.state
    r0, r_inf = joint_rates(alice.theta, alice.phi, b.theta, b.phi, 1.0, np.array([nu0, 0.0]))
    if r_inf <= 1e-300:
        raise UndefinedContrastError(
            "contrast undefined: alice and bob are opposite poles"
        )
    return float((r0 - r_inf) / r_inf)


def hom_curve(
    alice: PoincareState,
    bob: Projector,
    coherence_length: float,
    nu0: float,
    npoints: int = 101,
) -> tuple[np.ndarray, np.ndarray]:
    """``npoints`` delays over +-HOM_SPAN l_c and the coincidence rate at each.

    Visibilities take libm's ``math.exp`` (``np.exp`` can differ in the last
    bit), so each rate equals :func:`joint_probability` at its delay."""
    nu0 = _check_visibility(nu0, "nu0")
    if not coherence_length > 0.0:
        raise ValueError(f"coherence_length must be positive, got {coherence_length}")
    if npoints < 2:
        raise ValueError(f"npoints must be >= 2, got {npoints}")
    half_width = HOM_SPAN * coherence_length
    delays = np.linspace(-half_width, half_width, npoints)
    nus = np.array([nu0 * math.exp(-x * x) for x in (delays / coherence_length).tolist()])
    b = bob.state
    return delays, joint_rates(alice.theta, alice.phi, b.theta, b.phi, bob.weight, nus)


def write_hom_csv(delays: np.ndarray, rates: np.ndarray, path: str | Path) -> None:
    """Dump a delay curve as ``delta,rate`` rows, 12 significant digits."""
    lines = ["delta,rate"]
    for d, r in zip(delays.tolist(), rates.tolist()):
        lines.append(f"{d:.12g},{r:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")
