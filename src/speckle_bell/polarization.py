"""Pure polarization-state algebra on the Poincare sphere.

Conventions used throughout the package:

* A pure state with sphere angles ``(theta, phi)`` has Jones vector
  ``cos(theta/2)|H> + exp(i*phi) sin(theta/2)|V>``.  Since
  ``cos(theta/2) >= 0`` on ``theta in [0, pi]``, the H amplitude is real
  and non-negative, which fixes the global phase.
* ``phi`` carries no physical meaning at the poles (``theta in {0, pi}``);
  :meth:`PoincareState.canonical` zeroes it there so states can be compared.
* Waveplate fast-axis angles are measured from H.  In its fast-axis frame a
  half-wave plate is ``diag(1, -1)`` and a quarter-wave plate ``diag(1, -i)``
  (retardance applied to the slow axis, global phases dropped).
* An analyzer consists of a half-wave plate, a quarter-wave plate and a
  polarizing splitter.  The state projected onto by splitter port ``p`` is
  ``HWP(alpha) QWP(beta) |p>``, i.e. the port basis state carried through the
  plate sequence.  This reproduces the anchor that HWP at 22.5 degrees with
  QWP at 0 degrees analyzes in the D/A basis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Map an angle into [0, 2*pi)."""
    out = math.fmod(angle, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    if out >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        out = 0.0
    return out


@dataclass(frozen=True)
class PoincareState:
    """Pure polarization state as Poincare-sphere angles, in radians.

    Construction normalizes ``theta`` into [0, pi] and ``phi`` into
    [0, 2*pi); a ``theta`` beyond pi is folded back as the same physical
    ray, ``(theta, phi) -> (2*pi - theta, phi + pi)``.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        theta = math.fmod(float(self.theta), TWO_PI)
        if theta < 0.0:
            theta += TWO_PI
        phi = float(self.phi)
        if theta > math.pi:
            theta = TWO_PI - theta
            phi += math.pi
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", wrap_angle(phi))

    def canonical(self) -> "PoincareState":
        """Representative with ``phi = 0`` at the poles, for equality tests."""
        if self.theta == 0.0 or self.theta == math.pi:
            return PoincareState(self.theta, 0.0)
        return self


@dataclass(frozen=True)
class AmplitudeVector:
    """Two-component Jones vector (complex H and V amplitudes)."""

    h: complex
    v: complex

    def norm_sq(self) -> float:
        return abs(self.h) ** 2 + abs(self.v) ** 2

    def inner(self, other: "AmplitudeVector") -> complex:
        """Hermitian inner product <self|other>."""
        return self.h.conjugate() * other.h + self.v.conjugate() * other.v

    def to_poincare(self) -> PoincareState:
        """Sphere angles of this vector; the global phase is discarded."""
        ah, av = abs(self.h), abs(self.v)
        if ah == 0.0 and av == 0.0:
            raise ValueError("zero amplitude vector has no polarization state")
        theta = 2.0 * math.atan2(av, ah)
        if ah == 0.0 or av == 0.0:
            phi = 0.0
        else:
            phi = wrap_angle(cmath.phase(self.v) - cmath.phase(self.h))
        return PoincareState(theta, phi)


@dataclass(frozen=True)
class Projector:
    """Weighted polarization projector: transmission amplitude plus state.

    The detection weight is ``|amplitude|**2``; an amplitude of exactly zero
    marks a dark output mode that never fires.
    """

    amplitude: complex
    state: PoincareState

    @property
    def weight(self) -> float:
        return abs(self.amplitude) ** 2


def amplitude_vector(state: PoincareState) -> AmplitudeVector:
    """Unit Jones vector (cos(theta/2), exp(i*phi) sin(theta/2))."""
    half = 0.5 * state.theta
    return AmplitudeVector(
        complex(math.cos(half), 0.0),
        cmath.exp(1j * state.phi) * math.sin(half),
    )


def overlap(a: PoincareState, b: PoincareState) -> float:
    """Projection probability |<a|b>|^2 between two pure states."""
    return abs(amplitude_vector(a).inner(amplitude_vector(b))) ** 2


def orthogonal_complement(state: PoincareState) -> PoincareState:
    """The unique state orthogonal to ``state``: (pi - theta, phi + pi)."""
    return PoincareState(math.pi - state.theta, state.phi + math.pi)


def waveplate_projection(hwp_angle: float, qwp_angle: float, detector: int) -> PoincareState:
    """State projected onto by one splitter port of the waveplate analyzer.

    The plates' fast-axis angles are in radians from H, and are wrapped into
    [0, 2*pi) first.  ``detector`` 1 is the H output of the splitter, 2 the V
    output; the two returned states are exactly orthogonal.
    """
    if detector not in (1, 2):
        raise ValueError(f"detector must be 1 or 2, got {detector!r}")
    angles = waveplate_detector1_angles(wrap_angle(hwp_angle), wrap_angle(qwp_angle))
    det1 = PoincareState(*angles)
    return det1 if detector == 1 else orthogonal_complement(det1)


def waveplate_detector1_angles(
    hwp_angles: np.ndarray, qwp_angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (theta, phi) of the detector-1 state for angle arrays.

    Closed form of the Jones product ``HWP(alpha) QWP(beta) |H>``, elementwise,
    with no matrix product; :func:`waveplate_projection` evaluates it.
    """
    al = np.asarray(hwp_angles, dtype=float)
    be = np.asarray(qwp_angles, dtype=float)
    c2a, s2a = np.cos(2.0 * al), np.sin(2.0 * al)
    cb, sb = np.cos(be), np.sin(be)
    q_h = cb * cb - 1j * sb * sb  # QWP(beta)|H> components
    q_v = (1.0 + 1.0j) * sb * cb
    h = c2a * q_h + s2a * q_v
    v = s2a * q_h - c2a * q_v
    theta = 2.0 * np.arctan2(np.abs(v), np.abs(h))
    phi = np.mod(np.angle(v) - np.angle(h), TWO_PI)
    return theta, phi


def random_alice_state(rng: np.random.Generator) -> PoincareState:
    """Detector-1 state of the analyzer at uniformly random waveplate angles.

    Draws the HWP angle, then the QWP angle, each uniform on [0, 2*pi).
    Note the resulting states are uniform in waveplate angles, not Haar
    on the sphere.
    """
    alpha = rng.uniform(0.0, TWO_PI)
    beta = rng.uniform(0.0, TWO_PI)
    return waveplate_projection(alpha, beta, 1)
