"""CHSH machinery: correlation values, S-parameters and the enumeration core.

A measurement basis pairs two projectors.  Alice's bases are orthogonal by
construction (the two ports of her analyzer); Bob's pair arbitrary channel
projectors and are generally non-orthogonal, which is fine because the
correlation value is a ratio of the four raw coincidence rates and needs no
further normalization.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .polarization import (
    TWO_PI,
    PoincareState,
    Projector,
    orthogonal_complement,
    waveplate_detector1_angles,
)
from .pairsource import _check_visibility, joint_probability, joint_rates

TSIRELSON = 2.0 * math.sqrt(2.0)

# Correlation denominators at or below this are treated as undefined
# (e.g. a basis made of two dark projectors).
DENOMINATOR_EPS = 1e-300

_SEARCH_CHUNK = 50_000

# Rows of S per tile when S is streamed (about 220 KB of float64 at B = 435).
_S_TILE_ROWS = 64


class UndefinedCorrelationError(ValueError):
    """Raised when all four joint rates of a basis pair vanish."""


@dataclass(frozen=True)
class MeasurementBasis:
    """Two projectors treated as the outcomes of one measurement setting."""

    first: Projector
    second: Projector
    label: int | str

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError("basis projectors must be distinct")


@dataclass(frozen=True)
class CorrelationValue:
    """Correlation E of a basis pair."""

    e: float


@dataclass(frozen=True)
class SRecord:
    """One CHSH evaluation: S and its standard deviation."""

    s: float
    sigma: float


@dataclass(frozen=True, eq=False)
class SEnumeration:
    """Per-basis E of one Alice pair: column i of the (2, D) ``e`` holds
    E(A, B_K) and E(A', B_K) for the defined Bob basis K = labels[i], 1-based,
    and ``var`` their variances, None when noiseless.  :func:`s_tiles` gives S
    and sigma of every (K, K'), K-major; ``skipped`` counts the other pairs."""

    labels: np.ndarray
    e: np.ndarray
    var: np.ndarray | None
    alice_labels: tuple
    skipped: int = 0


def alice_basis(state: PoincareState, label: int | str = "A") -> MeasurementBasis:
    """Unit-weight orthogonal basis from one analyzer state."""
    return MeasurementBasis(
        Projector(1.0 + 0.0j, state),
        Projector(1.0 + 0.0j, orthogonal_complement(state)),
        label,
    )


def build_bob_bases(projectors: list[Projector]) -> list[MeasurementBasis]:
    """All unordered projector pairs as bases, labeled 1..N(N-1)/2."""
    if len(projectors) < 2:
        raise ValueError("need at least 2 projectors to form a basis")
    bases = []
    label = 1
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            bases.append(MeasurementBasis(projectors[i], projectors[j], label))
            label += 1
    return bases


def correlation(
    a_basis: MeasurementBasis, b_basis: MeasurementBasis, nu: float
) -> CorrelationValue:
    """Correlation value E from the four raw joint rates of a basis pair."""
    r11 = joint_probability(a_basis.first.state, b_basis.first, nu)
    r12 = joint_probability(a_basis.first.state, b_basis.second, nu)
    r21 = joint_probability(a_basis.second.state, b_basis.first, nu)
    r22 = joint_probability(a_basis.second.state, b_basis.second, nu)
    den = ((r11 + r12) + r21) + r22
    if den <= DENOMINATOR_EPS:
        raise UndefinedCorrelationError(
            f"all four joint rates vanish for bases {a_basis.label!r}, {b_basis.label!r}"
        )
    num = ((r11 - r12) - r21) + r22
    return CorrelationValue(num / den)


def s_value(
    a: MeasurementBasis,
    a_prime: MeasurementBasis,
    b_k: MeasurementBasis,
    b_kprime: MeasurementBasis,
    nu: float,
) -> SRecord:
    """Noiseless S for one setting quadruple."""
    e1 = correlation(a, b_k, nu).e
    e2 = correlation(a_prime, b_k, nu).e
    e3 = correlation(a, b_kprime, nu).e
    e4 = correlation(a_prime, b_kprime, nu).e
    s = abs(((e1 + e2) + e3) - e4)
    return SRecord(s, 0.0)


def rate_matrix(
    alice_pair: tuple[MeasurementBasis, MeasurementBasis],
    bob_projectors: list[Projector],
    nu: float,
) -> np.ndarray:
    """Joint rates, shape (4, N): rows are A1, A2, A'1, A'2 outcomes."""
    nu = _check_visibility(nu)
    a, ap = alice_pair
    alice = [a.first.state, a.second.state, ap.first.state, ap.second.state]
    bob = [p.state for p in bob_projectors]
    return joint_rates(
        np.array([[st.theta] for st in alice]), np.array([[st.phi] for st in alice]),
        np.array([st.theta for st in bob]), np.array([st.phi for st in bob]),
        np.array([p.weight for p in bob_projectors]), nu,
    )


def basis_cells(rates: np.ndarray) -> np.ndarray:
    """Rates (r11, r12, r21, r22) of every (Alice basis, Bob basis) pair, shape
    (2, 4, B), from a :func:`rate_matrix`; Bob bases in label order."""
    if rates.shape[1] < 2:
        raise ValueError("need at least 2 projectors to enumerate S values")
    pairs = np.stack(np.triu_indices(rates.shape[1], 1))
    return rates.reshape(2, 2, -1)[:, :, pairs].reshape(2, 4, -1)


def cell_correlations(cells: np.ndarray) -> np.ndarray:
    """E from (..., 4, B) cells, in :func:`correlation`'s arithmetic order, so
    results are bit-identical; undefined E is NaN."""
    r11, r12, r21, r22 = np.moveaxis(cells, -2, 0)
    den = ((r11 + r12) + r21) + r22
    num = ((r11 - r12) - r21) + r22
    e = np.full(den.shape, np.nan)
    np.divide(num, den, out=e, where=den > DENOMINATOR_EPS)
    return e


def s_combination(
    e_a: np.ndarray, e_ap: np.ndarray, rows: slice = slice(None), out: np.ndarray | None = None
) -> np.ndarray:
    """|E(A,B_K) + E(A',B_K) + E(A,B_K') - E(A',B_K')| for K in ``rows`` and
    every K', in :func:`s_value`'s arithmetic order, from per-basis E of A
    and A'; written into ``out`` when it is given."""
    s = np.add((e_a[rows] + e_ap[rows])[:, None], e_a[None, :], out=out)
    np.subtract(s, e_ap[None, :], out=s)
    return np.abs(s, out=s)


def s_tiles(enumeration: SEnumeration) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Aligned (S, sigma) tiles of ``_S_TILE_ROWS`` rows K by every K'.  S is
    :func:`s_combination`, sigma the root of the four variances summed in its
    order, or a read-only zero view when noiseless.  Tiles share buffers, so
    a tile is valid only until the next one is drawn."""
    (e_a, e_ap), var, n = enumeration.e, enumeration.var, enumeration.labels.size
    s_buf = np.empty((min(_S_TILE_ROWS, n), n))
    sigma_buf = np.broadcast_to(0.0, s_buf.shape) if var is None else np.empty_like(s_buf)
    for start in range(0, n, _S_TILE_ROWS):
        rows = slice(start, min(start + _S_TILE_ROWS, n))
        s = s_combination(e_a, e_ap, rows, s_buf[: rows.stop - start])
        sigma = sigma_buf[: len(s)]
        if var is not None:
            np.add((var[0, rows] + var[1, rows])[:, None], var[0], out=sigma)
            np.sqrt(np.add(sigma, var[1], out=sigma), out=sigma)
        yield s, sigma


def s_grid(
    alice_pair: tuple[MeasurementBasis, MeasurementBasis],
    bob_projectors: list[Projector],
    nu: float,
) -> tuple[np.ndarray, np.ndarray]:
    """S over all ordered basis pairs (K, K') as a (B, B) array.

    Also returns the per-basis defined mask; rows/columns of undefined
    bases are NaN.  Entry orderings and arithmetic match :func:`s_value`.
    """
    e = cell_correlations(basis_cells(rate_matrix(alice_pair, bob_projectors, nu)))
    return s_combination(e[0], e[1]), ~np.isnan(e).any(0)


def restrict_to_defined(alice_pair, e: np.ndarray, var) -> SEnumeration:
    """The :class:`SEnumeration` over the bases whose (2, B) per-basis E is
    defined (not NaN), with their variances (None when noiseless)."""
    keep = np.flatnonzero(~np.isnan(e).any(0))
    var = None if var is None else var[:, keep]
    a, ap = alice_pair
    skipped = e.shape[1] ** 2 - keep.size**2
    return SEnumeration(keep + 1, e[:, keep], var, (a.label, ap.label), skipped)


def enumerate_s(
    alice_pair: tuple[MeasurementBasis, MeasurementBasis],
    bob_projectors: list[Projector],
    nu: float,
) -> SEnumeration:
    """Exact per-basis E, so S for every ordered pair of Bob bases, including
    K = K', with sigma 0.  Bases with an undefined E (dark-projector bases)
    are dropped, and their pairs counted as skipped."""
    e = cell_correlations(basis_cells(rate_matrix(alice_pair, bob_projectors, nu)))
    return restrict_to_defined(alice_pair, e, None)


def _with_complements(theta: np.ndarray, phi: np.ndarray):
    """Outcome states of unit-weight bases: each state, then its complement."""
    return np.stack((theta, np.pi - theta), -2), np.stack((phi, phi + np.pi), -2)


def max_violation_search(nu: float, trials: int, seed: int) -> float:
    """Brute-force search for the largest S over random setting quadruples.

    Each trial draws Alice's two bases from random waveplate angles and two
    Bob bases, each a uniformly random state paired with its orthogonal
    complement at unit weight.  Returns the largest S.
    """
    _check_visibility(nu)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)

    best_s = -1.0
    done = 0
    while done < trials:
        n = min(_SEARCH_CHUNK, trials - done)
        hwp, qwp = rng.uniform(0.0, TWO_PI, (2, 2, n))
        th_a, ph_a = _with_complements(*waveplate_detector1_angles(hwp, qwp))
        th_b, ph_b = _with_complements(
            rng.uniform(0.0, math.pi, (2, n)), rng.uniform(0.0, TWO_PI, (2, n))
        )
        # cells [A or A', B_K or B_K', 4, n]
        cells = joint_rates(
            th_a[:, None, :, None], ph_a[:, None, :, None],
            th_b[None, :, None], ph_b[None, :, None], 1.0, nu,
        ).reshape(2, 2, 4, n)
        e = cell_correlations(cells)
        best_s = max(best_s, float(s_combination(e[0], e[1])[0, 1].max()))
        done += n
    return best_s


def write_srecords_csv(enumeration: SEnumeration, path: str | Path) -> None:
    """Dump an enumeration as ``k,kprime,aliceA,aliceAprime,s,sigma`` rows, tile by tile."""
    labels = list(map(str, enumeration.labels.tolist()))
    alice = ",".join(map(str, enumeration.alice_labels))
    settings = (f"{k},{kp},{alice}," for k in labels for kp in labels)  # K-major
    with open(path, "w") as f:
        f.write("k,kprime,aliceA,aliceAprime,s,sigma\n")
        for s, sigma in s_tiles(enumeration):
            rows = zip(islice(settings, s.size), s.ravel().tolist(), sigma.ravel().tolist())
            f.write("".join([f"{setting}{a:.12g},{b:.12g}\n" for setting, a, b in rows]))
