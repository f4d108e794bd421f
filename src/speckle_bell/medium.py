"""Disordered multimode channel model.

The channel is a Haar-random unitary over the joint (spatial x polarization)
mode space, the lossless idealization of a strongly mixing multimode fiber.
Light enters through input mode 0 alone, so every consumer but the matrix
dump reads only that mode's (2M, 2) block, columns 0 and 1 (input H, V),
sampled in O(M); the full matrix is its QR completion.  Each output spatial
mode, observed behind an H or V analyzer, realizes an effective polarization
projector on it, whose parameters follow directly from the block's row.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .polarization import AmplitudeVector, PoincareState, Projector

POL_H, POL_V = 0, 1


@dataclass(frozen=True)
class TransmissionMatrix:
    """Complex (2M)x(2M) channel matrix over (spatial mode, polarization).

    Row index is ``2*k + p_out`` and column index ``2*b + p_in`` with
    H = 0, V = 1.  Matrices built by :func:`random_tm` are unitary.
    """

    m_spatial: int
    entries: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self) -> None:
        n = 2 * self.m_spatial
        if self.entries.shape != (n, n):
            raise ValueError(
                f"entries must have shape ({n}, {n}), got {self.entries.shape}"
            )
        self.entries.setflags(write=False)

    def unitarity_residual(self) -> float:
        """Max absolute entry of T^dagger T - I."""
        n = 2 * self.m_spatial
        return float(np.max(np.abs(self.entries.conj().T @ self.entries - np.eye(n))))


def _haar_block(m_spatial: int, rng: np.random.Generator) -> np.ndarray:
    """Two Haar-distributed orthonormal columns in C^(2M), as a (2M, 2) array:
    Gram-Schmidt of a complex-Gaussian block, which is its QR with R's diagonal
    real positive (Mezzadri 2007, arXiv:math-ph/0609050).  Only elementwise
    float64 arithmetic and ``np.sum`` are used, so the bits do not depend on
    the BLAS library, its CPU kernel or its thread count."""
    if m_spatial < 1:
        raise ValueError(f"m_spatial must be >= 1, got {m_spatial}")
    gauss = rng.standard_normal((2, 2 * m_spatial, 2)) / math.sqrt(2.0)
    (x1, x2), (y1, y2) = gauss.transpose(0, 2, 1)  # z_j = x_j + i y_j
    norm = math.sqrt(np.sum(x1 * x1 + y1 * y1))
    x1, y1 = x1 / norm, y1 / norm
    # v = z2 - (q1^H z2) q1
    c_re, c_im = np.sum(x1 * x2 + y1 * y2), np.sum(x1 * y2 - y1 * x2)
    x2, y2 = x2 - (c_re * x1 - c_im * y1), y2 - (c_re * y1 + c_im * x1)
    norm = math.sqrt(np.sum(x2 * x2 + y2 * y2))
    return np.stack([x1, y1, x2 / norm, y2 / norm], axis=1).view(complex)


def random_tm(m_spatial: int, seed: int) -> TransmissionMatrix:
    """Haar-distributed (2M)x(2M) unitary, deterministic in ``seed``.

    Columns 0 and 1 are :func:`_haar_block` of the seed's generator, bit for
    bit; the others come from the QR, with the R-diagonal phase fix, of
    ``[block | G]`` for a (2M)x(2M-2) complex Gaussian ``G`` drawn next:
    Gram-Schmidt of Gaussians on the block's complement, so the matrix is Haar.
    """
    rng = np.random.default_rng(seed)
    block = _haar_block(m_spatial, rng)
    n = 2 * m_spatial
    # G's real parts are drawn first; its scale does not change Q.  Freeing g
    # before the QR and scaling q out of place keep tm's peak RSS at the old
    # full-stream sampler's (in place, glibc's heap held about 3 MB more).
    g = rng.standard_normal((2, n, n - 2))
    z = np.empty((n, n), dtype=complex)
    z[:, :2] = block
    z[:, 2:] = g[0] + 1j * g[1]
    del g
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    q[:, :2] = block
    return TransmissionMatrix(m_spatial, q, int(seed))


@dataclass(frozen=True)
class HaarChannel:
    """The seeded channel of :func:`random_tm`, sampled only where it is read:
    :meth:`columns` gives the lit input mode's block in O(M), and the full
    ``entries`` (its QR completion) are built on first access."""

    m_spatial: int
    seed: int

    def columns(self) -> np.ndarray:
        """The lit input mode's read-only (2M, 2) block, columns 0 and 1 of
        ``entries`` bit for bit, without building the other columns."""
        block = _haar_block(self.m_spatial, np.random.default_rng(self.seed))
        block.setflags(write=False)
        return block

    @cached_property
    def entries(self) -> np.ndarray:
        """The full (2M)x(2M) matrix, ``random_tm(m_spatial, seed).entries``."""
        return random_tm(self.m_spatial, self.seed).entries


def _projector(coefficients: np.ndarray) -> Projector:
    """Effective polarization projector of one output row of the input-mode block.

    For coefficients ``t_h`` (from input H) and ``t_v`` (from input V) into
    that output, the state is the Jones vector ``(t_h, t_v)`` on the sphere
    (:meth:`AmplitudeVector.to_poincare`), and the amplitude ``c`` has
    ``|c| = sqrt(|t_h|^2 + |t_v|^2)`` and ``arg c = arg t_h`` (``arg t_v``
    when ``t_h`` is zero).  If both vanish the projector is dark.
    """
    t_h, t_v = complex(coefficients[0]), complex(coefficients[1])
    if t_h == 0 and t_v == 0:
        return Projector(0j, PoincareState(0.0, 0.0))
    magnitude = math.hypot(abs(t_h), abs(t_v))
    phase = cmath.phase(t_h if t_h else t_v)
    return Projector(cmath.rect(magnitude, phase), AmplitudeVector(t_h, t_v).to_poincare())


def bob_projector_set(block: np.ndarray, positions: list[int]) -> list[Projector]:
    """Projectors for every (position, detector) pair of the (2M, 2) input-mode
    ``block``, position-major, H first."""
    m_spatial = len(block) // 2
    if not positions:
        raise ValueError("positions must be non-empty")
    if len(set(positions)) != len(positions):
        raise ValueError(f"duplicate positions in {positions}")
    if not all(0 <= k < m_spatial for k in positions):
        raise ValueError(f"positions {positions} out of range [0, {m_spatial})")
    return [_projector(block[2 * k + pol]) for k in positions for pol in (POL_H, POL_V)]


def speckle_intensity(block: np.ndarray, input_vector: AmplitudeVector) -> np.ndarray:
    """Read-only (M, 2) output intensities, behind the H then the V analyzer,
    of a unit-norm input state in the lit mode, whose block is ``block``."""
    if abs(input_vector.norm_sq() - 1.0) > 1e-9:
        raise ValueError("input amplitude vector must be unit-norm")
    out = block[:, 0] * input_vector.h + block[:, 1] * input_vector.v
    intensity = (np.abs(out) ** 2).reshape(-1, 2)
    intensity.setflags(write=False)
    return intensity


def save_tm(tm: TransmissionMatrix | HaarChannel, path: str | Path) -> None:
    """Write the channel matrix in the plain-text interchange format.

    Header ``TM v2 M=<int> seed=<uint64>`` followed by one line per matrix
    row, in row order: the real and then the imaginary part of every entry,
    in column order, with 17 significant digits so the round trip is exact.
    """
    template = " ".join(["%.17g"] * 4 * tm.m_spatial) + "\n"
    with open(path, "w") as f:
        f.write(f"TM v2 M={tm.m_spatial} seed={tm.seed}\n")
        for row in np.ascontiguousarray(tm.entries):
            f.write(template % tuple(row.view(float).tolist()))


def load_tm(path: str | Path) -> TransmissionMatrix:
    """Read a channel matrix written by :func:`save_tm`.  A malformed file
    raises ValueError naming ``path``, and a bad row names ``path:<line>``."""
    with open(path) as f:
        header = f.readline()
        try:
            tag, version, m_field, seed_field = header.split()
            m_spatial = int(m_field.removeprefix("M="))
            seed = int(seed_field.removeprefix("seed="))
            if (tag, version) != ("TM", "v2") or m_spatial < 1:
                raise ValueError
            n = 2 * m_spatial
            parts = np.empty((n, 2 * n))  # (re, im) of each entry, row by row
        except (ValueError, MemoryError):  # also an M too large to allocate
            raise ValueError(f"{path}: bad header {header.rstrip()!r}") from None
        for r in range(n):
            try:  # reshape rejects a row of the wrong length; assignment would broadcast it
                parts[r] = np.array(f.readline().split(), dtype=float).reshape(2 * n)
            except ValueError:
                raise ValueError(f"{path}:{r + 2}: row {r} is not {2 * n} numbers") from None
        if f.readline():
            raise ValueError(f"{path}:{n + 2}: more than {n} rows")
    return TransmissionMatrix(m_spatial, parts.view(complex), seed)


def write_speckle_csv(intensity: np.ndarray, path: str | Path) -> None:
    """Dump :func:`speckle_intensity` output as ``k,intensity_h,intensity_v`` rows."""
    lines = ["k,intensity_h,intensity_v"]
    for k, (ih, iv) in enumerate(intensity.tolist()):
        lines.append(f"{k},{ih:.12g},{iv:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")
