"""Disordered multimode channel model.

The channel is a Haar-random unitary over the joint (spatial x polarization)
mode space, the lossless idealization of a strongly mixing multimode fiber.
Light enters through input mode 0 alone, so every consumer reads only that
mode's (2M, 2) block, columns 0 and 1 (input H, V).  Each output spatial mode,
observed behind an H or V analyzer, realizes an effective polarization
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
        if not np.iscomplexobj(self.entries):
            object.__setattr__(self, "entries", self.entries.astype(complex))
        self.entries.setflags(write=False)

    def unitarity_residual(self) -> float:
        """Max absolute entry of T^dagger T - I."""
        n = 2 * self.m_spatial
        return float(np.max(np.abs(self.entries.conj().T @ self.entries - np.eye(n))))


# Gaussian samples are drawn in row chunks of at most 2^17 floats.
_CHUNK_FLOATS = 1 << 17


def _haar_leading(m_spatial: int, seed: int, r: int) -> np.ndarray:
    """Leading ``r`` columns of the Haar unitary of ``random_tm(m_spatial, seed)``.

    The (2M)x(2M) Gaussian stream is drawn in row chunks, real parts then
    imaginary parts, as one ``standard_normal((2M, 2M))`` call each would
    draw it, and only its leading ``r`` columns are kept.  Their QR with the
    R-diagonal phase fix gives the unitary's leading ``r`` columns, which by
    Haar invariance have the Haar column law (Mezzadri 2007).
    """
    if m_spatial < 1:
        raise ValueError(f"m_spatial must be >= 1, got {m_spatial}")
    n = 2 * m_spatial
    rng = np.random.default_rng(seed)
    rows = max(1, _CHUNK_FLOATS // n)
    parts = np.empty((2, n, r))
    for part in parts:
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            part[start:stop] = rng.standard_normal((stop - start, n))[:, :r]
    z = (parts[0] + 1j * parts[1]) / math.sqrt(2.0)
    del parts  # as large as the matrix at r = 2M; freed before the QR
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr)
    return q * (d / np.abs(d))


def random_tm(m_spatial: int, seed: int) -> TransmissionMatrix:
    """Haar-distributed (2M)x(2M) unitary, deterministic in ``seed``.

    Sampled by QR decomposition of an i.i.d. complex-Gaussian matrix with
    the R-diagonal phase correction, which makes the factorization unique
    and the distribution exactly Haar.
    """
    entries = _haar_leading(m_spatial, seed, 2 * m_spatial)
    return TransmissionMatrix(m_spatial, entries, int(seed))


@dataclass(frozen=True)
class HaarChannel:
    """The seeded channel of :func:`random_tm`, sampled only where it is read:
    :meth:`columns` gives the lit input mode's block, and the full ``entries``
    are drawn on first access."""

    m_spatial: int
    seed: int

    def columns(self) -> np.ndarray:
        """The lit input mode's read-only (2M, 2) block, columns 0 and 1 of
        ``entries``, from the QR of only the leading two Gaussian columns:
        O(M) memory instead of O(M^2)."""
        block = _haar_leading(self.m_spatial, self.seed, 2)
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

    Header ``TM v1 M=<int> seed=<uint64>`` followed by one line per entry,
    ``k p' j p re im``, in row-major order, with 17 significant digits so the
    round trip is exact.
    """
    # Each matrix row's lines are one %-template over its interleaved (re, im).
    columns = [f" {j} {p} %.17g %.17g" for j in range(tm.m_spatial) for p in "HV"]
    with open(path, "w") as f:
        f.write(f"TM v1 M={tm.m_spatial} seed={tm.seed}\n")
        for r, row in enumerate(np.ascontiguousarray(tm.entries)):
            prefix = f"{r // 2} {'HV'[r % 2]}"
            f.write(prefix + f"\n{prefix}".join(columns) % tuple(row.view(float).tolist()) + "\n")


def load_tm(path: str | Path) -> TransmissionMatrix:
    """Read a channel matrix written by :func:`save_tm`; entry lines may come
    in any order, and a malformed file raises ValueError naming ``path``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    try:
        tag, version, m_field, seed_field = lines[0].split()
        m_spatial = int(m_field.removeprefix("M="))
        seed = int(seed_field.removeprefix("seed="))
        if (tag, version) != ("TM", "v1") or m_spatial < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"{path}: bad header {lines[0]!r}") from None
    n = 2 * m_spatial
    body = lines[1:]
    if len(body) != n * n:
        raise ValueError(f"{path}: expected {n * n} entry lines, got {len(body)}")
    # Letters as "U2", not "U1", so that "HV" is rejected instead of cut to "H".
    try:
        data = np.loadtxt(body, dtype="i8,U2,i8,U2,f8,f8", comments=None, ndmin=1)
        if len(data) != len(body):  # loadtxt skips blank lines
            raise ValueError(f"{len(body) - len(data)} blank lines")
    except ValueError as exc:
        # Name the first file line that is not "int str int str float float".
        for i, line in enumerate(body):
            try:
                k, _, j, _, x, y = line.split()
                int(k), int(j), float(x), float(y)
            except ValueError:
                raise ValueError(f"{path}:{i + 2}: malformed entry line: {line!r}") from None
        raise ValueError(f"{path}: {exc}") from None
    k, p_out, j, p_in, re, im = (data[name] for name in data.dtype.names)
    valid = (np.isin(p_out, ("H", "V")) & np.isin(p_in, ("H", "V"))
             & (0 <= k) & (k < m_spatial) & (0 <= j) & (j < m_spatial))
    if not valid.all():
        bad = int(np.argmin(valid))  # no blank lines, so line bad + 2 of the file
        raise ValueError(f"{path}:{bad + 2}: mode or polarization out of range: {body[bad]!r}")
    rows, cols = 2 * k + (p_out == "V"), 2 * j + (p_in == "V")
    seen = np.zeros((n, n), dtype=bool)
    seen[rows, cols] = True
    if not seen.all():
        raise ValueError(f"{path}: {int((~seen).sum())} entries missing")
    entries = np.zeros((n, n), dtype=complex)
    # Parts assigned separately: re + 1j*im would turn a -0.0 real part into +0.0.
    entries.real[rows, cols] = re
    entries.imag[rows, cols] = im
    return TransmissionMatrix(m_spatial, entries, seed)


def write_speckle_csv(intensity: np.ndarray, path: str | Path) -> None:
    """Dump :func:`speckle_intensity` output as ``k,intensity_h,intensity_v`` rows."""
    lines = ["k,intensity_h,intensity_v"]
    for k, (ih, iv) in enumerate(intensity.tolist()):
        lines.append(f"{k},{ih:.12g},{iv:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")
