"""Counting statistics: Poisson counts, per-basis E and variance for noisy
enumerations over one count array, certification folded over S tiles, and
histograms on bins from 0 with 2 as an edge, mostly from one lattice of
per-basis sums; :func:`e_with_sigma` and :func:`s_with_sigma` are their oracles.

The detected-count error model follows standard shot-noise practice: each
count n carries sigma = sqrt(n) and the variances of the four correlations in
one S add as if they used disjoint data, which is false on the K = K'
diagonal: there S = |2 E(A, B_K)| and the variance is understated (ROADMAP
item 2, "Sound certification, with its power measured").  sqrt(n) also gives
sigma = 0 for empty cells, which understates the true uncertainty; the rule
is kept for fidelity with how coincidence experiments are usually analyzed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import chsh
from .chsh import (
    MeasurementBasis,
    SEnumeration,
    SRecord,
    UndefinedCorrelationError,
    basis_cells,
    cell_correlations,
    rate_matrix,
    restrict_to_defined,
)
from .polarization import Projector

# The S histogram's bins: S lies in [0, 4], and the bins cover [0, 3) in steps
# of 0.05 with one overflow bin above.  srecords.csv keeps every S for others.
# 2 is the lower edge of bin _BIN_2.
HIST_BIN_WIDTH, HIST_NBINS = 0.05, 60
_BIN_2 = round(2 / HIST_BIN_WIDTH)

# separable_counts bins a row from its S when it holds a pair this close to a bin
# edge, 2 among them, in bin units.
_EDGE_GUARD = 1e-9


@dataclass(frozen=True)
class AcquisitionConfig:
    """Count-rate model: expected counts per unit joint probability, and a seed."""

    count_scale: float
    seed: int


@dataclass(frozen=True)
class CertificationReport:
    """Summary of an S-value ensemble against the classical threshold."""

    total: int
    above_2: int
    above_2_by_5sigma: int
    max_s: float
    max_s_sigma: float
    skipped: int

    def __post_init__(self) -> None:
        if not 0 <= self.above_2_by_5sigma <= self.above_2 <= self.total:
            raise ValueError("counter ordering violated")

    def to_dict(self) -> dict:
        return asdict(self)


def record_stream(seed: int, *index: int) -> np.random.Generator:
    """Independent, reproducible random stream for (seed, index...)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(i) for i in index)))


def sample_counts(
    expected_rates: Sequence[float],
    cfg: AcquisitionConfig,
    stream: np.random.Generator,
) -> tuple[int, int, int, int]:
    """Poisson counts (n11, n12, n21, n22) for the four joint rates of one basis pair."""
    rates = [float(r) for r in expected_rates]
    if len(rates) != 4:
        raise ValueError(f"expected 4 rates, got {len(rates)}")
    if any(r < 0 for r in rates):
        raise ValueError(f"rates must be non-negative, got {rates}")
    means = [r * cfg.count_scale for r in rates]
    return tuple(int(c) for c in stream.poisson(means))


def e_with_sigma(counts: Sequence[int]) -> tuple[float, float]:
    """Correlation value from the counts (n11, n12, n21, n22) of one basis pair,
    with first-order Poisson error: the scalar oracle of :func:`noisy_enumerate`,
    in float64 and in its arithmetic order.

    For the symmetric case (n, n, n, n) the propagated error reduces to
    1/(2 sqrt(n)).
    """
    n11, n12, n21, n22 = map(float, counts)
    total = ((n11 + n12) + n21) + n22
    if total <= 0:
        raise UndefinedCorrelationError("all four counts are zero")
    num = ((n11 - n12) - n21) + n22
    d_same = (total - num) / (total * total)  # partial for the + counts
    d_cross = (total + num) / (total * total)  # |partial| for the - counts
    var = d_same * d_same * (n11 + n22) + d_cross * d_cross * (n12 + n21)
    return num / total, math.sqrt(var)


def s_with_sigma(counts: Sequence[Sequence[int]]) -> SRecord:
    """S and its propagated error from the four count 4-tuples of one quadruple.

    Count order is (A,B_K), (A',B_K), (A,B_K'), (A',B_K'); the last enters
    with a minus sign.  The four correlations use disjoint counts and are
    treated as independent.
    """
    (e1, g1), (e2, g2), (e3, g3), (e4, g4) = map(e_with_sigma, counts)
    s = abs(((e1 + e2) + e3) - e4)
    sigma = math.sqrt(((g1 * g1 + g2 * g2) + g3 * g3) + g4 * g4)
    return SRecord(s, sigma)


def noisy_enumerate(
    alice_pair: tuple[MeasurementBasis, MeasurementBasis],
    bob_projectors: list[Projector],
    nu: float,
    cfg: AcquisitionConfig,
) -> SEnumeration:
    """:func:`chsh.enumerate_s` from simulated counts: per-basis E and variance.

    The counts of each (Alice basis, Bob basis) pair are drawn from the stream
    (cfg.seed, alice index, basis index) and reused for every (K, K') that
    holds the basis, as per-setting acquisitions are when many S values come
    from one data set.  E is :func:`chsh.cell_correlations` of the (2, 4, B)
    count array, and the variance :func:`e_with_sigma`'s, cell by cell.
    """
    means = basis_cells(rate_matrix(alice_pair, bob_projectors, nu)) * cfg.count_scale
    counts = np.empty_like(means)  # float64: a basis total may exceed int64
    for a_idx, k in np.ndindex(2, means.shape[-1]):
        counts[a_idx, :, k] = record_stream(cfg.seed, a_idx, k).poisson(means[a_idx, :, k])
    n11, n12, n21, n22 = counts.transpose(1, 0, 2)
    total = ((n11 + n12) + n21) + n22
    num = ((n11 - n12) - n21) + n22
    with np.errstate(divide="ignore", invalid="ignore"):  # all-zero cells: E is NaN
        d_same = (total - num) / (total * total)
        d_cross = (total + num) / (total * total)
    var = d_same * d_same * (n11 + n22) + d_cross * d_cross * (n12 + n21)
    # Callers square the oracle's sigma = sqrt(var), and sqrt(var)**2 may differ from var.
    return restrict_to_defined(alice_pair, cell_correlations(counts), np.sqrt(var) ** 2)


def certify(records: Sequence[SRecord], skipped: int = 0) -> CertificationReport:
    """Count classical-threshold exceedances and 5-sigma-significant ones."""
    above = 0
    above5 = 0
    max_s = 0.0
    max_sigma = 0.0
    for r in records:
        if r.s > max_s:
            max_s = r.s
            max_sigma = r.sigma
        if r.s > 2.0:
            above += 1
            if r.sigma > 0.0 and (r.s - 2.0) / r.sigma > 5.0:
                above5 += 1
    return CertificationReport(len(records), above, above5, max_s, max_sigma, int(skipped))


def certify_arrays(
    tiles: Iterable[tuple[np.ndarray, np.ndarray]], skipped: int = 0
) -> CertificationReport:
    """:func:`certify` over aligned (S, sigma) tiles taken in order, each in
    row-major order, such as :func:`chsh.s_tiles`: ``max_s`` is the first
    maximal S, and both maxima read 0 unless some S > 0."""
    total = above = above5 = 0
    max_s, max_sigma = 0.0, 0.0
    for s, sigma in tiles:
        if s.size:
            top = np.unravel_index(np.argmax(s), s.shape)
            if s[top] > max_s:
                max_s, max_sigma = float(s[top]), float(sigma[top])
        high = s > 2.0
        resolved = high & (sigma > 0.0)
        above5 += np.count_nonzero((s[resolved] - 2.0) / sigma[resolved] > 5.0)
        above += np.count_nonzero(high)
        total += s.size
    return CertificationReport(total, int(above), int(above5), max_s, max_sigma, int(skipped))


def histogram(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Histogram as one int count vector of length HIST_NBINS + 2: underflow,
    the bins from 0 up, overflow.

    A value v goes to bin floor(v / HIST_BIN_WIDTH) computed in float64, so
    a value on a printed edge may land in the bin below it: 0.15 / 0.05 is
    2.9999999999999996, and S = 0.15 counts in [0.1, 0.15).  The counts
    always sum to the input size.
    """
    vals = np.ravel(np.asarray(values, dtype=float))
    if np.isnan(vals).any():
        raise ValueError("histogram input contains NaN")
    idx = vals / HIST_BIN_WIDTH
    np.floor(idx, out=idx)
    np.clip(idx, -1, HIST_NBINS, out=idx)
    np.add(idx, 1, out=idx)
    return np.bincount(idx.astype(np.intp), minlength=HIST_NBINS + 2)


def separable_counts(e: np.ndarray) -> tuple[np.ndarray, int]:
    """:func:`histogram` counts and the number of S above 2 over every (K, K')
    of a (2, D) per-basis E, in O(D log D + 82 D) from x = E_A + E_A' and
    y = E_A - E_A': S(K, K') = |x_K + y_K'| to a few ulps of
    :func:`chsh.s_combination`.  With p = x / w and q = y / w, one lattice
    counts the signed bins b = floor(p_K) + floor(q_K') + [frac p_K +
    frac q_K' >= 1]: with K' sorted by frac q, one searchsorted per row K
    splits off its carries.  Signed bin b >= 0 is S bin b, b < 0 is S bin
    -b - 1, and the S above 2 are those in bins _BIN_2 and up.  A row K that
    holds a frac p_K + frac q_K' within _EDGE_GUARD of 0, 1 or 2, where
    x_K + y_K' is that close to a bin edge and the ulps may decide its bin or
    its side of 2, is binned from its S instead, ``chsh._S_TILE_ROWS`` such
    rows at a time."""
    x, y = e[0] + e[1], e[0] - e[1]
    if not x.size:
        return np.zeros(HIST_NBINS + 2, np.intp), 0
    p, q = x / HIST_BIN_WIDTH, y / HIST_BIN_WIDTH
    fp, fq = np.floor(p), np.floor(q)
    rp, rq = p - fp, q - fq
    order = np.argsort(rq)
    c, eps = 1 - rp, _EDGE_GUARD
    lo, t, hi, zero, top = np.searchsorted(rq[order], [c - eps, c, c + eps, eps - rp, c + 1 - eps])
    exact = (zero > 0) | (lo != hi) | (top < y.size)
    g = (fq - fq.min()).astype(np.intp)[order]
    # cum[i, j]: the K' among the i of smallest frac q with floor(q) = fq.min() + j
    cum = np.zeros((y.size + 1, g.max() + 1), np.intp)
    np.cumsum(g[:, None] == np.arange(g.max() + 1), axis=0, out=cum[1:])
    rows = np.flatnonzero(~exact)
    rows = rows[np.argsort(fp[rows])]  # unguarded rows K grouped by floor(p)
    f = fp[rows]
    starts = np.flatnonzero(np.diff(f, prepend=-np.inf))
    no_carry = np.add.reduceat(cum[t[rows]], starts, axis=0)
    carry = np.diff(starts, append=rows.size)[:, None] * cum[-1] - no_carry
    bins = f[starts, None] + (fq.min() + np.arange(cum.shape[1]))
    b = np.array([bins, bins + 1])  # signed bins of the no-carry and carry pairs
    idx = np.minimum(np.where(b < 0, -b - 1, b), HIST_NBINS).astype(np.intp) + 1
    counts = np.bincount(idx.ravel(), np.ravel([no_carry, carry]), HIST_NBINS + 2).astype(np.intp)
    above = int(counts[_BIN_2 + 1:].sum())
    rows = np.flatnonzero(exact)
    for start in range(0, rows.size, chsh._S_TILE_ROWS):
        s = chsh.s_combination(e[0], e[1], rows[start:start + chsh._S_TILE_ROWS])
        counts += histogram(s)
        above += int(np.count_nonzero(s > 2.0))  # S = 2 is in bin _BIN_2
    return counts, above


def write_histogram_csv(counts: np.ndarray, path: str | Path) -> None:
    """Dump the count vector of a :func:`histogram` (or a mean of several) as
    ``bin_lo,bin_hi,count`` rows."""
    counts = np.asarray(counts).tolist()
    lows = [i * HIST_BIN_WIDTH for i in range(len(counts) - 1)]  # bins, overflow
    edges = [(-math.inf, 0), *zip(lows, lows[1:]), (lows[-1], math.inf)]
    lines = ["bin_lo,bin_hi,count"]
    lines += [f"{a:.12g},{b:.12g},{c:.12g}" for (a, b), c in zip(edges, counts)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(report: CertificationReport, path: str | Path) -> None:
    """Serialize a certification report as a flat six-field JSON object."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
