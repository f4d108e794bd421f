"""Counting statistics: Poisson coincidence counts, uncertainty propagation,
violation certification and histogramming.

The detected-count error model follows standard shot-noise practice: each
count n carries sigma = sqrt(n) and the variances of the four correlations in
one S add as if they used disjoint data, which is false on the K = K'
diagonal: there S = |2 E(A, B_K)| and the variance is understated (ROADMAP,
"Make certification sound at every count level").  sqrt(n) also gives
sigma = 0 for empty cells, which understates the true uncertainty; the rule
is kept for fidelity with how coincidence experiments are usually analyzed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .chsh import (
    MeasurementBasis,
    SEnumeration,
    SRecord,
    UndefinedCorrelationError,
    basis_cells,
    rate_matrix,
    restrict_to_defined,
    s_combination,
)
from .polarization import Projector


@dataclass(frozen=True)
class AcquisitionConfig:
    """Count-rate model: source pairs/s, seconds per setting, arm efficiency."""

    pair_rate: float = 500.0
    integration_time: float = 240.0
    efficiency: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.pair_rate > 0:
            raise ValueError(f"pair_rate must be positive, got {self.pair_rate}")
        if not self.integration_time > 0:
            raise ValueError(
                f"integration_time must be positive, got {self.integration_time}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        # A cell's Poisson mean is at most count_scale / 2; numpy's limit is about 9.2e18.
        if not self.count_scale <= 1e19:
            raise ValueError(
                f"pair_rate * efficiency**2 * integration_time must be at most 1e19, "
                f"got {self.count_scale:g}"
            )

    @property
    def count_scale(self) -> float:
        """Expected counts per unit joint probability (coincidence window)."""
        return self.pair_rate * self.efficiency**2 * self.integration_time


@dataclass(frozen=True)
class CountRecord:
    """Measured coincidence counts (n11, n12, n21, n22) for one basis pair."""

    counts: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"counts must be non-negative, got {counts}")
        object.__setattr__(self, "counts", counts)


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
) -> CountRecord:
    """Poisson counts for the four joint rates of one basis pair."""
    rates = [float(r) for r in expected_rates]
    if len(rates) != 4:
        raise ValueError(f"expected 4 rates, got {len(rates)}")
    if any(r < 0 for r in rates):
        raise ValueError(f"rates must be non-negative, got {rates}")
    means = [r * cfg.count_scale for r in rates]
    return CountRecord(tuple(int(c) for c in stream.poisson(means)))


def e_with_sigma(record: CountRecord) -> tuple[float, float]:
    """Correlation value from raw counts with first-order Poisson error.

    For the symmetric case (n, n, n, n) the propagated error reduces to
    1/(2 sqrt(n)).
    """
    n11, n12, n21, n22 = record.counts
    total = ((n11 + n12) + n21) + n22
    if total <= 0:
        raise UndefinedCorrelationError("all four counts are zero")
    num = ((n11 - n12) - n21) + n22
    e = num / total
    d_same = (total - num) / total**2  # partial for the + counts
    d_cross = (total + num) / total**2  # |partial| for the - counts
    var = d_same**2 * (n11 + n22) + d_cross**2 * (n12 + n21)
    return e, math.sqrt(var)


def s_with_sigma(
    records: Sequence[CountRecord],
    alice_bases: tuple = ("A", "A'"),
    bob_bases: tuple = (0, 1),
) -> SRecord:
    """S and its propagated error from the four CountRecords of one quadruple.

    Record order is (A,B_K), (A',B_K), (A,B_K'), (A',B_K'); the last enters
    with a minus sign.  The four correlations use disjoint counts and are
    treated as independent.
    """
    if len(records) != 4:
        raise ValueError(f"expected 4 count records, got {len(records)}")
    (e1, g1), (e2, g2), (e3, g3), (e4, g4) = (e_with_sigma(r) for r in records)
    s = abs(((e1 + e2) + e3) - e4)
    sigma = math.sqrt(((g1 * g1 + g2 * g2) + g3 * g3) + g4 * g4)
    return SRecord(s, sigma, alice_bases, bob_bases)


def noisy_enumerate(
    alice_pair: tuple[MeasurementBasis, MeasurementBasis],
    bob_projectors: list[Projector],
    nu: float,
    cfg: AcquisitionConfig,
) -> SEnumeration:
    """Full S enumeration from simulated counts instead of exact rates.

    One CountRecord is drawn per (Alice basis, Bob basis) pair from the
    stream (cfg.seed, alice index, basis index) and reused across the whole
    (K, K') grid, mirroring how per-setting acquisitions are reused when
    many S values are extracted from one data set.
    """
    cells = basis_cells(rate_matrix(alice_pair, bob_projectors, nu))
    e = np.full((2, cells.shape[-1]), np.nan)
    var = np.zeros_like(e)
    defined = np.ones(e.shape[1], dtype=bool)
    for a_idx, a_cells in enumerate(cells):
        for k, cell in enumerate(a_cells.T.tolist()):
            rec = sample_counts(cell, cfg, record_stream(cfg.seed, a_idx, k))
            try:
                e[a_idx, k], sigma = e_with_sigma(rec)
            except UndefinedCorrelationError:
                defined[k] = False
                continue
            var[a_idx, k] = sigma * sigma

    v_a, v_ap = var
    sig = np.sqrt(((v_a[:, None] + v_ap[:, None]) + v_a[None, :]) + v_ap[None, :])
    return restrict_to_defined(alice_pair, s_combination(e[0], e[1]), sig, defined)


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


def certify_arrays(s: np.ndarray, sigma: np.ndarray, skipped: int = 0) -> CertificationReport:
    """:func:`certify` over S and sigma arrays of one shape, in row-major order:
    ``max_s`` is the first maximal S, and both maxima read 0 unless some S > 0."""
    s, sigma = np.ravel(s), np.ravel(sigma)
    top = int(np.argmax(s)) if s.size else 0
    max_s, max_sigma = 0.0, 0.0
    if s.size and s[top] > 0.0:
        max_s, max_sigma = float(s[top]), float(sigma[top])
    above = s > 2.0
    resolved = above & (sigma > 0.0)
    above5 = np.count_nonzero((s[resolved] - 2.0) / sigma[resolved] > 5.0)
    return CertificationReport(
        s.size, int(np.count_nonzero(above)), int(above5), max_s, max_sigma, int(skipped)
    )


def histogram(
    values: Sequence[float] | np.ndarray,
    bin_width: float,
    bounds: tuple[float, float],
) -> np.ndarray:
    """Left-closed right-open histogram as one int count vector of length
    nbins + 2: underflow, the bins from ``bounds[0]`` up, overflow.

    A value exactly on a bin edge lands in the bin whose lower edge it is.
    The counts always sum to the input size.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not bin_width > 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    ratio = (hi - lo) / bin_width
    nbins = int(math.floor(ratio))
    if ratio - nbins > 1e-9:
        nbins += 1
    nbins = max(nbins, 1)

    vals = np.ravel(np.asarray(values, dtype=float))
    if np.isnan(vals).any():
        raise ValueError("histogram input contains NaN")
    idx = vals - lo
    np.divide(idx, bin_width, out=idx)
    np.floor(idx, out=idx)
    np.clip(idx, -1, nbins, out=idx)
    np.add(idx, 1, out=idx)
    return np.bincount(idx.astype(np.intp), minlength=nbins + 2)


def write_histogram_csv(
    counts: np.ndarray, bin_width: float, bounds: tuple[float, float], path: str | Path
) -> None:
    """Dump the count vector of a :func:`histogram` (or a mean of several) with
    the same ``bin_width`` and ``bounds`` as ``bin_lo,bin_hi,count`` rows."""
    lo, counts = float(bounds[0]), np.asarray(counts).tolist()
    lows = [lo + i * bin_width for i in range(len(counts) - 1)]  # lower edges: bins, overflow
    edges = [(-math.inf, lo), *zip(lows, lows[1:]), (lows[-1], math.inf)]
    lines = ["bin_lo,bin_hi,count"]
    lines += [f"{a:.12g},{b:.12g},{c:.12g}" for (a, b), c in zip(edges, counts)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(report: CertificationReport, path: str | Path) -> None:
    """Serialize a certification report as a flat six-field JSON object."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
