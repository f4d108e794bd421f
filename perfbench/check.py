"""Output checks for one op, recomputed from the library's scalar oracles.

``chsh``: every row of ``srecords.csv`` is recomputed from per-basis
correlations (``chsh.correlation`` noiseless, ``stats.e_with_sigma`` over
``stats.sample_counts`` noisy) combined in ``s_value``'s arithmetic order,
and a seeded sample of rows is recomputed whole by ``chsh.s_value`` /
``stats.s_with_sigma``.  Each is compared with the CSV text.  The histogram
must sum to the record total, and ``report.json`` must equal
``stats.certify`` over the recomputed rows.

``sweep``: a seeded sample of S values from ``chsh.s_grid`` must equal
``chsh.s_value``; ``records_per_draw`` and the fraction above 2 are
recomputed for every nu.  ``tm``: ``load_tm`` of the written file must
equal the seeded matrix bit for bit and be unitary to 1e-10.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from speckle_bell import chsh, cli, medium, pairsource, stats

SAMPLE = 12  # rows or S values recomputed whole per op
SRECORDS_HEADER = "k,kprime,aliceA,aliceAprime,s,sigma"
UNITARITY_TOL = 1e-10
REPORT_FIELDS = ("total", "above_2", "above_2_by_5sigma", "max_s", "max_s_sigma", "skipped")

_Row = namedtuple("_Row", "s sigma")


@dataclass
class OpCheck:
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    file_bytes: dict[str, int] = field(default_factory=dict)
    items: int = 0  # S values, or matrix entries written and read back
    records: int = 0
    sigma0_records: int = 0
    m_spatial: int = 0


def check_op(kind: str, argv: list[str], run_dir: Path) -> OpCheck:
    """Check the files one op wrote into ``run_dir``."""
    result = OpCheck()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        result.digests[path.name] = hashlib.sha256(data).hexdigest()
        result.file_bytes[path.name] = len(data)
    args = cli.make_parser().parse_args(argv)
    cfg = cli.build_config(args)
    result.m_spatial = cfg.m_spatial
    rng = random.Random(cfg.seed)
    try:
        if kind == "chsh":
            _check_chsh(cfg, run_dir, rng, result)
        elif kind == "sweep":
            if args.alice_draws is not None:
                cfg = replace(cfg, alice_draws=args.alice_draws)
            nus = [float(x) for x in args.nus.split(",") if x.strip()]
            _check_sweep(cfg, nus, run_dir, rng, result)
        else:
            _check_tm(cfg, run_dir, result)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        result.problems.append(f"unreadable output: {exc!r}")
    return result


def _text(x: float) -> str:
    return f"{x:.12g}"


def _check_chsh(cfg, run_dir: Path, rng: random.Random, result: OpCheck) -> None:
    problems = result.problems
    text = (run_dir / "srecords.csv").read_text()
    lines = text.splitlines()
    n = len(lines) - 1
    result.items = result.records = n
    result.sigma0_records = sum(line.endswith(",0") for line in lines[1:])

    _, _, projectors = cli.build_channel(cfg)
    bases = chsh.build_bob_bases(projectors)
    alice = cli.draw_alice_pair(cfg)
    n_bases = len(bases)

    # Per-basis correlation and variance for Alice's A (row 0) and A' (row 1).
    e = np.full((2, n_bases), np.nan)
    var = np.zeros((2, n_bases))
    defined = np.ones(n_bases, dtype=bool)
    counts = {}
    for a_idx, a_basis in enumerate(alice):
        for k, basis in enumerate(bases):
            try:
                if cfg.noiseless:
                    e[a_idx, k] = chsh.correlation(a_basis, basis, cfg.visibility).e
                else:
                    counts[a_idx, k] = _counts(cfg, a_basis, basis, a_idx, k)
                    e[a_idx, k], sigma = stats.e_with_sigma(counts[a_idx, k])
                    var[a_idx, k] = sigma * sigma
            except chsh.UndefinedCorrelationError:
                defined[k] = False
    keep = np.flatnonzero(defined)
    skipped = n_bases * n_bases - keep.size * keep.size
    if n != keep.size * keep.size:
        problems.append(f"srecords.csv has {n} rows, expected {keep.size ** 2}")
        return

    # Every row, combined in s_value's and s_with_sigma's arithmetic order.
    e_a, e_ap = e[0][keep], e[1][keep]
    v_a, v_ap = var[0][keep], var[1][keep]
    s = np.abs(((e_a[:, None] + e_ap[:, None]) + e_a[None, :]) - e_ap[None, :])
    sig = np.sqrt(((v_a[:, None] + v_ap[:, None]) + v_a[None, :]) + v_ap[None, :])
    s_text = list(map(_text, s.ravel().tolist()))
    sigma_text = list(map(_text, sig.ravel().tolist()))
    labels = [str(k + 1) for k in keep]
    rows = zip(
        (x for x in labels for _ in labels), labels * len(labels),
        repeat(str(alice[0].label)), repeat(str(alice[1].label)), s_text, sigma_text,
    )
    expected = "\n".join([SRECORDS_HEADER, *map(",".join, rows)]) + "\n"
    if text != expected:
        want = expected.splitlines()
        line = next(i for i, (g, w) in enumerate(zip(lines, want)) if g != w)
        problems.append(f"srecords.csv line {line + 1}: {lines[line]!r} != {want[line]!r}")
        return

    for row in rng.sample(range(n), min(SAMPLE, n)):
        kb, kpb = keep[row // keep.size], keep[row % keep.size]
        if cfg.noiseless:
            rec = chsh.s_value(alice[0], alice[1], bases[kb], bases[kpb], cfg.visibility)
        else:
            rec = stats.s_with_sigma(
                [counts[0, kb], counts[1, kb], counts[0, kpb], counts[1, kpb]]
            )
        if (_text(rec.s), _text(rec.sigma)) != (s_text[row], sigma_text[row]):
            problems.append(f"srecords.csv line {row + 2} differs from the scalar oracle")

    hist_lines = (run_dir / "histogram.csv").read_text().splitlines()
    hist_total = sum(int(line.rsplit(",", 1)[1]) for line in hist_lines[1:])
    if hist_total != n:
        problems.append(f"histogram.csv sums to {hist_total}, records {n}")

    # The CSV's 12 digits cannot resolve S = 2.0000000000000004, which certify
    # counts above 2 and which occurs at the defaults, so certify runs on the
    # recomputed values; they print as the CSV exactly (checked above).
    report = json.loads((run_dir / "report.json").read_text())
    want = stats.certify(
        list(map(_Row, s.ravel().tolist(), sig.ravel().tolist())), skipped
    ).to_dict()
    if tuple(report) != REPORT_FIELDS:
        problems.append(f"report.json fields {tuple(report)}")
    for key in REPORT_FIELDS:
        if report.get(key) != want[key]:
            problems.append(f"report.json {key}: {report.get(key)!r} != {want[key]!r}")


def _counts(cfg, a_basis, b_basis, a_idx: int, k: int) -> stats.CountRecord:
    rates = [
        pairsource.joint_probability(st, p, cfg.visibility)
        for st in (a_basis.first.state, a_basis.second.state)
        for p in (b_basis.first, b_basis.second)
    ]
    stream = stats.record_stream(cfg.acquisition.seed, a_idx, k)
    return stats.sample_counts(rates, cfg.acquisition, stream)


def _check_sweep(cfg, nus, run_dir: Path, rng: random.Random, result: OpCheck) -> None:
    problems = result.problems
    lines = (run_dir / "sweep_summary.csv").read_text().splitlines()
    if lines[0] != "nu,draws,records_per_draw,mean_fraction_above_2":
        problems.append(f"sweep_summary.csv header {lines[0]!r}")
    if len(lines) != len(nus) + 1:
        problems.append(f"sweep_summary.csv has {len(lines) - 1} rows for {len(nus)} nus")
        return
    _, _, projectors = cli.build_channel(cfg)
    bases = chsh.build_bob_bases(projectors)
    sampled = {(rng.randrange(len(nus)), rng.randrange(cfg.alice_draws)) for _ in range(SAMPLE)}
    for nu_idx, (nu, line) in enumerate(zip(nus, lines[1:])):
        above = total = 0
        for draw in range(cfg.alice_draws):
            alice = cli.draw_alice_pair(cfg, draw)
            grid, defined = chsh.s_grid(alice, projectors, nu)
            values = grid[np.ix_(defined, defined)]
            above += int(np.count_nonzero(values > 2.0))
            total += values.size
            if (nu_idx, draw) in sampled:
                keep = np.flatnonzero(defined)
                k, kp = int(rng.choice(keep)), int(rng.choice(keep))
                want = chsh.s_value(alice[0], alice[1], bases[k], bases[kp], nu).s
                if grid[k, kp] != want:
                    problems.append(f"nu={nu:g} draw {draw} S[{k + 1},{kp + 1}] != s_value")
        want_line = (
            f"{nu:.12g},{cfg.alice_draws},{total // cfg.alice_draws},"
            f"{_text(above / total if total else 0.0)}"
        )
        if line != want_line:
            problems.append(f"sweep_summary.csv row {line!r} != {want_line!r}")
        result.items += total
        hist = (run_dir / f"sweep_hist_nu_{nu:g}.csv").read_text().splitlines()
        mean_total = sum(float(row.rsplit(",", 1)[1]) for row in hist[1:])
        if not math.isclose(mean_total, total / cfg.alice_draws, rel_tol=1e-9):
            problems.append(f"sweep_hist_nu_{nu:g}.csv sums to {mean_total}")


def _check_tm(cfg, run_dir: Path, result: OpCheck) -> None:
    loaded = medium.load_tm(run_dir / "tm.txt")
    tm, _, _ = cli.build_channel(cfg)
    if (loaded.m_spatial, loaded.seed) != (tm.m_spatial, tm.seed):
        result.problems.append("tm.txt header differs from the seeded matrix")
    elif loaded.entries.tobytes() != tm.entries.tobytes():
        result.problems.append("load_tm(save_tm(tm)) is not exact")
    residual = loaded.unitarity_residual()
    if not residual < UNITARITY_TOL:
        result.problems.append(f"unitarity residual {residual:.3g}")
    result.items = 2 * tm.entries.size
