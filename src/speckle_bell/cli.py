"""Command-line front end: seeded, reproducible simulation scenarios.

Every subcommand is a pure function of (config file, flags, seed): rerunning
with the same inputs produces byte-identical files.  ``tm.txt`` is the one
exception across machines: the full channel matrix's QR, and so its bytes,
can depend on the BLAS library, CPU kernel and thread count; no other
subcommand calls BLAS.  Outputs land in ``<out>/run_<seed>/``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import chsh, medium, pairsource, stats
from .polarization import (
    PoincareState,
    amplitude_vector,
    random_alice_state,
    waveplate_projection,
)

# Stream tags for deriving independent sub-seeds from the master seed.
_TAG_TM, _TAG_ALICE, _TAG_COUNTS, _TAG_POSITIONS = 1, 2, 3, 4

# Histogram bins are held in memory; the default config uses 60.
MAX_HIST_BINS = 10**6

# Only ``tm`` builds the full (2M)x(2M) complex channel matrix, with a peak
# RSS of about 5.5x the matrix (350 MB measured at M = 1000); this bound
# (m_spatial <= 2896) keeps that below about 3 GiB.  The other subcommands
# sample only the lit mode's (2M, 2) block, but one bound for all of them
# keeps every seed's channel one that ``tm`` can dump.
MAX_TM_BYTES = 2**29

# S records (srecords.csv rows, about 42 bytes each) per Alice draw: B^2 for
# B = n_positions * (2 n_positions - 1) Bob bases, so n_positions <= 64.
MAX_RECORDS = 2**26

# hom --points: the curve and its CSV lines are held in memory (peak RSS
# 231 MB measured at 10**6 points, 37 MB at the default 101).
MAX_HOM_POINTS = 10**6

# sweep holds one Alice pair (about 1.2 kB) per draw: at most about 116 MB.
MAX_ALICE_DRAWS = 10**5


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full scenario configuration: the fields are the config-file keys, with
    the defaults that ``speckle-bell --help`` lists.  ``--seed``, ``--nu``
    (visibility), ``--alice-draws`` and ``--noiseless`` override them.
    """

    m_spatial: int = 200
    n_positions: int = 15
    visibility: float = 0.93
    coherence_length: float = 0.1
    pair_rate: float = 500.0
    integration_time: float = 240.0
    efficiency: float = 0.5
    noiseless: bool = False
    seed: int = 0
    alice_draws: int = 1
    hist_bin_width: float = 0.05
    hist_lo: float = 0.0
    hist_hi: float = 3.0

    @property
    def acquisition(self) -> stats.AcquisitionConfig:
        """Counts per unit joint probability, seeded by the counts stream of ``seed``."""
        return stats.AcquisitionConfig(
            self.pair_rate * self.efficiency**2 * self.integration_time,
            derive_seed(self.seed, _TAG_COUNTS),
        )

    def validate(self) -> ExperimentConfig:
        """Return self, or raise ConfigError naming the first bad field."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.m_spatial < 1:
            raise ConfigError(f"m_spatial must be >= 1, got {self.m_spatial}")
        if 16 * (2 * self.m_spatial) ** 2 > MAX_TM_BYTES:
            raise ConfigError(
                f"m_spatial must be at most {math.isqrt(MAX_TM_BYTES // 16) // 2} (a "
                f"{MAX_TM_BYTES}-byte channel matrix), got {self.m_spatial}"
            )
        if self.n_positions < 1:
            raise ConfigError(f"n_positions must be >= 1, got {self.n_positions}")
        if self.n_positions > self.m_spatial:
            raise ConfigError(
                f"n_positions ({self.n_positions}) exceeds m_spatial ({self.m_spatial})"
            )
        if (self.n_positions * (2 * self.n_positions - 1)) ** 2 > MAX_RECORDS:
            raise ConfigError(
                f"n_positions must be at most 64 (2^26 S records per draw), got {self.n_positions}"
            )
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError(f"visibility must be in [0, 1], got {self.visibility}")
        # hom scans delays over 2 * HOM_SPAN coherence lengths.
        if not (self.coherence_length > 0
                and math.isfinite(2 * pairsource.HOM_SPAN * self.coherence_length)):
            raise ConfigError(
                "coherence_length must be positive and at most "
                f"{sys.float_info.max / (2 * pairsource.HOM_SPAN)}, got {self.coherence_length}"
            )
        if self.alice_draws < 1:
            raise ConfigError(f"alice_draws must be >= 1, got {self.alice_draws}")
        if self.alice_draws > MAX_ALICE_DRAWS:
            raise ConfigError(
                f"alice_draws must be at most {MAX_ALICE_DRAWS}, got {self.alice_draws}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.hist_lo < self.hist_hi:
            raise ConfigError(
                f"need hist_lo < hist_hi, got ({self.hist_lo}, {self.hist_hi})"
            )
        if not math.isfinite(self.hist_hi - self.hist_lo):
            raise ConfigError(
                f"hist_hi - hist_lo must be finite, got ({self.hist_lo}, {self.hist_hi})"
            )
        # Also rejects a width <= 0, since hist_hi - hist_lo > 0.
        if not self.hist_bin_width >= (self.hist_hi - self.hist_lo) / MAX_HIST_BINS:
            raise ConfigError(
                f"hist_bin_width must be positive and give at most {MAX_HIST_BINS} "
                f"bins over [hist_lo, hist_hi], got {self.hist_bin_width}"
            )
        for name in ("pair_rate", "integration_time"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError(f"efficiency must be in (0, 1], got {self.efficiency}")
        # A cell's Poisson mean is at most count_scale / 2; numpy's limit is about 9.2e18.
        count_scale = self.acquisition.count_scale
        if not count_scale <= 1e19:
            raise ConfigError(
                f"pair_rate * efficiency**2 * integration_time must be at most 1e19, "
                f"got {count_scale:g}"
            )
        return self


CONFIG_DEFAULTS: dict[str, object] = {f.name: f.default for f in fields(ExperimentConfig)}


def derive_seed(master: int, tag: int) -> int:
    """Deterministic 64-bit child seed for one stream of a run."""
    words = np.random.SeedSequence((int(master), int(tag))).generate_state(2, np.uint32)
    return int(words[0]) | (int(words[1]) << 32)


def _coerce(key: str, raw: str):
    default = CONFIG_DEFAULTS[key]
    try:
        if isinstance(default, bool):
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat key=value config file with '#' comments."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key: {key}")
        values[key] = _coerce(key, raw.strip())
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file and command-line flags."""
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for flag, key in (
        ("seed", "seed"), ("nu", "visibility"), ("alice_draws", "alice_draws")
    ):
        if getattr(args, flag, None) is not None:
            values[key] = getattr(args, flag)
    if getattr(args, "noiseless", False):
        values["noiseless"] = True
    return ExperimentConfig(**values).validate()


def channel(cfg: ExperimentConfig) -> medium.HaarChannel:
    """The run's seeded channel; nothing is sampled until it is read."""
    return medium.HaarChannel(cfg.m_spatial, derive_seed(cfg.seed, _TAG_TM))


def build_channel(cfg: ExperimentConfig):
    """Seeded channel, selected positions and Bob's projector set, which
    reads only the lit input mode's two columns."""
    tm = channel(cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, _TAG_POSITIONS))
    positions = sorted(
        int(p) for p in rng.choice(cfg.m_spatial, cfg.n_positions, replace=False)
    )
    projectors = medium.bob_projector_set(tm.columns(), positions)
    return tm, positions, projectors


def draw_alice_pair(cfg: ExperimentConfig, draw_index: int = 0):
    """Alice's two random bases (A, A') for one draw index: each is the
    analyzer's detector-1 state at random waveplate angles and its complement."""
    rng = stats.record_stream(cfg.seed, _TAG_ALICE, draw_index)
    state_a, state_ap = random_alice_state(rng), random_alice_state(rng)
    return chsh.alice_basis(state_a, "A"), chsh.alice_basis(state_ap, "A'")


def run_dir(out: str | Path, seed: int) -> Path:
    path = Path(out) / f"run_{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def chsh_enumeration(cfg: ExperimentConfig) -> chsh.SEnumeration:
    """Full pipeline: channel, Alice draw, S enumeration (noisy or not)."""
    _, _, projectors = build_channel(cfg)
    alice_pair = draw_alice_pair(cfg)
    if cfg.noiseless:
        return chsh.enumerate_s(alice_pair, projectors, cfg.visibility)
    return stats.noisy_enumerate(alice_pair, projectors, cfg.visibility, cfg.acquisition)


def tile_counts(cfg: ExperimentConfig, enumerations):
    """Histogram count vector, number of S above 2 and number of S over the
    :func:`chsh.s_tiles` of every enumeration; no (D, D) grid is held."""
    bounds = (cfg.hist_lo, cfg.hist_hi)
    counts = stats.histogram((), cfg.hist_bin_width, bounds)
    above = total = 0
    for enumeration in enumerations:
        for tile, _ in chsh.s_tiles(enumeration):
            counts += stats.histogram(tile, cfg.hist_bin_width, bounds)
            above += int(np.count_nonzero(tile > 2.0))
            total += tile.size
    return counts, above, total


def cmd_chsh(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = run_dir(args.out, cfg.seed)
    print(f"stage: channel ({cfg.m_spatial} spatial modes, seed {cfg.seed})")
    enumeration = chsh_enumeration(cfg)
    mode = "noiseless" if cfg.noiseless else "noisy"
    print(
        f"stage: enumeration ({enumeration.labels.size**2} records, "
        f"{enumeration.skipped} skipped, {mode}, visibility {cfg.visibility:g})"
    )
    chsh.write_srecords_csv(enumeration, out / "srecords.csv")
    counts, _, _ = tile_counts(cfg, [enumeration])
    bounds = (cfg.hist_lo, cfg.hist_hi)
    stats.write_histogram_csv(counts, cfg.hist_bin_width, bounds, out / "histogram.csv")
    report = stats.certify_arrays(chsh.s_tiles(enumeration), enumeration.skipped)
    stats.write_report_json(report, out / "report.json")
    print(
        f"stage: certification (above 2: {report.above_2}, "
        f"by 5 sigma: {report.above_2_by_5sigma}, max S: {report.max_s:.4f})"
    )
    return 0


def cmd_hom(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if not 0 <= args.position < cfg.n_positions:
        raise ConfigError(
            f"position must be in [0, {cfg.n_positions}), got {args.position}"
        )
    for flag, value in (("--alice-hwp-deg", args.alice_hwp_deg),
                        ("--alice-qwp-deg", args.alice_qwp_deg)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if not 2 <= args.points <= MAX_HOM_POINTS:
        raise ConfigError(f"--points must be in [2, {MAX_HOM_POINTS}], got {args.points}")
    _, _, projectors = build_channel(cfg)
    hwp, qwp = math.radians(args.alice_hwp_deg), math.radians(args.alice_qwp_deg)
    alice = waveplate_projection(hwp, qwp, args.alice_detector)
    k = 2 * args.position + (args.bob_detector - 1)
    # Before run_dir: an undefined contrast writes nothing.
    contrast = pairsource.contrast(alice, projectors[k], cfg.visibility)
    delays, rates = pairsource.hom_curve(
        alice, projectors[k], cfg.coherence_length, cfg.visibility, args.points
    )
    path = run_dir(args.out, cfg.seed) / f"hom_{k}.csv"
    pairsource.write_hom_csv(delays, rates, path)
    print(f"stage: hom curve written to {path}")
    print(f"contrast: {contrast:.6f}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    try:
        nu_list = [float(x) for x in args.nus.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad --nus list {args.nus!r}") from None
    if not nu_list:
        raise ConfigError("--nus list is empty")
    # Each nu's histogram file is named by nu:g, six significant digits.
    if len({f"{nu:g}" for nu in nu_list}) < len(nu_list):
        raise ConfigError(f"--nus values must be distinct to 6 digits, got {args.nus!r}")
    for nu in nu_list:
        replace(cfg, visibility=nu).validate()
    out = run_dir(args.out, cfg.seed)
    _, _, projectors = build_channel(cfg)
    print(
        f"stage: sweep over nu={nu_list} with {cfg.alice_draws} Alice draws (noiseless)"
    )
    summary = ["nu,draws,records_per_draw,mean_fraction_above_2"]
    bounds = (cfg.hist_lo, cfg.hist_hi)
    alice_pairs = [draw_alice_pair(cfg, draw) for draw in range(cfg.alice_draws)]
    for nu in nu_list:
        enumerations = (chsh.enumerate_s(pair, projectors, nu) for pair in alice_pairs)
        counts, above, total = tile_counts(cfg, enumerations)
        path = out / f"sweep_hist_nu_{nu:g}.csv"
        stats.write_histogram_csv(counts / cfg.alice_draws, cfg.hist_bin_width, bounds, path)
        fraction = above / total if total else 0.0
        summary.append(
            f"{nu:.12g},{cfg.alice_draws},{total // cfg.alice_draws},{fraction:.12g}"
        )
        print(f"stage: nu={nu:g} done (mean fraction above 2: {fraction:.4%})")
    (out / "sweep_summary.csv").write_text("\n".join(summary) + "\n")
    return 0


def cmd_speckle(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = run_dir(args.out, cfg.seed)
    theta, phi = {
        "H": (0.0, 0.0), "V": (math.pi, 0.0), "D": (math.pi / 2, 0.0),
        "A": (math.pi / 2, math.pi), "R": (math.pi / 2, math.pi / 2),
        "L": (math.pi / 2, 3 * math.pi / 2),
    }[args.input_pol]
    vector = amplitude_vector(PoincareState(theta, phi))
    intensity = medium.speckle_intensity(channel(cfg).columns(), vector)
    path = out / "speckle.csv"
    medium.write_speckle_csv(intensity, path)
    print(f"stage: speckle pattern written to {path}")
    return 0


def cmd_tm(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = run_dir(args.out, cfg.seed)
    path = out / "tm.txt"
    medium.save_tm(channel(cfg), path)
    print(f"stage: channel matrix written to {path}")
    return 0


def _config_help() -> str:
    lines = ["config file keys (key=value, '#' comments), with defaults:"]
    for key, default in CONFIG_DEFAULTS.items():
        lines.append(f"  {key} = {default}")
    return "\n".join(lines)


def _add_subcommand(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """Subcommand parser with the flags every subcommand reads."""
    # Exact flag names only, so that "--nu" cannot pass for sweep's "--nus".
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    p.add_argument("--config", help="path to a key=value config file")
    p.add_argument("--seed", type=int, help="master seed (64-bit)")
    p.add_argument("--out", default="out", help="output directory (default: out)")
    return p


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speckle-bell",
        description=(
            "Simulate Bell tests in which one photon of an entangled pair "
            "crosses a disordered polarization-mixing multimode channel."
        ),
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_subcommand(sub, "chsh", "full CHSH enumeration, histogram and report")
    p.add_argument("--nu", type=float, help="override source visibility")
    p.add_argument("--noiseless", action="store_true", help="skip Poisson counting noise")
    p.set_defaults(func=cmd_chsh)

    p = _add_subcommand(sub, "hom", "delay scan for one output mode")
    p.add_argument("--nu", type=float, help="override source visibility")
    p.add_argument(
        "--position", type=int, default=0, help="index into the selected positions"
    )
    p.add_argument("--bob-detector", type=int, choices=(1, 2), default=1)
    p.add_argument(
        "--alice-hwp-deg", type=float, default=22.5, help="Alice HWP angle in degrees"
    )
    p.add_argument(
        "--alice-qwp-deg", type=float, default=0.0, help="Alice QWP angle in degrees"
    )
    p.add_argument("--alice-detector", type=int, choices=(1, 2), default=1)
    p.add_argument("--points", type=int, default=101, help="samples across the scan")
    p.set_defaults(func=cmd_hom)

    p = _add_subcommand(sub, "sweep", "noiseless visibility sweep, averaged histograms")
    p.add_argument(
        "--nus", default="0,0.93,1", help="comma-separated visibilities to sweep"
    )
    p.add_argument(
        "--alice-draws", type=int, default=None, help="random Alice draws per nu"
    )
    p.set_defaults(func=cmd_sweep)

    p = _add_subcommand(sub, "speckle", "dump the output intensity pattern")
    p.add_argument(
        "--input-pol", choices=("H", "V", "D", "A", "R", "L"), default="H"
    )
    p.set_defaults(func=cmd_speckle)

    p = _add_subcommand(sub, "tm", "dump the channel matrix in text form")
    p.set_defaults(func=cmd_tm)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(build_config(args), args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
