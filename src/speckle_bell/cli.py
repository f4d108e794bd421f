"""Command-line front end: seeded, reproducible simulation scenarios.

Every subcommand is a pure function of (config file, flags, seed): rerunning
with the same inputs produces byte-identical files.  ``tm.txt`` is the one
exception across machines: the full channel matrix's QR, and so its bytes,
can depend on the BLAS thread count.  Outputs land in ``<out>/run_<seed>/``.
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
    WaveplateSetting,
    amplitude_vector,
    random_alice_basis,
    waveplate_projection,
)

# Stream tags for deriving independent sub-seeds from the master seed.
_TAG_TM, _TAG_ALICE, _TAG_COUNTS, _TAG_POSITIONS = 1, 2, 3, 4

# Histogram bins are held in memory; the default config uses 60.
MAX_HIST_BINS = 10**6

# Only ``tm`` builds the full (2M)x(2M) complex channel matrix, with a peak
# RSS of about 5.5x the matrix (350 MB measured at M = 1000); this bound
# (m_spatial <= 2896) keeps that below about 3 GiB.  Every other subcommand
# still draws the matrix's (2M)^2 Gaussian stream (1.2 s at M = 2896), so
# the bound applies to all of them.
MAX_TM_BYTES = 2**29


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
        """Count-rate model, seeded by the counts stream of ``seed``."""
        return stats.AcquisitionConfig(
            self.pair_rate, self.integration_time, self.efficiency,
            seed=derive_seed(self.seed, _TAG_COUNTS),
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
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError(f"visibility must be in [0, 1], got {self.visibility}")
        if not self.coherence_length > 0:
            raise ConfigError(
                f"coherence_length must be positive, got {self.coherence_length}"
            )
        if self.alice_draws < 1:
            raise ConfigError(f"alice_draws must be >= 1, got {self.alice_draws}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.hist_lo < self.hist_hi:
            raise ConfigError(
                f"need hist_lo < hist_hi, got ({self.hist_lo}, {self.hist_hi})"
            )
        # Also rejects a width <= 0, since hist_hi - hist_lo > 0.
        if not self.hist_bin_width >= (self.hist_hi - self.hist_lo) / MAX_HIST_BINS:
            raise ConfigError(
                f"hist_bin_width must be positive and give at most {MAX_HIST_BINS} "
                f"bins over [hist_lo, hist_hi], got {self.hist_bin_width}"
            )
        try:
            self.acquisition
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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
        text = Path(path).read_text()
    except OSError as exc:
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
    projectors = medium.bob_projector_set(tm, positions)
    return tm, positions, projectors


def draw_alice_pair(cfg: ExperimentConfig, draw_index: int = 0):
    """Alice's two random bases (A, A') for one draw index."""
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, _TAG_ALICE, int(draw_index)))
    )
    state_a, _ = random_alice_basis(rng)
    state_ap, _ = random_alice_basis(rng)
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


def cmd_chsh(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = run_dir(args.out, cfg.seed)
    print(f"stage: channel ({cfg.m_spatial} spatial modes, seed {cfg.seed})")
    enumeration = chsh_enumeration(cfg)
    mode = "noiseless" if cfg.noiseless else "noisy"
    print(
        f"stage: enumeration ({enumeration.s.size} records, "
        f"{enumeration.skipped} skipped, {mode}, visibility {cfg.visibility:g})"
    )
    chsh.write_srecords_csv(enumeration, out / "srecords.csv")
    bounds = (cfg.hist_lo, cfg.hist_hi)
    counts = stats.histogram(enumeration.s, cfg.hist_bin_width, bounds)
    stats.write_histogram_csv(counts, cfg.hist_bin_width, bounds, out / "histogram.csv")
    report = stats.certify_arrays(enumeration.s, enumeration.sigma, enumeration.skipped)
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
    _, _, projectors = build_channel(cfg)
    setting = WaveplateSetting(
        math.radians(args.alice_hwp_deg), math.radians(args.alice_qwp_deg)
    )
    alice = waveplate_projection(setting, args.alice_detector)
    k = 2 * args.position + (args.bob_detector - 1)
    model = pairsource.DelayModel(cfg.coherence_length)
    curve = pairsource.hom_curve(
        alice, projectors[k], model, cfg.visibility, npoints=args.points
    )
    path = run_dir(args.out, cfg.seed) / f"hom_{k}.csv"
    pairsource.write_hom_csv(curve, path)
    print(f"stage: hom curve written to {path}")
    print(f"contrast: {curve.contrast:.6f}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    try:
        nu_list = [float(x) for x in args.nus.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad --nus list {args.nus!r}") from None
    if not nu_list:
        raise ConfigError("--nus list is empty")
    for nu in nu_list:
        replace(cfg, visibility=nu).validate()
    out = run_dir(args.out, cfg.seed)
    _, _, projectors = build_channel(cfg)
    print(
        f"stage: sweep over nu={nu_list} with {cfg.alice_draws} Alice draws (noiseless)"
    )
    summary = ["nu,draws,records_per_draw,mean_fraction_above_2"]
    bounds = (cfg.hist_lo, cfg.hist_hi)
    for nu in nu_list:
        counts = above = total = 0
        for draw in range(cfg.alice_draws):
            s = chsh.enumerate_s(draw_alice_pair(cfg, draw), projectors, nu).s
            counts = counts + stats.histogram(s, cfg.hist_bin_width, bounds)
            above += int(np.count_nonzero(s > 2.0))
            total += s.size
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
    pattern = medium.speckle_intensity(channel(cfg), vector)
    path = out / "speckle.csv"
    medium.write_speckle_csv(pattern, path)
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
