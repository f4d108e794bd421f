import json
import math
from dataclasses import replace

import numpy as np
import pytest

from speckle_bell import chsh, stats
from speckle_bell.cli import (
    CONFIG_DEFAULTS,
    ConfigError,
    ExperimentConfig,
    MAX_ALICE_DRAWS,
    build_channel,
    build_config,
    chsh_enumeration,
    derive_seed,
    draw_alice_pair,
    main,
    make_parser,
    parse_config_file,
)
from speckle_bell.polarization import PoincareState, Projector

SMALL_CONFIG = """
# small, fast scenario
m_spatial = 8
n_positions = 3
visibility = 0.93
pair_rate = 500
integration_time = 240
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# ------------------------------------------------------------------- config

def test_parse_config_file(small_config):
    values = parse_config_file(small_config)
    assert values == {
        "m_spatial": 8,
        "n_positions": 3,
        "visibility": 0.93,
        "pair_rate": 500.0,
        "integration_time": 240.0,
    }


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    # input_mode is gone: mode 0 is the one lit input mode
    for line, key in (("m_spatil = 8", "m_spatil"), ("input_mode = 0", "input_mode")):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
            parse_config_file(path)


def test_parse_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("m_spatial = 12\n# comment\nm_spatial = 13\n")
    with pytest.raises(ConfigError) as exc:
        parse_config_file(path)
    assert str(exc.value) == f"{path}:3: duplicate config key: m_spatial"


def test_parse_config_accepts_utf8_bom(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes("m_spatial = 12\nn_positions = 4\n".encode("utf-8-sig"))
    assert parse_config_file(path) == {"m_spatial": 12, "n_positions": 4}


@pytest.mark.parametrize("key", ["hist_bin_width", "hist_lo", "hist_hi"])
def test_removed_histogram_keys_are_rejected(tmp_path, capsys, key):
    """The S histogram's bins are fixed (stats.HIST_*): no config key sets them."""
    path = tmp_path / "bins.cfg"
    path.write_text(f"m_spatial = 12\nn_positions = 4\n{key} = 0.1\n")
    out = tmp_path / "out"
    for command in ("chsh", "sweep"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:3: unknown config key: {key}\n"
    assert not out.exists()


def test_parse_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("m_spatial = eight\n")
    with pytest.raises(ConfigError, match="m_spatial"):
        parse_config_file(path)


def test_config_validation_names_field():
    cfg = ExperimentConfig(n_positions=0)
    with pytest.raises(ConfigError, match="n_positions"):
        cfg.validate()
    with pytest.raises(ConfigError, match="visibility"):
        ExperimentConfig(visibility=2.0).validate()
    with pytest.raises(ConfigError, match="n_positions"):
        ExperimentConfig(m_spatial=4, n_positions=10).validate()
    # the channel matrix size is checked from the config, before it is sampled
    for m in (2897, 10**6):
        with pytest.raises(ConfigError, match="m_spatial"):
            ExperimentConfig(m_spatial=m).validate()
    for m in (1000, 2896):  # the wide-fiber benchmark and the largest accepted
        ExperimentConfig(m_spatial=m).validate()
    # non-finite floats are named before any run uses them
    inf, nan = math.inf, math.nan
    for field, value in (("coherence_length", inf), ("pair_rate", inf), ("efficiency", -inf),
                         ("integration_time", nan), ("visibility", nan)):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            ExperimentConfig(**{field: value}).validate()
    ExperimentConfig(alice_draws=MAX_ALICE_DRAWS).validate()


def test_flags_override_config(small_config, tmp_path):
    args = make_parser().parse_args(
        ["chsh", "--config", small_config, "--seed", "9", "--nu", "0.5", "--noiseless"]
    )
    cfg = build_config(args)
    assert cfg.seed == 9
    assert cfg.visibility == 0.5
    assert cfg.noiseless is True
    assert cfg.m_spatial == 8

    path = tmp_path / "draws.cfg"
    path.write_text(SMALL_CONFIG + "alice_draws = 2\n")
    for argv, draws in ((["--alice-draws", "4"], 4), ([], 2)):
        args = make_parser().parse_args(["sweep", "--config", str(path)] + argv)
        assert build_config(args).alice_draws == draws


@pytest.mark.parametrize(
    "argv", [["tm", "--nu", "0.5"], ["speckle", "--noiseless"], ["sweep", "--nu", "0.5"]]
)
def test_flags_only_on_subcommands_that_read_them(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_counts_seed_follows_master_seed(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text("m_spatial = 12\nn_positions = 4\n")
    direct = chsh_enumeration(ExperimentConfig(m_spatial=12, n_positions=4, seed=5))
    cfg = build_config(make_parser().parse_args(["chsh", "--config", str(path), "--seed", "5"]))
    from_cli = chsh_enumeration(cfg)
    assert np.array_equal(direct.labels, from_cli.labels)
    assert np.array_equal(direct.e, from_cli.e)
    assert np.array_equal(direct.var, from_cli.var)
    assert replace(cfg, seed=6).acquisition.seed == derive_seed(6, 3)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, 1) == derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)
    assert derive_seed(8, 1) != derive_seed(7, 1)
    assert 0 <= derive_seed(7, 1) < 2**64


def test_build_channel_deterministic():
    cfg = ExperimentConfig(m_spatial=8, n_positions=3, seed=5)
    tm1, pos1, proj1 = build_channel(cfg)
    tm2, pos2, proj2 = build_channel(cfg)
    assert np.array_equal(tm1.entries, tm2.entries)
    assert pos1 == pos2 and proj1 == proj2
    assert len(set(pos1)) == 3 and len(proj1) == 6


def test_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert len(CONFIG_DEFAULTS) == 10
    for key, default in CONFIG_DEFAULTS.items():
        assert f"{key} = {default}" in out


# -------------------------------------------------------------- subcommands

def test_chsh_outputs_and_reproducibility(tmp_path, small_config, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["chsh", "--config", small_config, "--seed", "4", "--out", str(out1)]) == 0
    assert main(["chsh", "--config", small_config, "--seed", "4", "--out", str(out2)]) == 0
    tree1, tree2 = read_tree(out1 / "run_4"), read_tree(out2 / "run_4")
    assert set(tree1) == {"srecords.csv", "histogram.csv", "report.json"}
    assert tree1 == tree2

    report = json.loads(tree1["report.json"])
    assert set(report) == {
        "total", "above_2", "above_2_by_5sigma", "max_s", "max_s_sigma", "skipped",
    }
    assert report["total"] == 225  # 3 positions -> 6 projectors -> 15 bases
    lines = tree1["srecords.csv"].decode().splitlines()
    assert len(lines) == 226
    out = capsys.readouterr().out
    assert "stage:" in out


def test_chsh_noiseless_sigma_zero(tmp_path, small_config):
    out = tmp_path / "n"
    assert main(
        ["chsh", "--config", small_config, "--seed", "4", "--out", str(out), "--noiseless"]
    ) == 0
    lines = (out / "run_4" / "srecords.csv").read_text().splitlines()[1:]
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines)


def test_hom_output_and_sign_flip(tmp_path, small_config, capsys):
    out = tmp_path / "h"
    code = main(
        [
            "hom", "--config", small_config, "--seed", "2", "--out", str(out),
            "--position", "1", "--bob-detector", "2",
        ]
    )
    assert code == 0
    first = capsys.readouterr().out
    csv_path = out / "run_2" / "hom_3.csv"  # k = 2*1 + (2-1)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "delta,rate"
    assert len(lines) == 102

    # printed contrast must agree with the curve's own endpoint ratio
    c_printed = float(first.split("contrast:")[1].strip())
    r0 = float(lines[51].split(",")[1])  # middle sample is delta = 0
    r_inf = float(lines[-1].split(",")[1])
    assert abs(c_printed - (r0 - r_inf) / r_inf) < 1e-6

    # Alice's other detector flips the contrast sign
    main(
        [
            "hom", "--config", small_config, "--seed", "2", "--out", str(out),
            "--position", "1", "--bob-detector", "2", "--alice-detector", "2",
        ]
    )
    second = capsys.readouterr().out
    c1 = float(first.split("contrast:")[1].strip())
    c2 = float(second.split("contrast:")[1].strip())
    assert abs(c1 + c2) < 1e-6 and c1 != 0.0


def test_hom_reproducible_bytes(tmp_path, small_config):
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    main(["hom", "--config", small_config, "--seed", "3", "--out", str(out1)])
    main(["hom", "--config", small_config, "--seed", "3", "--out", str(out2)])
    assert read_tree(out1) == read_tree(out2)


def test_hom_invalid_position(tmp_path, small_config, capsys):
    for flag, value in (("--position", "99"), ("--points", "1")):
        code = main(
            ["hom", "--config", small_config, "--seed", "2", "--out", str(tmp_path), flag, value]
        )
        assert code == 1
        assert flag[2:] in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))


# hom flag values that used to give a curve of nan, or an error naming no flag.
_BAD_HOM_FLAGS = {
    "hwp-nan": (["--alice-hwp-deg", "nan"], "--alice-hwp-deg"),
    "hwp-inf": (["--alice-hwp-deg", "inf"], "--alice-hwp-deg"),
    "qwp-minus-inf": (["--alice-qwp-deg=-inf"], "--alice-qwp-deg"),
    "one-point": (["--points", "1"], "--points"),
    "too-many-points": (["--points", "1000001"], "--points"),
}


@pytest.mark.parametrize(("argv", "flag"), _BAD_HOM_FLAGS.values(), ids=_BAD_HOM_FLAGS.keys())
def test_hom_rejects_bad_flag_values(tmp_path, small_config, capsys, argv, flag):
    out = tmp_path / "h"
    assert main(["hom", "--config", small_config, "--seed", "2", "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.strip().count("\n") == 0
    assert not out.exists()


def test_sweep_ordering(tmp_path, small_config):
    out = tmp_path / "s"
    code = main(
        [
            "sweep", "--config", small_config, "--seed", "6", "--out", str(out),
            "--nus", "0,0.93,1", "--alice-draws", "3",
        ]
    )
    assert code == 0
    run = out / "run_6"
    summary = (run / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "nu,draws,records_per_draw,mean_fraction_above_2"
    fractions = {}
    for line in summary[1:]:
        nu, draws, per_draw, frac = line.split(",")
        assert draws == "3" and per_draw == "225"
        fractions[float(nu)] = float(frac)
    assert fractions[0.0] == 0.0
    assert fractions[0.93] <= fractions[1.0]
    for nu in ("0", "0.93", "1"):
        assert (run / f"sweep_hist_nu_{nu}.csv").exists()

    # even at full visibility nothing lies beyond the quantum maximum
    rows = (run / "sweep_hist_nu_1.csv").read_text().splitlines()[1:]
    for row in rows:
        lo, _, count = row.split(",")
        if float(lo) >= 2 * math.sqrt(2):
            assert float(count) == 0.0


@pytest.mark.parametrize("tile_rows", [1, 7, 10**6])
def test_sweep_counts_match_untiled_enumeration(monkeypatch, tile_rows):
    """Per-draw separable_counts summed as sweep sums them give the counts of
    the untiled enumerations, at tile heights that split the D = 44 defined
    bases unevenly (1, 7) or not at all; the (dark, dark) basis is dropped
    before binning.  Bins of width 0.1 over [0, 2.1), with 2 on bin edge 20,
    reach the overflow row and leave the underflow row empty."""
    monkeypatch.setattr(chsh, "_S_TILE_ROWS", tile_rows)
    for name, value in (("HIST_BIN_WIDTH", 0.1), ("HIST_NBINS", 21), ("_BIN_2", 20)):
        monkeypatch.setattr(stats, name, value)
    cfg = ExperimentConfig(m_spatial=12, n_positions=4)
    _, _, projectors = build_channel(cfg)
    projectors += [Projector(0j, PoincareState(0.0, 0.0)),
                   Projector(0j, PoincareState(1.0, 2.0))]
    alice_pairs = [draw_alice_pair(cfg, draw) for draw in range(3)]
    for nu in (0.0, 0.93, 1.0):
        want_counts, want_above = 0, 0
        counts, above = stats.histogram(()), 0
        for alice_pair in alice_pairs:
            enum = chsh.enumerate_s(alice_pair, projectors, nu)
            assert enum.skipped == 45**2 - 44**2
            s = chsh.s_combination(*enum.e)  # the whole (D, D) grid
            want_counts = want_counts + stats.histogram(s)
            want_above += int(np.count_nonzero(s > 2.0))
            part, part_above = stats.separable_counts(enum.e)
            counts, above = counts + part, above + part_above
        assert counts.dtype == want_counts.dtype and len(counts) == 23
        assert counts.tolist() == want_counts.tolist()
        assert above == want_above
        assert counts[0] == 0  # no S below 0
    assert counts[-1] > 0 and above > 0  # overflow reached at nu = 1


def test_sweep_rejects_bad_nus(tmp_path, small_config, capsys):
    cases = [
        (["--nus", "0,2.5"], "visibility"),
        (["--nus", ""], "empty"),
        (["--nus", "0,x"], "--nus"),
        # each nu names its histogram file to 6 significant digits
        (["--nus", "0.93,0.9300001"], "--nus"),
        (["--nus", "0.5,0.5"], "--nus"),
        (["--nus", "0,-0"], "--nus"),  # -0 is the visibility 0
        (["--alice-draws", "0"], "alice_draws"),
        # one Alice pair is held per draw: no run directory for 10**5 + 1 of them
        (["--alice-draws", "100001"], "alice_draws"),
    ]
    for i, (argv, field) in enumerate(cases):
        out = tmp_path / str(i)
        code = main(["sweep", "--config", small_config, "--out", str(out)] + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and err.strip().count("\n") == 0
        assert not out.exists()  # rejected before any file is written


def test_sweep_negative_zero_is_zero(tmp_path, small_config):
    trees = []
    for nus in ("0", "-0"):
        out = tmp_path / nus
        argv = ["--config", small_config, "--seed", "2", "--nus", nus, "--out", str(out)]
        assert main(["sweep", *argv]) == 0
        trees.append(read_tree(out))
    assert set(trees[0]) == {"sweep_hist_nu_0.csv", "sweep_summary.csv"}
    assert trees[1] == trees[0]


# Configs that would fail partway through a run; validate() must reject them first.
_UNRUNNABLE_CONFIGS = {
    "chsh-huge-integration": ("chsh", "integration_time = 1e300", "integration_time"),
    "chsh-inf-pair-rate": ("chsh", "pair_rate = inf", "pair_rate"),
    "hom-inf-coherence": ("hom", "coherence_length = inf", "coherence_length"),
    # 10 coherence lengths overflow np.linspace's span, and the curve would be all NaN
    "hom-huge-coherence": ("hom", "coherence_length = 1e308", "coherence_length"),
    "hom-span-overflow": ("hom", "coherence_length = 3.6e307", "coherence_length"),
}


@pytest.mark.parametrize(
    ("command", "config", "field"), _UNRUNNABLE_CONFIGS.values(), ids=_UNRUNNABLE_CONFIGS.keys()
)
def test_unrunnable_config_writes_nothing(tmp_path, capsys, command, config, field):
    path = tmp_path / "bad.cfg"
    path.write_text(f"m_spatial = 12\nn_positions = 4\n{config}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.strip().count("\n") == 0 and field in err
    assert not list(out.glob("run_*"))


def test_record_count_is_bounded_up_front(tmp_path, capsys):
    """n_positions <= 64 keeps B^2 S records per draw within cli.MAX_RECORDS;
    the check is arithmetic on the config, so nothing is allocated."""
    ExperimentConfig(m_spatial=64, n_positions=64).validate()
    for n in (65, 600):
        with pytest.raises(ConfigError, match="n_positions"):
            ExperimentConfig(m_spatial=600, n_positions=n).validate()
    path = tmp_path / "wide.cfg"
    path.write_text("m_spatial = 600\nn_positions = 600\n")
    out = tmp_path / "c"
    assert main(["chsh", "--noiseless", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_positions" in err
    assert not list(out.glob("run_*"))


def test_chsh_and_sweep_never_build_a_grid(tmp_path, monkeypatch):
    """Every S that chsh computes comes from s_combination calls of at most
    _S_TILE_ROWS rows, at 276 Bob bases (more than 4 tiles); sweep bins its
    noiseless enumerations from per-basis sums and computes no S at all."""
    rows = []
    combine = chsh.s_combination

    def recorded(*args, **kwargs):
        s = combine(*args, **kwargs)
        rows.append(len(s))
        return s

    monkeypatch.setattr(chsh, "s_combination", recorded)
    config = tmp_path / "tiles.cfg"
    config.write_text("m_spatial = 40\nn_positions = 12\n")
    common = ["--config", str(config), "--seed", "1", "--out", str(tmp_path / "out")]
    for argv in (["chsh"], ["chsh", "--noiseless"]):
        rows.clear()
        assert main([*argv, *common]) == 0
        assert rows and max(rows) <= chsh._S_TILE_ROWS, argv
        assert sum(rows) % 276 == 0
    rows.clear()
    assert main(["sweep", "--alice-draws", "2", *common]) == 0
    assert rows == []


def test_tm_rejects_oversized_channel(tmp_path, capsys):
    path = tmp_path / "wide.cfg"
    path.write_text("m_spatial = 1000000\n")
    out = tmp_path / "t"
    assert main(["tm", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "m_spatial" in err
    assert not list(out.glob("run_*"))


def test_speckle_output(tmp_path, small_config):
    out = tmp_path / "sp"
    assert main(
        ["speckle", "--config", small_config, "--seed", "1", "--out", str(out), "--input-pol", "D"]
    ) == 0
    lines = (out / "run_1" / "speckle.csv").read_text().splitlines()
    assert lines[0] == "k,intensity_h,intensity_v"
    assert len(lines) == 9  # 8 spatial modes
    total = sum(float(x) for line in lines[1:] for x in line.split(",")[1:])
    assert abs(total - 1.0) < 1e-9


def test_tm_dump_round_trip(tmp_path, small_config):
    from speckle_bell.medium import load_tm

    out = tmp_path / "t"
    assert main(["tm", "--config", small_config, "--seed", "5", "--out", str(out)]) == 0
    tm = load_tm(out / "run_5" / "tm.txt")
    cfg = build_config(make_parser().parse_args(["tm", "--config", small_config, "--seed", "5"]))
    ref, _, _ = build_channel(cfg)
    assert np.array_equal(tm.entries, ref.entries)


def test_column_subcommands_never_build_the_full_channel(tmp_path, monkeypatch):
    from speckle_bell import medium

    # Every subcommand samples the input mode's block exactly once; only tm,
    # through random_tm, completes it to the full matrix with a QR.
    blocks = []
    haar_block = medium._haar_block

    def counted(m_spatial, rng):
        blocks.append(m_spatial)
        return haar_block(m_spatial, rng)

    def no_qr(*args, **kwargs):
        raise AssertionError("full channel matrix built")

    monkeypatch.setattr(medium, "_haar_block", counted)
    config = tmp_path / "m12.cfg"
    config.write_text("m_spatial = 12\nn_positions = 4\n")
    common = ["--config", str(config), "--seed", "1"]
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "qr", no_qr)
        for argv in (["chsh"], ["chsh", "--noiseless"], ["sweep", "--alice-draws", "2"],
                     ["hom", "--position", "3"], ["speckle"]):
            blocks.clear()
            assert main([*argv, *common, "--out", str(tmp_path / "out")]) == 0
            assert blocks == [12], argv
    blocks.clear()
    assert main(["tm", *common, "--out", str(tmp_path / "tm")]) == 0
    assert blocks == [12]


def test_bad_config_path(tmp_path, capsys):
    code = main(["chsh", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.strip().count("\n") == 0


def test_non_utf8_config_names_its_file(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"m_spatial = 12\n# \xff\n")
    out = tmp_path / "c"
    assert main(["chsh", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}: ")
    assert err.strip().count("\n") == 0
    assert not out.exists()
