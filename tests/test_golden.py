"""Golden output digests: the SHA-256 of every file each subcommand writes
under a small fixed config and seed.

Unlike the reproducibility tests, which compare two runs of the same code,
these pin the bytes across code changes.  Every digest depends on the lit
input mode's channel block and Alice's analyzer states, which use no BLAS, so
every case but ``tm`` gives the same digests under OpenBLAS's ``SkylakeX``,
``Haswell``, ``Sandybridge`` and ``Prescott`` kernels (``OPENBLAS_CORETYPE``).
``tm.txt`` also holds the block's QR completion from the platform's LAPACK:
its digest was taken under ``SkylakeX`` and fails under the other three.  A
digest that differs on another machine is a finding to record, not a
tolerance to add.
"""

import hashlib

import pytest

from speckle_bell.cli import main

SMALL = """
m_spatial = 12
n_positions = 4
visibility = 0.93
"""

# Few counts per cell at nu = 0: empty cells give sigma-0 records, bases
# with no counts at all are skipped, and the report's max_s_sigma is 0.
SEPARABLE_LOW_COUNT = """
m_spatial = 12
n_positions = 4
visibility = 0
integration_time = 0.3
"""

# 24 projectors give 276 Bob bases: the S rows of chsh and sweep cross tile
# edges (64 rows each, the last tile partial).
TILES = """
m_spatial = 40
n_positions = 12
visibility = 0.93
"""

CASES = {
    "chsh-noisy": (SMALL, ["chsh"]),
    "chsh-noiseless": (SMALL, ["chsh", "--noiseless"]),
    "chsh-separable-low-count": (SEPARABLE_LOW_COUNT, ["chsh"]),
    "chsh-tiles": (TILES, ["chsh"]),
    "chsh-tiles-noiseless": (TILES, ["chsh", "--noiseless"]),
    "sweep": (SMALL, ["sweep", "--nus", "0,0.93,1", "--alice-draws", "3"]),
    "sweep-tiles": (TILES, ["sweep", "--nus", "0,0.93,1", "--alice-draws", "2"]),
    "hom": (SMALL, ["hom", "--position", "2", "--bob-detector", "2",
                    "--alice-hwp-deg", "10", "--alice-qwp-deg", "30"]),
    # Coherence length, visibility, point count and Alice detector off their defaults.
    "hom-wide": (SMALL + "coherence_length = 0.37\n",
                 ["hom", "--nu", "0.5", "--points", "7", "--alice-detector", "2"]),
    "speckle": (SMALL, ["speckle", "--input-pol", "R"]),
    "speckle-D": (SMALL, ["speckle", "--input-pol", "D"]),
    "tm": (SMALL, ["tm"]),
}

SEED = "1"

GOLDEN = {
    "chsh-noiseless/histogram.csv": "4c22ebdd30dcccb26b5910121d0656878e8da152b4ab1da503b4e469c3da5fa2",
    "chsh-noiseless/report.json": "08fe534fec094ca6a90db460ba68a62d862c9bf25e1d0d665cc9a30469b96edf",
    "chsh-noiseless/srecords.csv": "25dc79ebbb8e3bfa232bf2b1ec20a02bdb6a6bcca4badc651f1ec5cdc8cea70e",
    "chsh-noisy/histogram.csv": "41c7c12b5e24632b82ce6c59edbc15e6553b341d8199c334fbc51f20eabc388d",
    "chsh-noisy/report.json": "77a73b7711a58bc66bbf76f1f1c0854ca1c9c9aa58c14fec00469db86a559a1f",
    "chsh-noisy/srecords.csv": "3d6f5de6b7d7f93d2da6d9ea9a625de7100bcfe7ea926f2d9fe956134da81945",
    "chsh-separable-low-count/histogram.csv": "1a17f4c6ed80475f029a03a4fa1f38a97d1316a230ac49fb547b2d3713c779a3",
    "chsh-separable-low-count/report.json": "071ac1c6366f4e0d03f4af97936fa469fbd967395af1b98dbbe63ffffce881c5",
    "chsh-separable-low-count/srecords.csv": "8e0ad3f369796e5c417eff1a9e222c888968bd29ffa6bf869f0dace25824021c",
    "chsh-tiles-noiseless/histogram.csv": "54d1078c024cf81af47656d1e78f5380b621942647f7c651c480830e8801f1d9",
    "chsh-tiles-noiseless/report.json": "93e240650f80af845f42c478f56e773f19000b32102d16c4eb031d136f07ee5e",
    "chsh-tiles-noiseless/srecords.csv": "3e85a40a1d2fbcb6f70d92669d5aa57bad9c45c66ba71b4a230c47228331ce22",
    "chsh-tiles/histogram.csv": "c7f6b9aace20a7ee0496a9f54d3e7cab30e85ff1fd3c85d7b1d209be5be46c8f",
    "chsh-tiles/report.json": "7b614b0fe570742d69a962dbf7abeed0c0d95b0fb7d858acbde64bd4fcf1e1bc",
    "chsh-tiles/srecords.csv": "428944715d049838967173e4a8f17072a9f924026c1ea0f71240826f236410d7",
    "hom-wide/hom_0.csv": "d70effd5dcd4e23201a52ab8b9d928a21f17f3b19abd0397d3c1c8751bec67dd",
    "hom/hom_5.csv": "c3b10e74bc7db4a891f9af030841ddd5ce8971d8efa257e30f3b7e33badcfeab",
    "speckle-D/speckle.csv": "62eeff4fb3cc2d2ab403425c267db073b8cb50393bfd1e603b72af5bff3ee1ba",
    "speckle/speckle.csv": "d46fda6b7281dae5744cd2f6e3d84ae19e2aae39405f4fa390e26fcf69707975",
    "sweep-tiles/sweep_hist_nu_0.93.csv": "70b86e498ff0e6702302dd625bec09656e05669fc52c1227f7e5a0a94e30f7e9",
    "sweep-tiles/sweep_hist_nu_0.csv": "e0b1f788385b3bfb2e68e4ea4ee9e6b1dd24bb6309d827c3689c0e5b9da355f3",
    "sweep-tiles/sweep_hist_nu_1.csv": "c20cf36b62cf492424393f6a5f42c186813f31620d80559c33e9831cc3ea4832",
    "sweep-tiles/sweep_summary.csv": "af7a77382f2feb287805c2ad7d793a9a99ab5f84ca97a8cd1a2c509f67804eaa",
    "sweep/sweep_hist_nu_0.93.csv": "8bf2384a0c5cd441d626e87f006392eaf0f322a3c0add1171fe4943231a370f4",
    "sweep/sweep_hist_nu_0.csv": "ce81e3184a02b521aec04348ddbb802b5402b45a7162c4346648327a521aed92",
    "sweep/sweep_hist_nu_1.csv": "f7fcc4622d3b2f0c183e1e5d5f6a9cc93a2ed75d424f778b213e377dd1eb6520",
    "sweep/sweep_summary.csv": "e33410fee4a701e545581fea2c1fd0d03fcecf39f311cb90ba0ff334a3e3bf2f",
    "tm/tm.txt": "2cb5f0048843c3aca5e44057b623fe9bd669e62b68a6e9ab6998394f216d5e1f",
}


def run_case(tmp_path, name):
    """Digests of the files one case writes, keyed ``<case>/<file name>``."""
    config, argv = CASES[name]
    path = tmp_path / "golden.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--seed", SEED, "--out", str(out)]) == 0
    return {
        f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((out / f"run_{SEED}").iterdir())
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(tmp_path, name):
    want = {key: digest for key, digest in GOLDEN.items() if key.startswith(f"{name}/")}
    assert run_case(tmp_path, name) == want
