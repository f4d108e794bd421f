"""Golden output digests: the SHA-256 of every file each subcommand writes
under a small fixed config and seed.

Unlike the reproducibility tests, which compare two runs of the same code,
these pin the bytes across code changes.  Every digest depends on the
channel matrix, whose QR factorization comes from the platform's LAPACK; a
digest that differs on another machine is a finding to record, not a
tolerance to add.  The digests were taken under OpenBLAS's AVX-512
``SkylakeX`` kernel: under ``OPENBLAS_CORETYPE=Haswell``, ``Zen`` or
``Sandybridge`` the QR changes bits and ``chsh-noiseless``,
``chsh-tiles-noiseless`` and ``tm`` fail, and pre-FMA kernels (``Sandybridge``,
``Prescott``) also change Alice's 2x2 Jones product.
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
    "chsh-noiseless/histogram.csv": "0a5eb4a386325763123e7e47df2e3a6fa9abb4e6f870874e99363bd6a16f6638",
    "chsh-noiseless/report.json": "2b60515ec79161cdb02afeb034400b6194b330a62290e850c8a371a20a186a10",
    "chsh-noiseless/srecords.csv": "dd264ba2ad3bdf3ca432923785f37a3ef2705b8e27b99075923ef915fa6c64f4",
    "chsh-noisy/histogram.csv": "f5ef00122e7b96836da5e3637a2f3b5b79744c97529e62d27430f7afb53821d2",
    "chsh-noisy/report.json": "00c900d0041c879c67033e09c5ad4a5bab0bc492fc83e10fcabb879defdde710",
    "chsh-noisy/srecords.csv": "8c4c65d664f797633692d2d02673ee7144cec86df474ce84cd4204caa8abbb9a",
    "chsh-separable-low-count/histogram.csv": "2fec7e56bbe6a1d2e9e55be7e8814232765eb6bc3920d4527de1d0a11b69a9af",
    "chsh-separable-low-count/report.json": "9083125e01843e6afd4eb88c4bfbc3946f0742b574bdac6cced698116583625d",
    "chsh-separable-low-count/srecords.csv": "dcd73fa5248fce0880bc421698bcd3132bfaab0887fbf820579d3c728af513f3",
    "chsh-tiles/histogram.csv": "5aa64b1a55e6dc6ddf4c2aa7b5e26c681dc9767c7c895ceb36b39f032da4ac02",
    "chsh-tiles/report.json": "c30e0b28526553e95ea094d13b3e6587b892c164014d206e77c548edb4500e11",
    "chsh-tiles/srecords.csv": "6ea3f07880253c3be2a4332a3f58f19ce5fd5edde9097668587e11b167428e71",
    "chsh-tiles-noiseless/histogram.csv": "a5119118b17ca241b75953e9e499f8893c5d1a06a30e24cd5dbc57d4469d2b36",
    "chsh-tiles-noiseless/report.json": "a485985e97dd548527bf6fded9d2997d3ae03d7cfea5ccb54497b4a756a517ee",
    "chsh-tiles-noiseless/srecords.csv": "29b987b5bfec39c304999451bc06ed4238cb44af519759b5f6c2e945aa3590e4",
    "hom/hom_5.csv": "de124ce1cd598c1c99b552589dcfd1a9471a04d1f8c7f5d123e1024797329c14",
    "hom-wide/hom_0.csv": "80b253d474f0aa145b856c4ef7c576aba2074e170e87ab814645f9b5a0c6a5dd",
    "speckle/speckle.csv": "5a50f3e57ffa1d5abf3f4b5aeef84c0b7d857f9cd2ff041fd1335b358e755b19",
    "speckle-D/speckle.csv": "a3c60f1cf36cb6517aaedd1103dd9e0b05d0d42d79a7e60d27e98aa1ad193bf3",
    "sweep/sweep_hist_nu_0.93.csv": "b22b38cd622026a0d5a52f9a39521e577ac4f69212a17b1c43efe631007db107",
    "sweep/sweep_hist_nu_0.csv": "61c202a67e9e185532ea3ca61102295d78e707d1d6aeedc9e76430cd17cef143",
    "sweep/sweep_hist_nu_1.csv": "e887db6669e9d19ed7e0a5d4d3be943ac2b537d70f98632f86f7d49184f470d9",
    "sweep/sweep_summary.csv": "57211cb49f446226838a272400b91871fa33eb8d255204940173302721f6b80f",
    "sweep-tiles/sweep_hist_nu_0.93.csv": "0b984ebb36a6572903fa44e7a256dc64037fc9384ab68107a0d5847828159257",
    "sweep-tiles/sweep_hist_nu_0.csv": "81da43fd7d7a6a256a64b1dc7be09e779871ee6cf00ee1c05a3d3403b34f789d",
    "sweep-tiles/sweep_hist_nu_1.csv": "f7045117e9f33d7af58484633fc7261e81f2c7df4aaeaf84eee20671a71efc3e",
    "sweep-tiles/sweep_summary.csv": "16eb2c41e10bc8d336a4cfe6ecd69cab4cf366da94e787ffd344670c36a62b57",
    "tm/tm.txt": "a98d67e0f54f324097df1cb7dda0be2c71e0e06264a4c05ca71a4d9dfec3b26f",
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
