"""Benchmark workloads: the CLI call each op makes and why it is measured.

Every op is one ``speckle_bell.cli.main(argv)`` call (the ``tm`` workload
also reads the written matrix back).  The library sees only the argv and the
config file generated here; each op's master ``--seed`` is derived from the
workload seed and the op index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "chsh", "sweep" or "tm": selects the output check
    args: tuple[str, ...]  # subcommand and its flags
    config: str  # text of the generated config file
    items: str  # what items_per_s counts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chsh-default",
            "noisy chsh at the defaults (M=200, 189,225 records): record assembly "
            "and the CSV writer dominate, channel sampling is a few percent",
            "chsh",
            ("chsh",),
            "# package defaults\n",
            "S values",
        ),
        Workload(
            "chsh-wide-fiber",
            "noiseless chsh at m_spatial=1000: the full (2000x2000) QR in "
            "medium.random_tm dominates, the M >= 1000 scaling point",
            "chsh",
            ("chsh", "--noiseless"),
            "m_spatial = 1000\n",
            "S values",
        ),
        Workload(
            "sweep-noiseless",
            "sweep over nu=0,0.93,1 with 100 Alice draws: array path (300 S grids "
            "and histograms), no records and no srecords.csv",
            "sweep",
            ("sweep", "--nus", "0,0.93,1", "--alice-draws", "100"),
            "# package defaults\n",
            "S values",
        ),
        Workload(
            "tm-roundtrip",
            "tm at M=200 then medium.load_tm: the only path that needs the whole "
            "unitary and the text I/O in medium",
            "tm",
            ("tm",),
            "# package defaults\n",
            "matrix entries written and read back",
        ),
    )
}


def op_seed(workload: str, seed: int, op: int) -> int:
    """Master ``--seed`` of one op, a 48-bit function of (workload, seed, op)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{op}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


class Inputs:
    """Generated inputs of one run: a config file and the argv of each op."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = work_dir / "out"
        self.config_path = work_dir / "workload.cfg"
        self.config_path.write_text(workload.config)

    def argv(self, op: int) -> list[str]:
        return [
            *self.workload.args,
            "--config", str(self.config_path),
            "--seed", str(op_seed(self.workload.name, self.seed, op)),
            "--out", str(self.out_dir),
        ]

    def run_dir(self, op: int) -> Path:
        """Directory the CLI writes op ``op`` into (``<out>/run_<seed>``)."""
        return self.out_dir / f"run_{op_seed(self.workload.name, self.seed, op)}"
