"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from check import check_op  # noqa: E402
from speckle_bell import cli  # noqa: E402
from tracing import Tracer, per_op  # noqa: E402

SMALL = "m_spatial = 12\nn_positions = 4\nintegration_time = 5\n"


@pytest.fixture(scope="module", params=["noisy", "noiseless"])
def chsh_run(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    config = root / "small.cfg"
    config.write_text(SMALL)
    argv = ["chsh", "--config", str(config), "--seed", "5", "--out", str(root / "out")]
    if request.param == "noiseless":
        argv.insert(1, "--noiseless")
    assert cli.main(argv) == 0
    return argv, root / "out" / "run_5"


def tampered(run_dir: Path, tmp_path: Path, name: str, edit) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    path = copy / name
    path.write_text(edit(path.read_text()))
    return copy


def test_check_passes_on_library_output(chsh_run):
    argv, run_dir = chsh_run
    result = check_op("chsh", argv, run_dir)
    assert result.problems == []
    assert result.records == result.items == 28 * 28
    assert set(result.digests) == {"srecords.csv", "histogram.csv", "report.json"}


def test_check_fails_on_one_changed_digit(chsh_run, tmp_path):
    argv, run_dir = chsh_run

    def change_digit(text):
        lines = text.splitlines(keepends=True)
        row = lines[len(lines) // 2].split(",")
        s = row[4]
        i = next(i for i, c in enumerate(s) if c in "123456789")
        row[4] = s[:i] + ("1" if s[i] != "1" else "2") + s[i + 1:]
        lines[len(lines) // 2] = ",".join(row)
        return "".join(lines)

    copy = tampered(run_dir, tmp_path, "srecords.csv", change_digit)
    assert check_op("chsh", argv, copy).problems


def test_check_fails_on_changed_above_2(chsh_run, tmp_path):
    argv, run_dir = chsh_run

    def change_above_2(text):
        report = json.loads(text)
        report["above_2"] += 1
        return json.dumps(report)

    copy = tampered(run_dir, tmp_path, "report.json", change_above_2)
    assert any("above_2" in p for p in check_op("chsh", argv, copy).problems)


def test_self_times_sum_to_root():
    class Module:
        @staticmethod
        def outer():
            Module.inner()
            Module.inner()

        @staticmethod
        def inner():
            sum(range(1000))

    tracer = Tracer({"m": Module}, (("m", "outer", "outer"), ("m", "inner", "inner")))
    tracer.begin(0)
    start = perf_counter_ns()
    Module.outer()
    tracer.end(start, perf_counter_ns())
    entry = per_op(tracer.spans)[0]
    assert entry["calls"] == {"op": 1, "outer": 1, "inner": 2}
    assert sum(entry["self_ns"].values()) == entry["root_ns"]
    assert Module.inner.__name__ == "inner" and not hasattr(Module.inner, "__wrapped__")


def test_declared_workloads_match():
    from workloads import WORKLOADS

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert declared["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    section = declared["end_to_end"] if trace == "0" else declared["per_layer"]
    units = {m["name"]: m["unit"] for m in section}
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tm-roundtrip",
         "--seed", "0", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
