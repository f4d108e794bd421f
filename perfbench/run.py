"""speckle-bell benchmark: one workload, a closed loop with one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload chsh-default --seed 1 --seconds 13 --trace 0

A fresh worker process (``worker.py``) imports ``speckle_bell`` from
``src/`` and runs ops one at a time; the next op is sent only after the
previous one returned and its outputs were checked (``check.py``), so the
checks are never timed.  Op 0 warms the process up and is checked but not
timed; timed ops follow until their wall times add up to ``--seconds``.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` every other timed op is traced (``tracing.py``), and the result
holds the per-layer metrics, each the median over traced ops, plus the
tracing overhead measured against the untraced ops of the same run.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
a fuller record with the environment stamp and each op's output digests is
written under ``.perfbench/`` in the repository root.  Two runs at one seed
on one source tree must produce identical digests; a mismatch fails the op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_SAMPLES = 5  # fresh interpreters per run, the worker's own start included
RUN_WALL_CAP_S = 120.0  # no new op starts after this much wall time
DEADLINE_S = 170.0  # the worker is killed after this much wall time
CLOSE_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "wall_s_p50": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}

# Inclusive time of the outermost span of each name, seconds per op.
SPAN_SECONDS = (
    "medium.random_tm", "medium.bob_projector_set", "cli.build_channel",
    "cli.draw_alice_pair", "medium.save_tm", "medium.load_tm", "chsh.rate_matrix",
    "chsh.s_grid", "stats.histogram", "stats.noisy_enumerate", "chsh.enumerate_s",
    "chsh.write_srecords_csv", "stats.certify", "stats.write_histogram_csv",
    "stats.write_report_json",
)
SPAN_CALLS = ("pairsource.joint_probability", "stats.histogram", "stats.record_stream")

PER_LAYER = {
    **{f"{name}.s": "s" for name in SPAN_SECONDS},
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    "medium.tm.bytes": "bytes",
    "medium.tm_txt.bytes": "bytes",
    "chsh.records": "count",
    "chsh.srecords_csv.bytes": "bytes",
    "stats.sigma0_records": "count",
    "cli.self.s": "s",
    "cli.output.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def limit_blas_threads() -> int:
    """Cap BLAS threads at nproc, for this process and the worker."""
    limit = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            limit = min(limit, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    limit = max(limit, 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(limit)
    return limit


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(blas_limit: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_limit": blas_limit,
        "nproc": nproc(),
        "cpu": cpu,
    }


class Worker:
    """One worker process; ``ready_s`` is its start-to-ready time."""

    def __init__(self, workload: str, seed: int, work_dir: Path, setup_only: bool = False):
        argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed),
                str(work_dir)] + (["--setup-only"] if setup_only else [])
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self._kill = threading.Timer(DEADLINE_S, self.proc.kill)
        self._kill.start()
        try:
            ready = self.receive().get("ready")
        except RuntimeError:
            ready = False
        self.ready_s = time.perf_counter() - start
        if not ready:
            self.close()
            raise RuntimeError("worker failed to start")

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited (code {self.proc.poll()})")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> None:
        self._kill.cancel()
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def layer_values(trace: dict, check) -> dict[str, float]:
    """Per-layer metric values of one traced op."""
    values = {f"{n}.s": trace["incl_ns"].get(n, 0) / 1e9 for n in SPAN_SECONDS}
    values.update({f"{n}.calls": trace["calls"].get(n, 0) for n in SPAN_CALLS})
    values.update({
        "medium.tm.bytes": trace["calls"].get("medium.random_tm", 0) * 16 * (2 * check.m_spatial) ** 2,
        "medium.tm_txt.bytes": check.file_bytes.get("tm.txt", 0),
        "chsh.records": check.records,
        "chsh.srecords_csv.bytes": check.file_bytes.get("srecords.csv", 0),
        "stats.sigma0_records": check.sigma0_records,
        "cli.self.s": trace["self_ns"].get("cli.main", 0) / 1e9,
        "cli.output.bytes": sum(check.file_bytes.values()),
    })
    return values


def compare_digests(workload: str, seed: int, src_sha: str, digests: dict) -> list[str]:
    """Merge this run's digests into the store; name ops that differ from a past run."""
    path = STATE / "digests" / src_sha[:16] / f"{workload}-{seed}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    differing = [op for op, files in digests.items() if op in stored and stored[op] != files]
    stored.update(digests)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return differing


def run(workload_name: str, seed: int, seconds: float, trace: bool, blas_limit: int) -> dict:
    from check import check_op
    from tracing import per_op
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    env = environment(blas_limit)
    work_dir = STATE / "work" / f"{workload_name}-{seed}-{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    started = time.monotonic()
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Worker(workload_name, seed, work_dir, setup_only=True)
        probe.close()
        setup.append(probe.ready_s)
    ops, checks = [], {}
    worker = Worker(workload_name, seed, work_dir)
    try:
        setup.append(worker.ready_s)
        timed_s, kinds = 0.0, set()
        op = 0
        while op == 0 or timed_s < seconds or (trace and len(kinds) < 2):
            if time.monotonic() - started > RUN_WALL_CAP_S:
                break
            traced = trace and op % 2 == 1
            reply = worker.request({"op": op, "traced": traced})
            reply["traced"] = traced
            ops.append(reply)
            if reply["error"] is None:
                run_dir = Path(reply["run_dir"])
                checks[op] = check_op(workload.kind, reply["argv"], run_dir)
                shutil.rmtree(run_dir, ignore_errors=True)
            if op > 0:
                timed_s += reply["wall_ns"] / 1e9
                kinds.add(traced)
            op += 1
        spans_path = STATE / "spans" / f"{workload_name}-{seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        final = worker.request({"end": str(spans_path)})
    finally:
        worker.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    digests = {str(op): c.digests for op, c in checks.items()}
    differing = set(compare_digests(workload_name, seed, env["src_sha256"], digests))
    failures = {}
    for reply in ops:
        op = reply["op"]
        if reply["error"] is not None:
            failures[op] = [reply["error"]]
        elif checks[op].problems or str(op) in differing:
            failures[op] = checks[op].problems + (
                ["output digests differ from an earlier run at this seed"]
                if str(op) in differing else [])

    timed = [r for r in ops if r["op"] > 0]
    untraced_s = [r["wall_ns"] / 1e9 for r in timed if not r["traced"]]
    env["blas_threads"] = final["blas_threads"]
    result = {
        "workload": workload_name, "why": workload.why, "seed": seed, "trace": int(trace),
        "env": env, "setup_samples_s": setup, "warmup_s": ops[0]["wall_ns"] / 1e9,
        "op_wall_s": [r["wall_ns"] / 1e9 for r in ops], "failures": failures,
        "digests": digests, "trace_ok": True,
    }
    if not trace:
        items = sum(checks[r["op"]].items for r in timed if r["op"] not in failures)
        q1, _, q3 = quartiles(untraced_s)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s_p50": statistics.median(untraced_s),
            "items_per_s": items / sum(untraced_s),
            "peak_rss_mb": final["peak_rss_kb"] / 1024,
        }
        result["wall_s"] = {"samples": len(untraced_s), "q1": q1, "q3": q3,
                            "max": max(untraced_s)}
        result["items"] = workload.items
    else:
        spans = json.loads(spans_path.read_text())
        traces = per_op(spans)
        per_metric = {name: [] for name in PER_LAYER if name != "trace.overhead_frac"}
        traced_s = []
        for op, entry in sorted(traces.items()):
            if sum(entry["self_ns"].values()) != entry["root_ns"]:
                result["trace_ok"] = False
            traced_s.append(entry["root_ns"] / 1e9)
            if op in checks:
                for name, value in layer_values(entry, checks[op]).items():
                    per_metric[name].append(value)
        metrics = {name: statistics.median(v) for name, v in per_metric.items()}
        wall = statistics.median(traced_s)
        metrics["trace.overhead_frac"] = wall / statistics.median(untraced_s) - 1
        result["traced_wall_s_p50"] = wall
        result["shares_of_traced_wall"] = {
            "medium.random_tm": metrics["medium.random_tm.s"] / wall,
            "stats.noisy_enumerate+chsh.write_srecords_csv":
                (metrics["stats.noisy_enumerate.s"] + metrics["chsh.write_srecords_csv.s"]) / wall,
        }
    units = END_TO_END if not trace else PER_LAYER
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    result["attempted"] = len(ops)
    result["failed"] = len(failures)
    result["correct"] = not failures and result["trace_ok"]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "speckle_bell" / "__init__.py").is_file():
        print(f"error: no speckle_bell sources under {SRC}", file=sys.stderr)
        return 2
    blas_limit = limit_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), blas_limit)
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    for op, problems in result["failures"].items():
        print(f"op {op} failed: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"env": result["env"]}))
    if "wall_s" in result:
        print(json.dumps({"wall_s": result["wall_s"], "setup_samples_s": result["setup_samples_s"]}))
    if "shares_of_traced_wall" in result:
        print(json.dumps({"shares_of_traced_wall": result["shares_of_traced_wall"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
