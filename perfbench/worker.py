"""Workload process: imports speckle_bell, generates the inputs, runs ops.

Usage: ``python3 worker.py <repo root> <workload> <seed> <work dir> [--setup-only]``.
After set-up it writes ``{"ready": ...}``; then it reads one JSON request a
line from stdin and answers each on stdout:

- ``{"op": i, "traced": bool}`` runs op ``i`` and answers with its wall time;
- ``{"end": spans_path}`` writes the recorded spans and answers with the
  process's peak RSS and BLAS thread count, then exits.

With ``--setup-only`` it exits right after ``ready``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns


def blas_threads() -> int | None:
    """Threads OpenBLAS uses, asked from the library numpy loaded."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    root, name, seed, work_dir = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    src = root / "src"
    sys.path.insert(0, str(src))
    from speckle_bell import chsh, cli, medium, pairsource, stats

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"speckle_bell imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, Inputs

    workload = WORKLOADS[name]
    inputs = Inputs(workload, seed, work_dir)
    proto = sys.stdout

    def send(message: dict) -> None:
        proto.write(json.dumps(message) + "\n")
        proto.flush()

    send({"ready": True})
    if "--setup-only" in sys.argv[5:]:
        return 0

    modules = {"cli": cli, "medium": medium, "pairsource": pairsource,
               "chsh": chsh, "stats": stats}
    tracer = Tracer(modules)
    for line in sys.stdin:
        request = json.loads(line)
        if "end" in request:
            with open(request["end"], "w") as fh:
                json.dump(tracer.spans, fh)
            send({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "blas_threads": blas_threads()})
            return 0
        op, traced = request["op"], request["traced"]
        argv = inputs.argv(op)
        error = None
        if traced:
            tracer.begin(op)
        start = perf_counter_ns()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
                if code == 0 and workload.kind == "tm":
                    medium.load_tm(inputs.run_dir(op) / "tm.txt")
            if code != 0:
                error = f"exit code {code}"
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=3)
        end = perf_counter_ns()
        if traced:
            tracer.end(start, end)
        send({"op": op, "argv": argv, "run_dir": str(inputs.run_dir(op)),
              "wall_ns": end - start, "error": error})
    return 1


if __name__ == "__main__":
    sys.exit(main())
