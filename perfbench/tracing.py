"""Spans around the library's public functions, recorded from outside it.

A traced op wraps each function below at the module attribute its callers
look it up through (``stats.rate_matrix`` is imported by name, so it is
wrapped there as well as in ``chsh``), runs, and restores the originals.
A span is ``(op, name, start_ns, end_ns, parent)``; ``parent`` indexes the
span list, -1 for the op's root span.  Spans stay in memory until the run
ends.  ``SRecord`` construction is deliberately not wrapped.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_channel", "cli.build_channel"),
    ("cli", "draw_alice_pair", "cli.draw_alice_pair"),
    ("medium", "random_tm", "medium.random_tm"),
    ("medium", "bob_projector_set", "medium.bob_projector_set"),
    ("medium", "save_tm", "medium.save_tm"),
    ("medium", "load_tm", "medium.load_tm"),
    ("pairsource", "joint_probability", "pairsource.joint_probability"),
    ("chsh", "joint_probability", "pairsource.joint_probability"),
    ("chsh", "rate_matrix", "chsh.rate_matrix"),
    ("stats", "rate_matrix", "chsh.rate_matrix"),
    ("chsh", "s_grid", "chsh.s_grid"),
    ("chsh", "enumerate_s", "chsh.enumerate_s"),
    ("chsh", "write_srecords_csv", "chsh.write_srecords_csv"),
    ("stats", "noisy_enumerate", "stats.noisy_enumerate"),
    ("stats", "record_stream", "stats.record_stream"),
    ("stats", "histogram", "stats.histogram"),
    ("stats", "certify", "stats.certify"),
    ("stats", "write_histogram_csv", "stats.write_histogram_csv"),
    ("stats", "write_report_json", "stats.write_report_json"),
)

ROOT = "op"


class Tracer:
    def __init__(self, modules: dict, targets=TARGETS):
        self.modules = modules
        self.targets = targets
        self.spans: list = []
        self._stack = [-1]
        self._op = -1

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (self._op, name, start, end, parent)

        return wrapper

    def begin(self, op: int) -> None:
        """Open the root span of ``op`` and install the wrappers."""
        self._op = op
        self._saved = []
        for module, attr, name in self.targets:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))
        self._root = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._root)

    def end(self, start_ns: int, end_ns: int) -> None:
        """Close the root span with the op's measured wall interval."""
        for mod, attr, original in self._saved:
            setattr(mod, attr, original)
        self._stack.pop()
        self.spans[self._root] = (self._op, ROOT, start_ns, end_ns, -1)


def per_op(spans: list) -> dict[int, dict]:
    """Per op: inclusive seconds and call count by name, and self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that (indirectly) calls itself is not counted twice.  ``self_ns`` of a
    span is its duration minus its children's; they sum to the root's.
    """
    child_ns = [0] * len(spans)
    for op, name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    ops: dict[int, dict] = defaultdict(
        lambda: {"incl_ns": defaultdict(int), "calls": defaultdict(int),
                 "self_ns": defaultdict(int), "root_ns": 0}
    )
    for index, (op, name, start, end, parent) in enumerate(spans):
        entry = ops[op]
        entry["calls"][name] += 1
        entry["self_ns"][name] += (end - start) - child_ns[index]
        if parent < 0:
            entry["root_ns"] = end - start
        if not _inside(spans, parent, name):
            entry["incl_ns"][name] += end - start
    return dict(ops)


def _inside(spans: list, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][1] == name:
            return True
        parent = spans[parent][4]
    return False
