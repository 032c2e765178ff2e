"""Spans around sharesched's functions, installed from outside the program.

Each wrapper replaces a function on the module where its callers look the
name up (``tct.solve_alpha``, not ``linesched.solve_alpha``, because ``tct``
imported the name), so every call the program makes passes through it.  A
span records its op, name, start, end and parent; spans stay in memory until
the run ends.  A layer's self time is its spans' duration minus the time
their child spans cover.  A target the program no longer has is reported as
absent and skipped.
"""

from __future__ import annotations

import importlib
import time
from collections.abc import Sequence

# (module, attribute where callers look it up, metric prefix).  ``_kernel``
# metrics are named ``kernel.*`` because metric names start with a letter.
TARGETS = [
    ("core", "sum_steps", "core.sum_steps"),
    ("core", "validate_schedule", "core.validate_schedule"),
    ("core", "jobs_from_json", "core.jobs_from_json"),
    ("core", "schedule_to_json", "core.schedule_to_json"),
    ("waterfill", "waterfill_step", "waterfill.waterfill_step"),
    ("tct", "greedy", "tct.greedy"),
    ("_kernel", "line_volumes", "kernel.line_volumes"),
    ("_kernel", "line_structure", "kernel.line_structure"),
    ("tct", "solve_alpha", "linesched.solve_alpha"),
    ("tct", "build_line_schedule", "linesched.build_line_schedule"),
    ("lp", "dense_simplex", "lp.dense_simplex"),
    ("lp", "solve_lp", "lp.solve_lp"),
    ("tct", "ls_exact", "tct.ls_exact"),
    ("tct", "best_schedule", "tct.best_schedule"),
    ("tct", "lsapprox_report", "tct.lsapprox_report"),
    ("cli", "main", "cli.main"),
    ("cli", "run_algorithm", "cli.run_algorithm"),
]

KERNELS = ("kernel.line_volumes", "kernel.line_structure")
SOLVE = "linesched.solve_alpha"


def _module(name: str):
    return importlib.import_module(f"sharesched.{name}")


class Tracer:
    """Collects spans while installed; ``summary()`` turns them into metrics."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.spans: list[list] = []      # [op, name index, start, end, parent]
        self.child: list[float] = []     # time covered by each span's children
        self.stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []
        self.pieces = 0                  # step functions handed to sum_steps
        self.pivots = 0
        self.tableau_mb = 0.0            # largest dense-simplex tableau, computed
        self.rounds = 0
        self.kernel_in_solve = 0         # kernel calls made inside solve_alpha
        self._solving = 0
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name_idx: int) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name_idx, time.perf_counter(), 0.0, parent])
        self.child.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.perf_counter()
        span = self.spans[sid]
        span[3] = end
        self.stack.pop()
        if span[4] >= 0:
            self.child[span[4]] += end - span[2]

    def run_op(self, op: int, call):
        """Run one op as a root span."""
        self.op = op
        sid = self._open(0)
        try:
            return call()
        finally:
            self._close(sid)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, prefix: str):
        if prefix not in self.names:
            self.names.append(prefix)
        idx = self.names.index(prefix)
        tracer = self
        kernel = prefix in KERNELS
        solve = prefix == SOLVE
        counted = prefix in ("core.sum_steps", "lp.dense_simplex", "lp.solve_lp")

        def traced(*args, **kwargs):
            if counted:
                args = tracer._count_args(prefix, args)
            if kernel and tracer._solving:
                tracer.kernel_in_solve += 1
            tracer._solving += solve
            sid = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
                tracer._solving -= solve
            if counted:
                tracer._count_result(prefix, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_args(self, prefix: str, args: tuple) -> tuple:
        if prefix == "core.sum_steps" and args:
            fns = args[0] if isinstance(args[0], Sequence) else list(args[0])
            self.pieces += len(fns)
            return (fns,) + args[1:]
        if prefix == "lp.dense_simplex" and len(args) > 1:
            m, nvar = getattr(args[1], "shape", (0, 0))
            self.tableau_mb = max(self.tableau_mb, m * (nvar + m) * 8 / 1e6)
        return args

    def _count_result(self, prefix: str, result) -> None:
        if prefix == "lp.dense_simplex":
            self.pivots += int(result[3])
        elif prefix == "lp.solve_lp":
            self.rounds += int(result.rounds)

    def install(self) -> None:
        self.absent = []
        for mod_name, attr, prefix in TARGETS:
            mod = _module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(prefix)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, prefix))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_ms(self) -> dict[tuple[int, str], list]:
        """Calls and self time per (op, name)."""
        out: dict[tuple[int, str], list] = {}
        for sid, (op, idx, start, end, _) in enumerate(self.spans):
            acc = out.setdefault((op, self.names[idx]), [0, 0.0])
            acc[0] += 1
            acc[1] += (end - start - self.child[sid]) * 1e3
        return out

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded."""
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        for (_, name), (c, ms) in self.self_ms().items():
            calls[name] = calls.get(name, 0) + c
            self_ms[name] = self_ms.get(name, 0.0) + ms
        out = {}
        for _, _, prefix in TARGETS:
            out[f"{prefix}.calls"] = calls.get(prefix, 0)
            out[f"{prefix}.self_ms"] = self_ms.get(prefix, 0.0)
        solves = calls.get(SOLVE, 0)
        out["core.sum_steps.pieces"] = self.pieces
        out["linesched.solve_alpha.kernel_calls_per_solve"] = (
            self.kernel_in_solve / solves if solves else 0.0)
        out["lp.dense_simplex.pivots"] = self.pivots
        out["lp.dense_simplex.tableau_mb"] = self.tableau_mb
        lp_solves = calls.get("lp.solve_lp", 0)
        out["lp.solve_lp.rounds_per_solve"] = self.rounds / lp_solves if lp_solves else 0.0
        return out

    def span_records(self) -> dict:
        return {"names": self.names,
                "fields": ["op", "name", "start_s", "end_s", "parent"],
                "spans": self.spans}
