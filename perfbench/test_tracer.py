"""The tracer wraps the program where its callers look names up, splits time
into self time, and reports missing targets instead of failing.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
from sharesched import JobSet, _kernel, core, tct, waterfill  # noqa: E402
from workloads import lhs_jobs  # noqa: E402


def _jobs(seed, n):
    v, r = lhs_jobs(np.random.default_rng(seed), n)
    return JobSet.of(zip(v.tolist(), r.tolist()))


@pytest.fixture
def tr():
    t = tracer.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_self_times_partition_each_op(tr):
    jobs = _jobs(1, 6)
    tr.run_op(0, lambda: (waterfill.waterfill_online(jobs), tct.best_schedule(jobs)))
    per = tr.self_ms()
    root = tr.spans[0]
    assert root[4] == -1 and tr.names[root[1]] == "op"
    total = sum(ms for (op, _), (_, ms) in per.items() if op == 0)
    assert total == pytest.approx((root[3] - root[2]) * 1e3, rel=1e-9)
    assert all(ms >= 0.0 for _, ms in per.values())
    s = tr.summary()
    assert s["waterfill.waterfill_step.calls"] == 6
    assert s["core.sum_steps.calls"] >= 6 and s["core.sum_steps.pieces"] >= 15
    assert s["linesched.solve_alpha.calls"] == 1
    assert s["linesched.solve_alpha.kernel_calls_per_solve"] > 10
    assert s["kernel.line_structure.calls"] >= 1   # build_line_schedule, outside solve_alpha


def test_lp_counters(tr):
    jobs = _jobs(2, 3)
    tr.run_op(0, lambda: tct.lsapprox_report(jobs, tct.LsApproxParams(0.5)))
    s = tr.summary()
    assert s["lp.solve_lp.calls"] == 1
    assert s["lp.dense_simplex.calls"] == s["lp.solve_lp.rounds_per_solve"] >= 1
    assert s["lp.dense_simplex.pivots"] > 0 and s["lp.dense_simplex.tableau_mb"] > 0.0


def test_uninstall_restores_the_program():
    before = (core.sum_steps, _kernel.line_volumes, tct.solve_alpha)
    t = tracer.Tracer()
    t.install()
    assert core.sum_steps is not before[0]
    t.uninstall()
    assert (core.sum_steps, _kernel.line_volumes, tct.solve_alpha) == before


def test_missing_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS",
                        tracer.TARGETS + [("core", "no_such_function", "core.no_such_function")])
    t = tracer.Tracer()
    t.install()
    try:
        t.run_op(0, lambda: tct.greedy(_jobs(3, 4)))
    finally:
        t.uninstall()
    assert t.absent == ["core.no_such_function"]
    s = t.summary()
    assert s["core.no_such_function.calls"] == 0
    assert s["tct.greedy.calls"] == 1
