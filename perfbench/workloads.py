"""The four workloads: a seeded batch of instances, the timed call of each
op, and the checks on each op's output.

Instances are Latin-hypercube draws: each job of an n-job instance takes its
own stratum of log-volume in [0.1, 10] and its own stratum of requirement in
(0.05, 1] (tct-lp narrows both), paired at random.  Independent draws made the number of
``solve_alpha`` kernel calls bimodal (about 500 or 850-1200 at n=8), which
moved a batch's summed time by several percent from seed to seed; strata keep
every instance spread over the whole range.  The sizes of each batch are
fixed, so every seed gives the same mix and every run solves all of it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from sharesched import JobSet, cli, lp, tct, waterfill

#: the approximation pipeline's accuracy, ``LsApproxParams(0.5)``
EPSILON = 0.5
KAPPA = 0.05
MU = 1.0 / max(2, math.ceil(1.0 / (KAPPA * EPSILON)))
#: the pipeline's default slot count on its horizon n * p_max
PIPELINE_SLOTS = 1024

#: seed of the warm-up instances, which do not depend on --seed
WARMUP_SEED = 20231009


@dataclass
class Outcome:
    """What the checks made of one op's output."""

    failure: str | None = None
    schedules: list = field(default_factory=list)  # each a list of per-job (edges, values)
    errors: list[str] = field(default_factory=list)
    deferred: list[Callable[[], list[str]]] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        h = hashlib.sha256((self.failure or "").encode())
        for steps in self.schedules:
            for e, x in steps:
                h.update(np.ascontiguousarray(e, dtype=float).tobytes())
                h.update(np.ascontiguousarray(x, dtype=float).tobytes())
        return h.hexdigest()


@dataclass
class Case:
    """One op: ``call`` is timed, ``inspect`` reads and checks its result."""

    name: str
    entry: str
    v: np.ndarray
    r: np.ndarray
    call: Callable[[], object]
    inspect: Callable[[object], Outcome]


@dataclass
class Workload:
    cases: list[Case]
    warmup: Callable[[], object]
    cleanup: Callable[[], None] = lambda: None


def lhs_jobs(rng: np.random.Generator, n: int, vmin: float = 0.1,
             rmin: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Latin-hypercube volumes in [vmin, 10] (log scale) and requirements in (rmin, 1]."""
    u = (rng.permutation(n) + rng.random(n)) / n
    w = (rng.permutation(n) + rng.random(n)) / n
    return vmin * (10.0 / vmin) ** u, 1.0 - (1.0 - rmin) * w


def _jobs(v, r) -> JobSet:
    return JobSet.of(zip(v.tolist(), r.tolist()))


def _steps(sched) -> list:
    return [(a.edges, a.values) for a in sched.assignments]


# -- online-stream ------------------------------------------------------------

STREAMS = 28
STREAM_N = 200
ADVERSARIAL_N = 300


def _stream(jobs):
    return waterfill.waterfill_online(jobs), tct.greedy(jobs)


def _inspect_stream(v, r):
    def inspect(result) -> Outcome:
        run, sched = result
        if not run.ok:
            return Outcome(failure=f"water-fill stopped at job {run.failure_index}")
        online, offline = _steps(run.final_schedule()), _steps(sched)
        bound = checks.squashed_area_bound(v) + checks.total_length_bound(v, r)
        errors = (checks.feasibility_errors(v, r, online)
                  + checks.online_deadline_errors(v, r, online)
                  + checks.feasibility_errors(v, r, offline)
                  + checks.cost_errors(v, r, offline, bound, "squashed area plus total length"))
        return Outcome(schedules=[online, offline], errors=errors)
    return inspect


def online_stream(seed: int, workdir: str) -> Workload:
    """Each op schedules one stream online by water-filling and offline by
    greedy: random streams, and the adversarial family."""
    rng = np.random.default_rng(seed)
    streams = [(f"rand{k:02d}", *lhs_jobs(rng, STREAM_N)) for k in range(STREAMS)]
    j = np.arange(1, ADVERSARIAL_N + 1, dtype=float)
    streams.append((f"adv{ADVERSARIAL_N}", np.full(ADVERSARIAL_N, 1.0 / ADVERSARIAL_N), 1.0 / j))
    cases = [Case(name, "waterfill.waterfill_online+tct.greedy", v, r,
                  lambda jobs=_jobs(v, r): _stream(jobs), _inspect_stream(v, r))
             for name, v, r in streams]
    warm = _jobs(*lhs_jobs(np.random.default_rng(WARMUP_SEED), 20))
    return Workload(cases, lambda: _stream(warm))


# -- tct-exact ----------------------------------------------------------------

EXACT_INSTANCES = 85
EXACT_N = 8


def _inspect_best(v, r):
    def inspect(result) -> Outcome:
        sched, report = result
        if report.line_error or report.bounds.fractional_plus_half_length is None:
            return Outcome(failure=f"line-schedule branch failed: {report.line_error}")
        steps = _steps(sched)
        length = checks.total_length_bound(v, r)
        fractional = report.bounds.fractional_plus_half_length - 0.5 * report.bounds.total_length
        best_bound = max(checks.tct_lower_bound(v, r), fractional + 0.5 * length)
        errors = (checks.feasibility_errors(v, r, steps)
                  + checks.cost_errors(v, r, steps, 1.5 * best_bound, "3/2 certificate"))
        cost = float(checks.completion_times(steps).sum())
        chosen = min(report.greedy_cost, report.line_cost)
        if not checks.isclose(cost, chosen):
            errors.append(f"schedule costs {cost:.17g} but the report chose {chosen:.17g}")
        if not (checks.isclose(report.bounds.squashed_area, checks.squashed_area_bound(v))
                and checks.isclose(report.bounds.total_length, length)):
            errors.append("reported lower bounds differ from the closed forms")
        return Outcome(schedules=[steps], errors=errors,
                       deferred=[lambda: checks.fractional_lp_errors(v, r, fractional)])
    return inspect


def tct_exact(seed: int, workdir: str) -> Workload:
    """best_schedule with the exact line-schedule branch on n=8 instances."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(EXACT_INSTANCES):
        v, r = lhs_jobs(rng, EXACT_N)
        jobs = _jobs(v, r)
        cases.append(Case(f"i{k:02d}", "tct.best_schedule", v, r,
                          lambda jobs=jobs: tct.best_schedule(jobs), _inspect_best(v, r)))
    warm = _jobs(*lhs_jobs(np.random.default_rng(WARMUP_SEED), 5))
    return Workload(cases, lambda: tct.best_schedule(warm))


# -- tct-lp -------------------------------------------------------------------

LP_INSTANCES = 95
LP_HEAVY_N = 3
# volumes in [1, 10] and requirements in (0.2, 1] keep p_max / p_min <= 50, so
# every job spans at least five slots of the pipeline's LP (n * p_max / 1024
# wide); a job near one slot gets too little LP volume, the stretch factor
# nears 2, and on some draws the pipeline fails (see CHANGES.md)
LP_VMIN = 1.0
LP_RMIN = 0.2


class _SolveLpCapture:
    """Keeps the objective of every ``lp.solve_lp`` result the pipeline gets."""

    def __init__(self):
        self.objectives: list[float] = []
        self._orig = lp.solve_lp

        def solve_lp(*args, **kwargs):
            sol = self._orig(*args, **kwargs)
            self.objectives.append(float(sol.objective))
            return sol

        lp.solve_lp = solve_lp

    def close(self) -> None:
        lp.solve_lp = self._orig


def _inspect_lsapprox(v, r, capture: _SolveLpCapture):
    def inspect(result) -> Outcome:
        sched, info = result
        steps = _steps(sched)
        heavy = checks.long_heavy(v, r, MU)
        horizon = v.size * float((v / r).max())
        errors = (checks.feasibility_errors(v, r, steps, exact_volume=False)
                  + checks.lsapprox_errors(v, r, steps, MU)
                  + checks.cost_errors(v, r, steps))
        if info.mu != MU:
            errors.append(f"mu {info.mu} instead of {MU}")
        if sorted(info.subdivision.long_heavy) != np.flatnonzero(heavy).tolist():
            errors.append("long-heavy jobs differ from the definition")
        if not (checks.isclose(info.horizon, horizon)
                and checks.isclose(info.slot_width, horizon / PIPELINE_SLOTS)):
            errors.append("LP horizon or slot width differ from n * p_max and n * p_max / 1024")
        deferred = []
        if len(capture.objectives) != 1:
            errors.append(f"{len(capture.objectives)} slot-LP solves instead of 1")
        else:
            obj = capture.objectives[0]
            vh, rh = v[heavy], r[heavy]
            deferred.append(lambda: checks.slot_lp_match_errors(
                vh, rh, obj, horizon, PIPELINE_SLOTS))
        capture.objectives.clear()
        return Outcome(schedules=[steps], errors=errors, deferred=deferred,
                       counters={"lp_rounds": info.lp_rounds, "lp_pivots": info.lp_pivots})
    return inspect


def _with_light_job(rng, v, r):
    """Insert one light job (r <= mu/n) at a random position.

    Its processing time is drawn log-uniformly between the shortest and the
    longest of the other jobs.  A longer one would stretch the LP horizon
    n * p_max and make the other jobs short against a slot (see LP_VMIN).
    """
    n = v.size + 1
    p = v / r
    rate = MU / n * rng.uniform(0.2, 1.0)
    length = p.min() * (p.max() / p.min()) ** rng.random()
    at = int(rng.integers(0, n))
    return np.insert(v, at, length * rate), np.insert(r, at, rate)


def tct_lp(seed: int, workdir: str) -> Workload:
    """The slot-LP approximation pipeline on three long-heavy jobs and one
    light job."""
    rng = np.random.default_rng(seed)
    params = tct.LsApproxParams(EPSILON)
    capture = _SolveLpCapture()

    def pipeline(jobs):
        # cleared here too, in case the previous op raised before its inspection
        capture.objectives.clear()
        return tct.lsapprox_report(jobs, params)

    cases = []
    for k in range(LP_INSTANCES):
        v, r = _with_light_job(rng, *lhs_jobs(rng, LP_HEAVY_N, LP_VMIN, LP_RMIN))
        cases.append(Case(f"i{k:03d}", "tct.lsapprox_report", v, r,
                          lambda jobs=_jobs(v, r): pipeline(jobs),
                          _inspect_lsapprox(v, r, capture)))
    warm_rng = np.random.default_rng(WARMUP_SEED)
    warm = _jobs(*_with_light_job(warm_rng, *lhs_jobs(warm_rng, LP_HEAVY_N, LP_VMIN, LP_RMIN)))
    return Workload(cases, lambda: tct.lsapprox_report(warm, params), capture.close)


# -- cli-small ----------------------------------------------------------------

CLI_INSTANCES = 180
CLI_ALGOS = ("greedy", "waterfill", "ls", "best")


def _write_instance(path: str, v, r) -> None:
    with open(path, "w") as fh:
        json.dump({"jobs": [{"v": a, "r": b} for a, b in zip(v.tolist(), r.tolist())]}, fh)


def _check_cli_output(v, r, algo: str, record_path: str, schedule_path: str):
    """Read back one ``sharesched run`` and check it; returns (steps, errors)."""
    with open(schedule_path) as fh:
        sched = json.load(fh)
    with open(record_path) as fh:
        record = json.load(fh)
    grid = sched["breakpoints"]
    steps = [(grid, row) for row in sched["assignments"]]
    errors = checks.feasibility_errors(v, r, steps)
    if errors:
        return steps, errors
    done = checks.completion_times(steps)
    cost = float(done.sum())
    if not checks.isclose(record["total_completion_time"], cost):
        errors.append(f"record's total completion time {record['total_completion_time']!r} "
                      f"differs from the schedule's {cost:.17g}")
    if not np.allclose(sched["completion_times"], done, rtol=checks.REL_TOL, atol=0.0):
        errors.append("schedule file's completion times differ from its rates")
    upper = None
    if algo == "waterfill":
        errors += checks.online_deadline_errors(v, r, steps)
    elif algo == "greedy":
        upper = checks.squashed_area_bound(v) + checks.total_length_bound(v, r)
    elif algo == "ls":
        upper = 2.0 * record["parameters"]["fractional_optimum"]
    errors += checks.cost_errors(v, r, steps, upper)
    return steps, [f"{algo}: {e}" for e in errors]


def cli_small(seed: int, workdir: str) -> Workload:
    """Each op runs ``sharesched run`` in-process with each of four algorithms
    on one instance file; the pool holds files of 2-6 jobs.  Every call
    writes its own record and schedule file."""
    rng = np.random.default_rng(seed)
    out = {algo: (os.path.join(workdir, f"record-{algo}.json"),
                  os.path.join(workdir, f"schedule-{algo}.json")) for algo in CLI_ALGOS}

    def run_all(path: str) -> list[int]:
        return [cli.main(["run", algo, "--input", path, "--record", out[algo][0],
                          "--schedule-out", out[algo][1]]) for algo in CLI_ALGOS]

    def inspector(v, r):
        def inspect(codes) -> Outcome:
            bad = [f"{a} exited {c}" for a, c in zip(CLI_ALGOS, codes) if c != 0]
            if bad:
                return Outcome(failure="sharesched run " + ", ".join(bad))
            result = Outcome()
            for algo in CLI_ALGOS:
                steps, errors = _check_cli_output(v, r, algo, *out[algo])
                result.schedules.append(steps)
                result.errors += errors
            return result
        return inspect

    cases = []
    for k in range(CLI_INSTANCES):
        v, r = lhs_jobs(rng, 2 + k % 5)
        path = os.path.join(workdir, f"inst{k:03d}.json")
        _write_instance(path, v, r)
        cases.append(Case(f"inst{k:03d}", "cli.main", v, r,
                          lambda path=path: run_all(path), inspector(v, r)))
    warm = os.path.join(workdir, "warmup.json")
    _write_instance(warm, *lhs_jobs(np.random.default_rng(WARMUP_SEED), 4))
    return Workload(cases, lambda: run_all(warm))


WORKLOADS = {
    "online-stream": online_stream,
    "tct-exact": tct_exact,
    "tct-lp": tct_lp,
    "cli-small": cli_small,
}
