"""Total completion time: greedy packing, lower bounds, and line-schedule
based algorithms.

``greedy`` packs jobs in ascending volume as early and as fully as possible.
``ls_exact`` solves for intercepts whose line schedule meets every volume
exactly (optimal fractional completion time).  ``lsapprox_report`` runs the
polynomial-time variant: it reserves a small resource share for jobs that are
cheap to finish, solves the slot LP for the remaining ("long-heavy") jobs,
rebuilds a line schedule from the LP duals, and stretches/squashes it to fit.
``best_schedule`` returns the better of greedy and the line-schedule branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    DEFAULT_TOL,
    JobSet,
    Schedule,
    StepFunction,
    total_completion_time,
)
from .linesched import (
    ConvergenceError,
    DegenerateVolumesError,
    DualityQuantities,
    build_line_schedule,
    duality_quantities,
    solve_alpha,
)
from . import lp as lpmod


def greedy(jobs: JobSet) -> Schedule:
    """Ascending-volume packing, each job as much and as early as possible.

    Ties are broken by original index.  Job j runs at
    min(requirement, remaining capacity) until its volume completes; the
    completion instant is computed exactly on the usage grid.
    """
    n = len(jobs)
    order = sorted(range(n), key=lambda j: (jobs[j].volume, j))
    assignments: list[StepFunction | None] = [None] * n
    usage = StepFunction.zero()
    for j in order:
        v, r = jobs[j].volume, jobs[j].requirement
        caps = np.minimum(r, np.maximum(1.0 - usage.values, 0.0))
        filled = np.cumsum(caps * usage.widths())
        k = int(np.searchsorted(filled, v, side="left"))   # first interval reaching v
        before = float(filled[k - 1]) if k else 0.0
        if k < filled.size:
            rates, t_done = caps[: k + 1], usage.edges[k] + (v - before) / caps[k]
        else:   # the rest runs at full requirement after the usage ends
            rates, t_done = np.append(caps, r), usage.support_end + (v - before) / r
        edges = np.append(usage.edges[: rates.size], t_done)
        if t_done <= edges[-2]:   # what is left is below rounding: end at the last edge
            edges, rates = edges[:-1], rates[:-1]
        assignments[j] = StepFunction(edges, rates)
        usage = usage + assignments[j]
    return Schedule(assignments)


@dataclass(frozen=True)
class Bounds:
    """Certified lower bounds on the optimal total completion time.

    ``squashed_area``: completion total of the ascending-volume sequence run
    at full resource (valid because raising every requirement to 1 only
    helps).  ``total_length``: sum of processing times (valid because giving
    every job its own resource only helps).
    ``fractional_plus_half_length``: a fractional optimum plus half the
    length bound, when a fractional optimum is supplied.
    """

    squashed_area: float
    total_length: float
    fractional_plus_half_length: float | None = None

    @property
    def best(self) -> float:
        cands = [self.squashed_area, self.total_length]
        if self.fractional_plus_half_length is not None:
            cands.append(self.fractional_plus_half_length)
        return max(cands)


def lower_bounds(jobs: JobSet, fractional_opt: float | None = None) -> Bounds:
    vols = np.sort(jobs.volumes())
    squashed = float(np.cumsum(vols).sum()) if vols.size else 0.0
    length = float(jobs.processing_times().sum()) if len(jobs) else 0.0
    lb3 = fractional_opt + 0.5 * length if fractional_opt is not None else None
    return Bounds(squashed, length, lb3)


def ls_exact(jobs: JobSet, vol_tol: float = DEFAULT_TOL) -> tuple[Schedule, np.ndarray, DualityQuantities]:
    """Line schedule meeting every volume exactly, with its duals.

    The returned schedule attains the optimal fractional completion time;
    its total completion time is at most twice that.
    """
    alpha = solve_alpha(jobs, targets=None, vol_tol=vol_tol)
    ls = build_line_schedule(jobs, alpha)
    return ls.schedule, alpha, duality_quantities(ls, jobs)


@dataclass(frozen=True)
class Subdivision:
    """Partition used by the approximation pipeline.

    light: requirement at most mu/n (cheap to park on a resource sliver).
    short_heavy: processing time at most (mu/n)^2 * p_max but not light.
    long_heavy: everything else (these drive the objective).
    Sets hold 0-based job ids.
    """

    light: frozenset[int]
    short_heavy: frozenset[int]
    long_heavy: frozenset[int]
    mu: float


def subdivide(jobs: JobSet, mu: float) -> Subdivision:
    if not (0.0 < mu < 1.0):
        raise ContractError("mu must lie in (0, 1)")
    n = len(jobs)
    p_max = jobs.max_processing_time()
    light, short_heavy, long_heavy = set(), set(), set()
    for idx, job in enumerate(jobs):
        if job.requirement <= mu / n:
            light.add(idx)
        elif job.processing_time <= (mu / n) ** 2 * p_max:
            short_heavy.add(idx)
        else:
            long_heavy.add(idx)
    return Subdivision(frozenset(light), frozenset(short_heavy),
                       frozenset(long_heavy), mu)


#: the subdivision threshold ``mu`` as a share of epsilon
KAPPA = 0.05


@dataclass(frozen=True)
class LsApproxParams:
    """Accuracy knobs for the approximation pipeline.

    ``mu`` is ``KAPPA * epsilon`` rounded down so that 1/mu is an integer
    (and at least 2, keeping mu < 1).  The LP runs on the horizon n * p_max;
    ``slot_width`` overrides its default slot width, horizon / ``lp.SLOTS``.
    """

    epsilon: float
    slot_width: float | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ContractError("epsilon must be positive")
        if self.slot_width is not None and not self.slot_width > 0.0:
            raise ContractError("slot width must be positive")

    @property
    def mu(self) -> float:
        return 1.0 / max(2, math.ceil(1.0 / (KAPPA * self.epsilon)))


class PipelineError(RuntimeError):
    """A stage of the approximation pipeline could not proceed."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


@dataclass(frozen=True)
class LsApproxInfo:
    """Effective parameters and pipeline measurements for one run."""

    mu: float
    subdivision: Subdivision
    horizon: float
    slot_width: float
    guarantee_slot_width: float
    scale_factor: float | None
    lp_rounds: int
    lp_pivots: int
    lp_blocks: int


def lsapprox_report(jobs: JobSet, params: LsApproxParams) -> tuple[Schedule, LsApproxInfo]:
    """Run the approximation pipeline, returning the schedule and its report.

    Raises lp.SlotWidthError, a ContractError, when ``params.slot_width``
    does not divide the LP horizon, and PipelineError when a stage cannot
    proceed.
    """
    mu = params.mu
    n = len(jobs)
    if n == 0:
        info = LsApproxInfo(mu, Subdivision(frozenset(), frozenset(), frozenset(), mu),
                            0.0, 0.0, 0.0, None, 0, 0, 0)
        return Schedule.empty(0), info
    sub = subdivide(jobs, mu)
    horizon = n * jobs.max_processing_time()
    slot_width = params.slot_width if params.slot_width is not None else horizon / lpmod.SLOTS
    guarantee = horizon * (mu / n) ** 6
    assignments: list[StepFunction | None] = [None] * n
    scale = None
    lp_rounds = lp_pivots = lp_blocks = 0
    lh = sorted(sub.long_heavy)
    if lh:
        lh_jobs = JobSet(jobs[i] for i in lh)
        # a slot width that does not divide the horizon is a bad parameter:
        # its ContractError is not a pipeline failure
        inst = lpmod.build_discretized_lp(lh_jobs, horizon=horizon, slot_width=slot_width)
        try:
            sol = lpmod.solve_lp(inst)
        except (lpmod.InfeasibleInstanceError, lpmod.SimplexError) as exc:
            raise PipelineError("lp", str(exc)) from exc
        lp_rounds, lp_pivots, lp_blocks = sol.rounds, sol.pivots, sol.block_edges.size - 1
        try:
            ls = build_line_schedule(lh_jobs, sol.alpha)
        except ContractError as exc:
            raise PipelineError("line-schedule", str(exc)) from exc
        vbar = ls.scheduled_volumes
        vols = lh_jobs.volumes()
        # the line schedule's breakpoints are known to about eps * horizon,
        # so job j's volume is known to about r_j * eps * horizon; a volume
        # below that is rounding noise, and stretching by vols / vbar would
        # carry the schedule far past the horizon
        if np.any(vbar <= np.finfo(float).eps * horizon * lh_jobs.requirements()):
            raise PipelineError("scale", "a long-heavy job received no volume from the LP "
                                "intercepts (less than rounding noise)")
        scale = float(np.max(vols / vbar))
        squash = 1.0 - mu
        for pos, idx in enumerate(lh):
            stretched = ls.schedule.assignments[pos].scale_time(scale)
            assignments[idx] = stretched.scale_values(squash).scale_time(1.0 / squash)
    for idx in sorted(sub.light | sub.short_heavy):
        job = jobs[idx]
        rate = min(mu / n, job.requirement)
        assignments[idx] = StepFunction.constant(rate, job.volume / rate)
    info = LsApproxInfo(mu, sub, horizon, slot_width, guarantee, scale,
                        lp_rounds, lp_pivots, lp_blocks)
    return Schedule(assignments), info


@dataclass(frozen=True)
class BestReport:
    """Objectives of both candidates plus the lower bounds.

    ``fractional_optimum`` is the exact line schedule's fractional optimum,
    the one ``bounds.fractional_plus_half_length`` rests on; None when the
    exact branch did not run or failed.
    """

    greedy_cost: float
    line_cost: float | None
    chosen: str
    bounds: Bounds
    line_branch: str
    line_error: str | None = None
    fractional_optimum: float | None = None


def best_schedule(jobs: JobSet, params: LsApproxParams | None = None,
                  use_exact_ls: bool = True) -> tuple[Schedule, BestReport]:
    """Better of greedy and the line-schedule branch.

    With ``use_exact_ls`` the branch is the exact fixed-point line schedule,
    otherwise the approximation pipeline with ``params``.  If the branch
    fails, greedy is returned with the failure noted.
    """
    g = greedy(jobs)
    g_cost = total_completion_time(jobs, g)
    branch = "ls" if use_exact_ls else "lsapprox"
    line_sched = None
    line_cost = None
    fractional = None
    err: str | None = None
    try:
        if use_exact_ls:
            line_sched, _, quantities = ls_exact(jobs)
            fractional = quantities.primal_cost
        else:
            line_sched = lsapprox_report(jobs, params or LsApproxParams(0.5))[0]
        line_cost = total_completion_time(jobs, line_sched)
    except (ConvergenceError, DegenerateVolumesError, PipelineError) as exc:
        err = str(exc)
    bounds = lower_bounds(jobs, fractional_opt=fractional)
    if line_cost is not None and line_cost < g_cost:
        return line_sched, BestReport(g_cost, line_cost, branch, bounds, branch, err, fractional)
    return g, BestReport(g_cost, line_cost, "greedy", bounds, branch, err, fractional)
