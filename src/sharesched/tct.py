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
    AlgorithmError,
    ContractError,
    DEFAULT_TOL,
    InstanceError,
    JobSet,
    Schedule,
    StepFunction,
    total_completion_time,
)
from .linesched import (
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
    completion instant is computed exactly on the usage grid.  Raises
    ``InstanceError`` for a job whose completion time passes the float range.
    """
    n = len(jobs)
    order = sorted(range(n), key=lambda j: (jobs[j].volume, j))
    assignments: list[StepFunction | None] = [None] * n
    usage = StepFunction.zero()
    for j in order:
        v, r = jobs[j].volume, jobs[j].requirement
        caps = 1.0 - usage.values
        np.maximum(caps, 0.0, out=caps)
        np.minimum(caps, r, out=caps)
        filled = (caps * usage.widths()).cumsum()
        k = int(filled.searchsorted(v, side="left"))   # first interval reaching v
        before = float(filled[k - 1]) if k else 0.0
        if k < filled.size:
            rates, t_done = caps[: k + 1], usage.edges[k] + (v - before) / caps[k]
        else:   # the rest runs at full requirement after the usage ends
            rates, t_done = np.concatenate((caps, (r,))), usage.support_end + (v - before) / r
        if not t_done < math.inf:
            raise InstanceError(f"job {j}'s greedy completion time overflows the float range")
        edges = np.concatenate((usage.edges[: rates.size], (t_done,)))
        if t_done <= edges[-2]:   # what is left is below rounding: end at the last edge
            edges, rates = edges[:-1], rates[:-1]
        # the usage's edges through the interval that reaches v, then a later t_done
        assignments[j] = StepFunction._on_grid(edges, rates)
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
    """The bounds of ``Bounds``; a bound past the float range is inf."""
    vols = np.sort(jobs.volumes())
    with np.errstate(over="ignore"):
        squashed = float(np.cumsum(vols).sum())
        length = float(jobs.processing_times().sum())
    lb3 = fractional_opt + 0.5 * length if fractional_opt is not None else None
    return Bounds(squashed, length, lb3)


def ls_exact(jobs: JobSet, vol_tol: float = DEFAULT_TOL) -> tuple[Schedule, np.ndarray, DualityQuantities]:
    """Line schedule meeting every volume exactly, with its duals.

    The returned schedule attains the optimal fractional completion time;
    its total completion time is at most twice that.
    """
    alpha = solve_alpha(jobs, vol_tol=vol_tol)
    ls = build_line_schedule(jobs, alpha)
    return ls.schedule, alpha, duality_quantities(ls)


@dataclass(frozen=True)
class Subdivision:
    """Partition used by the approximation pipeline.

    light: requirement at most mu/n (cheap to park on a resource sliver).
    short_heavy: processing time at most (mu/n)^2 * p_max but not light.
    long_heavy: everything else (these drive the objective).
    Sets hold 0-based job ids; the threshold mu is ``LsApproxInfo.mu``.
    """

    light: frozenset[int]
    short_heavy: frozenset[int]
    long_heavy: frozenset[int]


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
    return Subdivision(frozenset(light), frozenset(short_heavy), frozenset(long_heavy))


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
        if not 0.0 < self.epsilon < math.inf:
            raise ContractError("epsilon must be positive and finite")
        if self.slot_width is not None and not 0.0 < self.slot_width < math.inf:
            raise ContractError("slot width must be positive and finite")

    @property
    def mu(self) -> float:
        return 1.0 / max(2, math.ceil(1.0 / (KAPPA * self.epsilon)))


class PipelineError(AlgorithmError):
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

    Raises an InstanceError when the LP horizon ``n * p_max`` passes the
    float range or ``params.slot_width`` does not divide it
    (lp.SlotWidthError), and PipelineError when a stage cannot proceed.
    """
    mu = params.mu
    n = len(jobs)
    if n == 0:
        info = LsApproxInfo(mu, Subdivision(frozenset(), frozenset(), frozenset()),
                            0.0, 0.0, 0.0, None, 0, 0, 0)
        return Schedule.empty(0), info
    sub = subdivide(jobs, mu)
    lh = sorted(sub.long_heavy)
    lh_jobs = JobSet(jobs[i] for i in lh)
    # built on every instance, so a slot width that does not divide the
    # horizon is refused even with no long-heavy job: its InstanceError is
    # not a pipeline failure
    inst = lpmod.build_discretized_lp(lh_jobs, horizon=n * jobs.max_processing_time(),
                                      slot_width=params.slot_width)
    horizon = inst.horizon
    assignments: list[StepFunction | None] = [None] * n
    scale = None
    lp_rounds = lp_pivots = lp_blocks = 0
    if lh:
        vols = lh_jobs.volumes()
        # a line's slope 1 / v_j past the float range leaves no line schedule,
        # the same refusal as solve_alpha's start
        steep = [idx for idx, vj in zip(lh, vols.tolist()) if not math.isfinite(1.0 / vj)]
        if steep:
            raise PipelineError("lp", f"the slope 1 / v_j of long-heavy job(s) "
                                f"{', '.join(map(str, steep))} passes the float range")
        try:
            sol = lpmod.solve_lp(inst)
        except AlgorithmError as exc:
            raise PipelineError("lp", str(exc)) from exc
        lp_rounds, lp_pivots, lp_blocks = sol.rounds, sol.pivots, sol.block_edges.size - 1
        try:
            ls = build_line_schedule(lh_jobs, sol.alpha)
        except ContractError as exc:
            raise PipelineError("line-schedule", str(exc)) from exc
        vbar = ls.scheduled_volumes
        # the line schedule's breakpoints are known to about eps * horizon,
        # so job j's volume is known to about r_j * eps * horizon; a volume
        # below that is rounding noise, and stretching by vols / vbar would
        # carry the schedule far past the horizon
        if np.any(vbar <= np.finfo(float).eps * horizon * lh_jobs.requirements()):
            raise PipelineError("scale", "a long-heavy job received no volume from the LP "
                                "intercepts (less than rounding noise)")
        scale = float(np.max(vols / vbar))
        squash = 1.0 - mu
        for idx, f in zip(lh, ls.schedule.assignments):
            # stretch by scale, squash into the 1 - mu share and stretch by
            # 1 / squash to keep the volume; multiplying edges one ulp apart
            # by the factors can round them onto one time, which leaves no
            # step function
            try:
                assignments[idx] = StepFunction(f.edges * scale * (1.0 / squash), f.values * squash)
            except ContractError as exc:
                raise PipelineError("scale", f"stretching job {idx} by {scale!r} and "
                                    f"{1.0 / squash!r} merges two of its edges") from exc
    for idx in sorted(sub.light | sub.short_heavy):
        job = jobs[idx]
        rate = min(mu / n, job.requirement)
        assignments[idx] = StepFunction.constant(rate, job.volume / rate)
    info = LsApproxInfo(mu, sub, horizon, inst.slot_width, horizon * (mu / n) ** 6, scale,
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


def best_schedule(jobs: JobSet, lsapprox: LsApproxParams | None = None
                  ) -> tuple[Schedule, BestReport]:
    """Better of greedy and the line-schedule branch.

    Given ``lsapprox``, the branch is the approximation pipeline run with
    those parameters; otherwise it is the exact fixed-point line schedule.
    If the branch fails (an AlgorithmError), greedy is returned with the
    failure noted.
    """
    g = greedy(jobs)
    g_cost = total_completion_time(jobs, g)
    branch = "ls" if lsapprox is None else "lsapprox"
    line_sched = None
    line_cost = None
    fractional = None
    err: str | None = None
    try:
        if lsapprox is None:
            line_sched, _, quantities = ls_exact(jobs)
            fractional = quantities.primal_cost
        else:
            line_sched = lsapprox_report(jobs, lsapprox)[0]
        line_cost = total_completion_time(jobs, line_sched)
    except AlgorithmError as exc:
        err = str(exc)
    bounds = lower_bounds(jobs, fractional_opt=fractional)
    if line_cost is not None and line_cost < g_cost:
        return line_sched, BestReport(g_cost, line_cost, branch, bounds, branch, err, fractional)
    return g, BestReport(g_cost, line_cost, "greedy", bounds, branch, err, fractional)
