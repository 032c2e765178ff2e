"""Makespan: offline optimum, online water-filling, and flatness machinery.

The offline optimum is closed-form.  The online algorithm pours each arriving
job into the current schedule at the lowest water level that meets a target
completion time of (e/(e-1)) times the current offline optimum; universal
schedules are the analytic reference shapes that certify why those targets
always suffice.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    DEFAULT_TOL,
    Job,
    JobSet,
    Schedule,
    StepFunction,
    _area_matrix,
    _pieces_before,
)

E = math.e
#: the optimal competitive ratio e / (e - 1)
COMPETITIVE_RATIO = E / (E - 1.0)


def optimal_makespan(jobs: JobSet) -> tuple[float, Schedule]:
    """Offline optimal makespan and a schedule attaining it.

    The optimum is max(total volume, longest processing time).  Constant
    rates v_j / p_max finish everything at p_max; when they oversubscribe the
    resource, scaling by the reciprocal usage finishes everything at the
    total volume instead.
    """
    if len(jobs) == 0:
        return 0.0, Schedule.empty(0)
    p_max = jobs.max_processing_time()
    total = jobs.total_volume()
    value = max(total, p_max)
    denom = p_max if total <= p_max else total
    return value, Schedule(
        StepFunction.constant(j.volume / denom, value) for j in jobs
    )


@dataclass(frozen=True)
class WaterfillOutcome:
    """Result of one water-fill step.

    On success ``assignment`` is the new job's rate profile (the chosen water
    level truncated to the deadline) and ``level`` is that smallest
    sufficient water level.  On failure ``deficit`` is the volume that does
    not fit below level 1 by the deadline.
    """

    ok: bool
    assignment: StepFunction | None = None
    level: float | None = None
    deficit: float = 0.0


def waterfill_step(usage: StepFunction, job: Job, deadline: float) -> WaterfillOutcome:
    """Pour ``job`` into the total ``usage`` to finish by ``deadline`` if possible.

    The level map h -> available volume below h is piecewise linear with
    kinks only at the usage levels and usage levels + requirement, so the
    smallest sufficient level is found exactly by interpolating between
    those candidates.

    One bisection over the candidates finds the first one whose volume
    reaches the job's volume.  The search is exact because the direct sum
    ``volume_below`` is nondecreasing in h as computed, not only in exact
    arithmetic: each term ``w * min(r, max(h - level, 0))`` is, rounding
    is monotone, and the terms are added in the same order at every h.  So
    the bisection lands on the candidate that a scan in order finds, and
    the level is interpolated from the direct sums at it and the one before.
    """
    if deadline < 0.0:
        raise ContractError("deadline must be nonnegative")
    if deadline == 0.0:
        return WaterfillOutcome(ok=False, deficit=job.volume)
    edges, widths, levels = _pieces_before(usage, deadline)
    r, v = job.requirement, job.volume

    def volume_below(h: float) -> float:
        return float(np.dot(widths, np.minimum(r, np.maximum(h - levels, 0.0))))

    capacity = volume_below(1.0)
    if capacity < v - DEFAULT_TOL * max(1.0, v):
        return WaterfillOutcome(ok=False, deficit=v - capacity)
    level = 1.0     # kept when the capacity falls short of v within the tolerance
    if capacity >= v:
        cands = np.unique(np.concatenate((levels, levels + r, (0.0, 1.0))))
        cands = cands[np.searchsorted(cands, 0.0):np.searchsorted(cands, 1.0, side="right")]
        # the last candidate is 1.0, whose volume reaches v, so i < cands.size
        i = bisect.bisect_left(cands, v, key=volume_below)
        if i == 0:      # reachable when a caller's usage has negative levels
            level = float(cands[0])
        else:
            prev_h, h = cands[i - 1], cands[i]
            prev_vol, val = volume_below(prev_h), volume_below(h)
            level = float(prev_h + (v - prev_vol) * (h - prev_h) / (val - prev_vol))
    rates = np.minimum(r, np.maximum(level - levels, 0.0))
    return WaterfillOutcome(ok=True, assignment=StepFunction(edges, rates), level=level)


@dataclass(frozen=True)
class OnlineRun:
    """Trace of the online water-filling recursion.

    ``schedule`` holds the placed jobs' assignments, each fixed on arrival, so
    the schedule after job k is ``Schedule(schedule.assignments[:k + 1])``.
    ``targets`` and ``prefix_optima`` hold the attempted deadline and the
    offline optimum of each prefix (targets = ratio * prefix_optima).
    ``failure_index`` is the 0-based position of the first job that did not
    fit, or None.
    """

    schedule: Schedule
    targets: tuple[float, ...]
    prefix_optima: tuple[float, ...]
    levels: tuple[float, ...]
    failure_index: int | None = None
    failure_deficit: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure_index is None

    def final_schedule(self) -> Schedule:
        return self.schedule


def waterfill_online(jobs: JobSet, ratio: float = COMPETITIVE_RATIO) -> OnlineRun:
    """Run water-filling in list order with targets ratio * prefix optimum.

    The usage is folded once per job, as in ``greedy``.  Failure is data,
    not an exception: the run stops at the first job whose volume does not
    fit and records its index and deficit.
    """
    if not (ratio >= 1.0 and math.isfinite(ratio)):
        raise ContractError(f"competitive ratio must be at least 1 and finite, got {ratio}")
    usage = StepFunction.zero()
    assignments: list[StepFunction] = []
    targets: list[float] = []
    optima: list[float] = []
    levels: list[float] = []
    total = 0.0
    p_max = 0.0
    for idx, job in enumerate(jobs):
        total += job.volume
        p_max = max(p_max, job.processing_time)
        opt = max(total, p_max)
        target = ratio * opt
        optima.append(opt)
        targets.append(target)
        outcome = waterfill_step(usage, job, target)
        if not outcome.ok:
            return OnlineRun(Schedule(assignments), tuple(targets), tuple(optima),
                             tuple(levels), failure_index=idx,
                             failure_deficit=outcome.deficit)
        usage = usage + outcome.assignment
        assignments.append(outcome.assignment)
        levels.append(outcome.level)
    return OnlineRun(Schedule(assignments), tuple(targets), tuple(optima), tuple(levels))


class UniversalSchedule:
    """Analytic reference shape of a given volume.

    Full resource up to V/(e-1), then the logarithmic roll-off
    1 - ln(t (e-1) / V) until e V / (e-1), zero afterwards.  The shape is
    continuous, integrates to exactly V, and its upper area obeys the closed
    form ``(e^(1-y) - 1) / (e-1) * V``, which makes it just barely
    (e/(e-1))-extendable.
    """

    __slots__ = ("volume",)

    def __init__(self, volume: float):
        if volume < 0.0 or not math.isfinite(volume):
            raise ContractError("volume must be finite and nonnegative")
        object.__setattr__(self, "volume", float(volume))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("UniversalSchedule is immutable")

    @property
    def plateau_end(self) -> float:
        return self.volume / (E - 1.0)

    @property
    def support_end(self) -> float:
        return E * self.volume / (E - 1.0)

    def __call__(self, t: float) -> float:
        if self.volume == 0.0 or t < 0.0:
            return 0.0
        if t < self.plateau_end:
            return 1.0
        if t < self.support_end:
            return 1.0 - math.log(t * (E - 1.0) / self.volume)
        return 0.0

    def time_above(self, y):
        """sup{t : U(t) > y} for y in [0, 1]; vectorized over y."""
        return self.volume * np.exp(1.0 - np.asarray(y, dtype=float)) / (E - 1.0)

    def upper_area(self, y, horizon=math.inf):
        """Exact volume above height y before ``horizon``; vectorized over both.

        With no horizon this is the closed form ``(e^(1-y) - 1) / (e-1) * V``.
        """
        y = np.asarray(y, dtype=float)
        T = np.minimum(horizon, self.time_above(y))
        plateau = self.plateau_end
        with np.errstate(divide="ignore", invalid="ignore"):
            rolloff = T * (2.0 - y - np.log(T * (E - 1.0) / self.volume)) - plateau
        out = np.where(T <= plateau, (1.0 - y) * T, rolloff)
        out = np.where((y >= 1.0) | (self.volume == 0.0), 0.0, np.maximum(out, 0.0))
        return float(out) if out.ndim == 0 else out

    def step_under(self, levels: int = 512) -> StepFunction:
        """Staircase below the shape (each slab cut at its upper height)."""
        return self._staircase(levels, under=True)

    def step_over(self, levels: int = 512) -> StepFunction:
        """Staircase above the shape (each slab extended to its lower height)."""
        return self._staircase(levels, under=False)

    def _staircase(self, levels: int, under: bool) -> StepFunction:
        if self.volume == 0.0:
            return StepFunction.zero()
        ys = np.linspace(0.0, 1.0, levels + 1)
        times = self.time_above(ys)                         # decreasing in y
        edges = np.concatenate([[0.0], times[::-1]])        # 0, tau(1), ..., tau(0)
        # intervals: [0, tau(1)), then [tau(y_{k+1}), tau(y_k)) for k = m-1..0;
        # the shape lies in (y_k, y_{k+1}] there, so the staircase takes the
        # slab's upper height (over) or lower height (under).
        ys_desc = ys[::-1]
        if under:
            vals = np.concatenate([[1.0], ys_desc[1:]])
        else:
            vals = np.concatenate([[1.0], ys_desc[:-1]])
        return StepFunction(edges, vals)


def flatter_than_universal(sched: Schedule, volume: float) -> bool:
    """Exact check that ``sched`` is flatter than the universal shape.

    For a fixed height the upper-area difference is convex in the horizon on
    every usage-constant interval, so horizons are checked at usage
    breakpoints only; heights are checked at usage levels plus the points
    where the reference shape's width matches a usage measure (the only
    interior critical points of the height profile).
    """
    u = UniversalSchedule(volume)
    usage = sched.total_usage()
    far = max(usage.support_end, u.support_end) + 1.0
    horizons = np.unique(np.append(usage.edges, far))
    levels = np.unique(np.concatenate([usage.values, [0.0, 1.0]]))
    levels = levels[(levels >= 0.0) & (levels <= 1.0)]
    ys = levels
    if volume > 0.0 and usage.values.size:
        # measures of {usage > level} before each horizon, via cumulative sums
        w = np.diff(usage.edges)
        above = (usage.values[None, :] > levels[:, None]).astype(float)
        cum = np.concatenate([np.zeros((levels.size, 1)),
                              np.cumsum(above * w[None, :], axis=1)], axis=1)
        pos = np.clip(np.searchsorted(usage.edges, horizons, side="right") - 1,
                      0, usage.values.size)
        measures = np.unique(cum[:, pos])
        measures = measures[measures > 0.0]
        ystar = 1.0 - np.log(measures * (E - 1.0) / volume)
        ys = np.unique(np.concatenate([ys, ystar[(ystar >= 0.0) & (ystar <= 1.0)]]))
    a_sched = _area_matrix(usage, horizons, ys)
    a_ref = u.upper_area(ys[:, None], horizons[None, :])
    return bool(np.all(a_sched <= a_ref + DEFAULT_TOL * np.maximum(1.0, a_ref)))


def extendability_check(sched: Schedule, jobs: JobSet, ratio: float,
                        tol: float = DEFAULT_TOL) -> bool:
    """Whether ``sched`` can absorb any further job at the same ratio.

    Tests A(y) <= (ratio-1) * (1-y)/y * max(V, p_max * y) for all heights y
    in [(ratio-1)/ratio, 1], where A is the upper area of the usage.  The
    check is exact.  Between consecutive usage levels A is linear with slope
    -S, S the measure of {usage > y}; the bound is linear above V/p_max and
    convex below it.  So the excess A - bound peaks at a usage level, at an
    end of the range, at V/p_max, or where the slopes meet below V/p_max:
    at y* = sqrt((ratio-1) V / S).  Exactly those heights are checked.
    """
    if not (ratio > 1.0 and math.isfinite(ratio)):
        raise ContractError(f"ratio must exceed 1 and be finite, got {ratio}")
    total = jobs.total_volume()
    p_max = jobs.max_processing_time()
    usage = sched.total_usage()
    lo = (ratio - 1.0) / ratio
    ys = np.concatenate([usage.values, [lo, 1.0, total / p_max if p_max else 1.0]])
    ys = np.unique(ys[(ys >= lo) & (ys <= 1.0)])
    measure = (usage.values[None, :] > ys[:-1, None]) @ usage.widths()
    with np.errstate(divide="ignore", invalid="ignore"):   # no usage above: no y*
        ystar = np.sqrt((ratio - 1.0) * total / measure)
    inside = (ys[:-1] < ystar) & (ystar < ys[1:])
    ys = np.concatenate([ys, ystar[inside]])
    areas = _area_matrix(usage, np.array([usage.support_end + 1.0]), ys)[:, 0]
    bounds = (ratio - 1.0) * (1.0 - ys) / ys * np.maximum(total, p_max * ys)
    return bool(np.all(areas <= bounds + tol * np.maximum(1.0, bounds)))


def adversarial_instance(n: int) -> JobSet:
    """n jobs with volume 1/n and requirement 1/j; prefix optima are j/n.

    Every ratio below e/(e-1) makes online water-filling fail on this family
    once n is large enough.
    """
    if n < 1:
        raise ContractError("n must be at least 1")
    return JobSet(Job(1.0 / n, 1.0 / j) for j in range(1, n + 1))
