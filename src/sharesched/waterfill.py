"""Makespan: offline optimum, online water-filling, and flatness machinery.

The offline optimum is closed-form.  The online algorithm pours each arriving
job into the current schedule at the lowest water level that meets a target
completion time of (e/(e-1)) times the current offline optimum; universal
schedules are the analytic reference shapes that certify why those targets
always suffice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    DEFAULT_TOL,
    InstanceError,
    Job,
    JobSet,
    Schedule,
    StepFunction,
    _distinct,
    _pieces_before,
    _union_grid,
)

E = math.e
#: the optimal competitive ratio e / (e - 1)
COMPETITIVE_RATIO = E / (E - 1.0)
#: entries (candidate levels, repeats included, x usage pieces) that
#: ``waterfill_step`` sums in one block; past it the level search bisects on
#: single candidates first
BLOCK_ENTRIES = 2048
#: the two candidate levels every step has, 0 and 1
_UNIT = np.array([0.0, 1.0])
_UNIT.flags.writeable = False


def optimal_makespan(jobs: JobSet) -> tuple[float, Schedule]:
    """Offline optimal makespan and a schedule attaining it.

    The optimum is max(total volume, longest processing time).  Constant
    rates v_j / p_max finish everything at p_max; when they oversubscribe the
    resource, scaling by the reciprocal usage finishes everything at the
    total volume instead.  No jobs give 0 and the empty schedule.
    """
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

    The candidates are those levels, 0 and 1, clipped into [0, 1] in place
    and sorted, not deduplicated: a clipped candidate repeats 0.0 or 1.0,
    and a repeat sums like its twin, so the first candidate that reaches
    the volume, and the strictly smaller one before it, are those of the
    distinct list.  They are levels, not a time grid, so every sorted grid
    of the package still comes from ``_distinct``.

    The search finds the first candidate whose volume reaches the job's
    volume, as a scan in order would.  Each sum is a row of one
    ``np.vecdot``: every term ``w * min(r, max(h - level, 0))`` is
    nondecreasing in h, rounding is monotone, and the terms are added in the
    same order at every h, so the sums are nondecreasing as computed, not
    only in exact arithmetic, and a row does not depend on the block it sits
    in.  While the candidates left, repeats included, times the K usage
    pieces exceed ``BLOCK_ENTRIES``, a bisection on single candidates
    narrows the range; one block then sums every candidate left through the
    top one, whose sum is the capacity below level 1 when no probe reached
    the volume, and ``searchsorted`` takes the first that reaches it.  The level is
    interpolated from the sums at that candidate and the one before.

    A step costs O(K log K) for the bisection plus at most ``BLOCK_ENTRIES``
    entries for the block (all of the 2K + 2 candidates at once when they
    fit).  The deadline must be finite and nonnegative.  At 0 no capacity is
    left, so the job fails with its volume as deficit, unless that is within
    the tolerance every deadline forgives (then: zero assignment, level 1).
    """
    if not 0.0 <= deadline < math.inf:
        raise ContractError(f"deadline must be finite and nonnegative, got {deadline!r}")
    edges, widths, levels = _pieces_before(usage, deadline)
    r, v = job.requirement, job.volume
    cands = np.concatenate((levels, levels + r, _UNIT))
    np.maximum(cands, 0.0, out=cands)
    np.minimum(cands, 1.0, out=cands)
    cands.sort()        # the last one is 1.0

    def block(lo: int, hi: int) -> np.ndarray:
        """The volume below each of ``cands[lo:hi]``."""
        rows = cands[lo:hi, None] - levels
        np.maximum(rows, 0.0, out=rows)
        np.minimum(rows, r, out=rows)
        return np.vecdot(rows, widths)

    # the first candidate reaching v lies in [lo, hi], and ``below_lo`` is
    # the sum at lo - 1; hi stays at 1.0 unless a probe reaches v
    lo, hi, below_lo = 0, cands.size - 1, 0.0
    while (hi - lo) * levels.size > BLOCK_ENTRIES:
        mid = (lo + hi) // 2
        val = float(block(mid, mid + 1)[0])
        if val >= v:
            hi = mid
        else:
            lo, below_lo = mid + 1, val
    sums = block(lo, hi + 1)
    top = float(sums[-1])
    if top < v - DEFAULT_TOL * max(1.0, v):
        return WaterfillOutcome(ok=False, deficit=v - top)
    level = 1.0     # kept when the capacity falls short of v within the tolerance
    if top >= v:
        j = int(sums.searchsorted(v))
        i = lo + j
        if i == 0:      # reachable when a caller's usage has negative levels
            level = float(cands[0])
        else:
            prev_h, h = cands[i - 1], cands[i]
            prev_vol, val = (sums[j - 1] if j else below_lo), sums[j]
            level = float(prev_h + (v - prev_vol) * (h - prev_h) / (val - prev_vol))
    rates = level - levels
    np.maximum(rates, 0.0, out=rates)
    np.minimum(rates, r, out=rates)
    # the usage's edges before the deadline, then the deadline
    return WaterfillOutcome(ok=True, assignment=StepFunction._on_grid(edges, rates), level=level)


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
    fit and records its index and deficit.  A target past the float range
    is an ``InstanceError``, raised before its step.
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
        if not target < math.inf:
            raise InstanceError(f"job {idx}'s target completion time {ratio!r} * {opt!r} "
                                f"overflows the float range")
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
        if t < 0.0:
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


def _cumulative(marks: np.ndarray, usage: StepFunction, horizons: np.ndarray) -> np.ndarray:
    """Integral over [0, C) of each row of per-usage-interval ``marks``, one
    column per horizon C >= 0 (inf too: C is first cut to the support end,
    past which every mark is 0): the cumulative sum at the edge at or before
    C plus the offset past it times the mark there.  An integral past the
    float range reads inf."""
    e = usage.edges
    horizons = np.minimum(horizons, e[-1])
    pos = e.searchsorted(horizons, side="right") - 1
    cum = np.zeros((marks.shape[0], e.size))
    padded = np.concatenate((marks, np.zeros((marks.shape[0], 1))), axis=1)
    with np.errstate(over="ignore"):
        np.cumsum(marks * (e[1:] - e[:-1]), axis=1, out=cum[:, 1:])
        return cum[:, pos] + (horizons - e[pos]) * padded[:, pos]


def _area_matrix(usage: StepFunction, horizons: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Upper areas of a usage profile: one row per height, one column per horizon."""
    return _cumulative(np.maximum(usage.values - ys[:, None], 0.0), usage, horizons)


def upper_resource_distribution(sched: Schedule, C: float, y: float) -> float:
    """Total volume above height ``y`` before time ``C`` in the schedule."""
    if not (0.0 <= y <= 1.0 + DEFAULT_TOL):
        raise ContractError("y must lie in [0, 1]")
    if not C >= 0.0:
        raise ContractError("C must be nonnegative")
    return float(_area_matrix(sched.total_usage(), np.array([C]), np.array([y]))[0, 0])


def is_flatter(first: Schedule, second: Schedule) -> bool:
    """Whether ``first`` has pointwise no larger upper resource distribution.

    Checked on the finite grid of both schedules' breakpoints crossed with
    both usage levels (plus 0); between those points the difference is linear
    in the horizon and a difference of convex piecewise-linear functions of
    the height, so the grid check is exact.
    """
    u1 = first.total_usage()
    u2 = second.total_usage()
    horizons = _union_grid([u1, u2])
    levels = _distinct(np.concatenate([u1.values, u2.values, [0.0]]))
    levels = levels[(levels >= 0.0) & (levels <= 1.0)]
    a1 = _area_matrix(u1, horizons, levels)
    a2 = _area_matrix(u2, horizons, levels)
    return bool(np.all(a1 <= a2 + DEFAULT_TOL * np.maximum(1.0, a2)))


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
    horizons = _distinct(np.append(usage.edges, far))
    levels = _distinct(np.concatenate([usage.values, [0.0, 1.0]]))
    levels = levels[(levels >= 0.0) & (levels <= 1.0)]
    ys = levels
    if volume > 0.0:
        # measures of {usage > level} before each horizon
        measures = _distinct(_cumulative(usage.values > levels[:, None], usage, horizons))
        measures = measures[measures > 0.0]
        ystar = 1.0 - np.log(measures * (E - 1.0) / volume)
        ys = _distinct(np.concatenate([ys, ystar[(ystar >= 0.0) & (ystar <= 1.0)]]))
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
    ys = _distinct(ys[(ys >= lo) & (ys <= 1.0)])
    measure = _cumulative(usage.values > ys[:-1, None], usage, np.array([usage.support_end]))[:, 0]
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
