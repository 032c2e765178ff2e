"""Priority-line schedules and their continuous primal-dual structure.

Every job gets a priority line ``d_j(t) = alpha_j - t / v_j``.  At each
instant, jobs whose line is above zero are packed greedily in descending line
height; the dual prices ``gamma`` (capacity) and ``beta_j`` (requirement cap)
fall out of the same construction.  ``solve_alpha`` finds intercepts under
which every job schedules exactly its own volume, which makes the resulting
schedule optimal for the fractional completion-time objective.  Those
intercepts maximise a concave dual whose gradient is the volume residual and
whose Hessian is minus the volume map's Jacobian, so one damped Newton
ascent finds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .core import (
    AlgorithmError,
    ContractError,
    DEFAULT_TOL,
    JobSet,
    Schedule,
    StepFunction,
    _all,
    _any,
    _distinct,
    fractional_completion_time,
)


#: Newton iterations after which ``solve_alpha`` raises ConvergenceError
MAX_ITERS = 200


class DegenerateVolumesError(AlgorithmError):
    """``solve_alpha`` cannot meet ``vol_tol``: two volumes are nearly equal.

    Their priority lines are (nearly) parallel, so the volume map jumps where
    one intercept passes the other.  Building a line schedule from given
    intercepts needs no distinct volumes.
    """


class ConvergenceError(AlgorithmError):
    """solve_alpha ran out of iterations.

    Carries the last volume residual, the Newton iterations taken,
    ``packings``, the kernel evaluations spent, and ``alpha``, a copy of the
    last accepted intercepts, the ones whose residual that is.
    """

    def __init__(self, residual: float, iterations: int, packings: int, alpha: np.ndarray):
        self.residual = residual
        self.iterations = iterations
        self.packings = packings
        self.alpha = alpha
        super().__init__(
            f"volume residual {residual:.3e} after {iterations} iterations "
            f"and {packings} packings"
        )


@dataclass(frozen=True)
class LineSchedule:
    """Primal rates plus the dual prices built from one alpha vector.

    ``jobs`` is the instance the lines belong to.  ``grid`` holds 0 and each
    event of a job's packing row where that job runs on one side, so it
    ends where the last job ends; ``rates[j, i]`` is job j's rate on
    ``[grid[i], grid[i+1])`` and the assignments are built from it.  There
    the capacity price gamma is ``gamma_start[i] + gamma_slope[i] * (t -
    grid[i])``, and the cap price beta_j reads row j of ``beta_start`` and
    ``beta_slope`` the same way; ``prices`` reads both at any time.
    ``scheduled_volumes`` are the exact per-job integrals of the rates
    (these equal the job volumes only when alpha solves for them).
    """

    schedule: Schedule
    alpha: np.ndarray
    gamma_start: np.ndarray
    gamma_slope: np.ndarray
    beta_start: np.ndarray
    beta_slope: np.ndarray
    scheduled_volumes: np.ndarray
    grid: np.ndarray
    jobs: JobSet
    rates: np.ndarray

    def prices(self, t):
        """``(gamma(t), beta(t))``, with ``beta(t)`` of shape ``(n,) + np.shape(t)``:
        right-continuous, and zero for t < 0, for t >= grid[-1] and for NaN."""
        t = np.asarray(t, dtype=float)
        # index -1 (t < 0) and m (past the grid, NaN) read the zero pad column,
        # with dt 0 there: a pad slope times an infinite dt would be a NaN
        idx = self.grid.searchsorted(t, side="right") - 1
        dt = np.where((idx >= 0) & (idx < self.gamma_start.size), t - self.grid[idx], 0.0)

        def read(starts, slopes):
            pad = np.zeros(starts.shape[:-1] + (1,))
            return (np.concatenate((starts, pad), axis=-1)[..., idx]
                    + np.concatenate((slopes, pad), axis=-1)[..., idx] * dt)

        gamma = read(self.gamma_start, self.gamma_slope)
        return (float(gamma) if gamma.ndim == 0 else gamma), read(self.beta_start, self.beta_slope)


@dataclass(frozen=True)
class DualityQuantities:
    """The four objective pieces of a line schedule's primal-dual pair.

    ``volume_payoff`` - ``requirement_penalty`` - ``capacity_penalty`` is the
    dual objective; valid line schedules satisfy
    volume_payoff == primal_cost + requirement_penalty + capacity_penalty
    and primal_cost == requirement_penalty + capacity_penalty.
    """

    primal_cost: float
    volume_payoff: float
    requirement_penalty: float
    capacity_penalty: float


@dataclass(frozen=True)
class SlacknessReport:
    """Maximum absolute violation of each complementary-slackness family."""

    volume: float        # alpha_j * (vbar_j - integral R_j)
    requirement: float   # beta_j(t) * (r_j - R_j(t))
    capacity: float      # gamma(t) * (1 - sum_j R_j(t))
    rate: float          # R_j(t) * (d_j(t) - beta_j(t) - gamma(t))
    dual_feasibility: float  # max(0, d_j(t) - beta_j(t) - gamma(t))

    def max_violation(self) -> float:
        return max(self.volume, self.requirement, self.capacity, self.rate,
                   self.dual_feasibility)


def _check_inputs(jobs: JobSet, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule for intercepts: one per job, each finite and nonnegative, and
    each line's zero ``alpha_j v_j`` finite."""
    a = np.asarray(alpha, dtype=float)
    if a.shape != (len(jobs),):
        raise ContractError(f"alpha of shape {a.shape} gives {a.size} intercepts for "
                            f"{len(jobs)} jobs; it needs one per job")
    if _any(a < 0.0) or not _all(np.isfinite(a)):
        raise ContractError("alpha entries must be finite and nonnegative")
    v = jobs.volumes()
    with np.errstate(over="ignore"):
        overflow = np.isinf(a * v)
    if _any(overflow):
        j = int(overflow.argmax())
        raise ContractError(f"job {j}'s line reaches zero at alpha_j * v_j = "
                            f"{float(a[j])!r} * {float(v[j])!r}, which overflows")
    return v, jobs.requirements(), a


def build_line_schedule(jobs: JobSet, alpha) -> LineSchedule:
    """Construct the line schedule of ``alpha`` with its dual prices.

    Job j's rates are row j of ``_kernel._rows``.  The capacity price gamma
    follows the lowest scheduled priority line on intervals where the
    resource is exhausted and is zero elsewhere (the only choice under which
    gamma-slackness and the duality identities hold when requirement caps
    leave the resource unsaturated); ``beta_j = max(0, d_j - gamma)``.  No
    rate changes inside a grid interval, and the lowest running line changes
    only where it crosses another running line, an event of both rows, so
    gamma and every beta_j are affine there.
    """
    v, r, a = _check_inputs(jobs, alpha)
    n = v.size
    if n == 0:
        return LineSchedule(Schedule.empty(0), a, np.zeros(0), np.zeros(0), np.zeros((0, 0)),
                            np.zeros((0, 0)), np.zeros(0), np.array([0.0]), jobs, np.zeros((0, 0)))
    times, _, row_rates, vols = _kernel._rows(v, r, a)[:4]
    runs = (row_rates[:, :-1] > 0.0) | (row_rates[:, 1:] > 0.0)    # on a side of event i
    grid = _distinct(np.concatenate(([0.0], times[runs])))
    t0 = grid[:-1]
    rates = _kernel._read(times, row_rates, t0)

    # gamma follows line k and beta_j = d_j - gamma wherever they are positive;
    # a priority alpha_j - t / v_j past the float range overflows to -inf,
    # which still reads as the lowest line
    mid = 0.5 * (t0 + grid[1:])
    with np.errstate(over="ignore"):
        _, beta_mid, k = _kernel.prices(a[:, None] - mid[None, :] / v[:, None], rates)
        gamma_start = np.where(k >= 0, a[k] - t0 / v[k], 0.0)
        gamma_slope = np.where(k >= 0, -1.0 / v[k], 0.0)
        positive = beta_mid > 0.0
        beta_start = np.where(positive, a[:, None] - t0[None, :] / v[:, None] - gamma_start, 0.0)
        beta_slope = np.where(positive, -1.0 / v[:, None] - gamma_slope, 0.0)
    # _distinct of 0 and the event times: starts at 0 and increases
    return LineSchedule(Schedule(StepFunction._on_grid(grid, rates[j]) for j in range(n)), a,
                        gamma_start, gamma_slope, beta_start, beta_slope, vols, grid, jobs, rates)


def solve_alpha(jobs: JobSet, vol_tol: float = DEFAULT_TOL) -> np.ndarray:
    """Intercepts under which each job j schedules exactly its volume ``v_j``.

    The intercepts maximise the concave Lagrangian dual
    ``g(alpha) = alpha . v - integral of P(alpha, t) dt``, where
    ``P(alpha, t)`` is the largest value ``sum_j R_j (alpha_j - t / v_j)`` of
    a packing under the unit resource and the caps ``r_j``.  Its gradient is
    ``v - V(alpha)``, with ``V`` the scheduled volumes, and its Hessian is
    ``-J(alpha)``, the exact Jacobian from ``_kernel.line_structure``.

    One damped Newton ascent on ``g``:

    - start where each line reaches zero at the job's completion time when
      the jobs run one after another in ascending volume at full requirement;
    - step ``delta`` solves ``(J + diag(fill) + tiny I) delta = v - V``,
      where ``fill_j = r_j v_j`` (the slope job j would have alone) on the
      jobs that schedule no volume; a ``delta`` that is not an ascent
      direction is replaced by the gradient;
    - the trial point ``max(alpha + s delta, 0)`` is accepted once the
      gradient there has a nonnegative inner product with the move, which
      by concavity means ``g`` did not fall; ``s`` halves from 1 until then.

    Each trial point is packed once, by ``_kernel.line_structure``: the
    accepted point's volumes, Jacobian and the gradient its ascent test read
    drive the next Newton step.

    Stops once max_j |V_j - v_j| <= vol_tol, after one last full
    step that is kept only when it lowers that residual; near the solution
    the step is exact, so the residual usually ends near rounding level.
    Raises ConvergenceError carrying the residual, the Newton iterations
    taken, the packings spent and the last accepted alpha when ``MAX_ITERS``
    iterations do not reach ``vol_tol``, or earlier when the line search can
    no longer move alpha.
    Raises DegenerateVolumesError up front when two volumes are too close for
    any alpha to meet ``vol_tol``, an AlgorithmError when the start overflows,
    and ContractError when ``vol_tol`` is not positive and finite.
    """
    v = jobs.volumes()
    r = jobs.requirements()
    if not 0.0 < vol_tol < np.inf:
        raise ContractError(f"vol_tol must be positive and finite, got {vol_tol}")
    _check_volume_gaps(v, vol_tol)
    n = v.size
    if n == 0:
        return np.zeros(0)

    order = np.argsort(v, kind="stable")
    alpha = np.empty(n)
    with np.errstate(over="ignore"):
        alpha[order] = np.cumsum(v[order] / r[order]) / v[order]
        slopes = 1.0 / v
    if not (_all(np.isfinite(alpha)) and _all(np.isfinite(slopes))):   # no packing is finite
        raise AlgorithmError("solve_alpha's start overflows: a slope 1 / v_j, or the end of "
                             "the jobs run one after another at full requirement, passes "
                             "the float range")
    fill = r * v
    vols, jac = _kernel.line_structure(v, r, alpha)
    grad = v - vols
    packings = 1
    # near the float range an inner product of the step can overflow to
    # +-inf, which the ascent tests still read; a NaN falls back to the gradient
    with np.errstate(over="ignore"):
        for iteration in range(MAX_ITERS + 1):
            residual = float(np.abs(grad).max())
            if residual > vol_tol and iteration == MAX_ITERS:
                break
            hess = jac                                     # in place: jac is not used again
            diagonal = hess.ravel()[::n + 1]
            diagonal += np.where(vols > 0.0, 0.0, fill)
            diagonal += 1e-12 * np.abs(hess).max()
            delta = np.linalg.solve(hess, grad)
            if residual <= vol_tol:
                last = np.maximum(alpha + delta, 0.0)
                better = np.abs(v - _kernel.line_volumes(v, r, last)).max() < residual
                return last if better else alpha
            if not grad @ delta > 0.0:
                delta = grad
            step = 1.0
            while True:
                trial = np.maximum(alpha + step * delta, 0.0)
                if _all(trial == alpha):
                    raise ConvergenceError(residual, iteration, packings, alpha.copy())
                vols, jac = _kernel.line_structure(v, r, trial)
                packings += 1
                grad = v - vols
                if grad @ (trial - alpha) >= 0.0:
                    break
                step *= 0.5
            alpha = trial
    raise ConvergenceError(residual, MAX_ITERS, packings, alpha.copy())


def _check_volume_gaps(v, vol_tol) -> None:
    """Reject volumes too close for the fixed point to meet ``vol_tol``.

    Lines whose slopes differ by a relative gap g cross at a time that moves
    by about eps * sum(v) / g when an intercept moves by one ulp, so below
    some multiple of eps * sum(v) / vol_tol no intercepts meet the volumes
    and the iteration stalls.  Measured with this check bypassed, on
    ``generate_random`` instances of 6 and 8 jobs, seeds 1-10, with job 1's
    volume set to job 0's times (1 + g) for 50 gaps g from 1e-15 to 1e-6:
    the Newton ascent stalled on 9 of the 20 instances, at gaps up to 0.009-
    0.175 times that bound (largest: g = 4e-8 on 6 jobs, seed 5, against a
    guard of 5.7e-8 at vol_tol = 1e-8), each stall ending in 0.02-0.9 s.
    The factor 0.25 covers them.
    """
    sv = np.sort(v)
    with np.errstate(over="ignore"):   # a sum past the float range ties every pair
        scale = np.finfo(float).eps * float(sv.sum())
    gap = 0.25 * scale / vol_tol
    close = np.flatnonzero(np.diff(sv) / sv[1:] <= gap)
    if not close.size:
        return
    if gap >= 1.0:                     # every pair of volumes counts as tied
        raise DegenerateVolumesError(
            f"vol_tol={vol_tol:g} is at most 0.25 * eps * sum(v) = {0.25 * scale:.1e}; "
            "solve_alpha cannot tell any two of these volumes apart"
        )
    lo, hi = sv[close[0]], sv[close[0] + 1]
    raise DegenerateVolumesError(
        f"job volumes {float(lo)!r} and {float(hi)!r} lie within a relative "
        f"{gap:.1e}; solve_alpha cannot meet vol_tol={vol_tol:g} with lines "
        "this close to parallel"
    )


def duality_quantities(ls: LineSchedule) -> DualityQuantities:
    """Exact segment-wise integrals of the four objective pieces; each
    requirement-penalty row is summed with its r_j applied first, so a row
    sum near the float range cannot overflow before r_j scales it down."""
    r = ls.jobs.requirements()
    primal = fractional_completion_time(ls.jobs, ls.schedule)[1]
    payoff = float(np.dot(ls.alpha, ls.scheduled_volumes))
    w = np.diff(ls.grid)
    with np.errstate(over="ignore"):
        heights = ls.beta_start + 0.5 * ls.beta_slope * w
        # np.vecdot sums each row as np.dot does; a matrix product may round differently
        req = sum(np.vecdot(r[:, None] * heights, w))
        cap = np.dot(w, ls.gamma_start + 0.5 * ls.gamma_slope * w)
    return DualityQuantities(primal, payoff, float(req), float(cap))


def check_slackness(ls: LineSchedule) -> SlacknessReport:
    """Evaluate all four slackness families plus dual feasibility, exactly.

    On each ``ls.grid`` interval the rates are constant and ``d_j``,
    ``beta_j`` and ``gamma`` are affine (gamma's line changes only at an
    event of a running line, a grid point), so every family is affine there
    and its largest magnitude sits at an end of the interval.  Each family
    is read at both ends of every interval (the right end as the limit from
    inside), and dual feasibility also just past the grid, where only the
    lines are left.  Exact grid integrals feed the volume condition.
    """
    v = ls.jobs.volumes()
    r = ls.jobs.requirements()
    vol_viol = float(np.max(np.abs(ls.alpha * (ls.scheduled_volumes - ls.schedule.volumes())),
                            initial=0.0))
    grid, rates = ls.grid, ls.rates
    if grid.size < 2:
        return SlacknessReport(vol_viol, 0.0, 0.0, 0.0, 0.0)
    w = np.diff(grid)
    ends = np.stack([grid[:-1], grid[1:]])[:, None, :]                 # (2, 1, m)

    def at_ends(starts, slopes):                                      # (2, rows, m)
        return np.stack([starts, starts + slopes * w])

    beta = at_ends(ls.beta_start, ls.beta_slope)
    gamma = at_ends(ls.gamma_start[None, :], ls.gamma_slope[None, :])
    reduced = ls.alpha[:, None] - ends / v[:, None] - beta - gamma     # d_j - beta_j - gamma
    tail = ls.alpha - grid[-1] / v
    return SlacknessReport(
        vol_viol,
        float(np.max(np.abs(beta * (r[:, None] - rates)))),
        float(np.max(np.abs(gamma * (1.0 - rates.sum(axis=0))))),
        float(np.max(np.abs(rates * reduced))),
        float(max(reduced.max(), tail.max(), 0.0)),
    )


def cost_rates_on_grid(ls: LineSchedule) -> np.ndarray:
    """Cost rate on every grid interval, in time order."""
    return (ls.rates / ls.jobs.volumes()[:, None]).sum(axis=0)
