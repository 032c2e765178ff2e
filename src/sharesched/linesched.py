"""Priority-line schedules and their continuous primal-dual structure.

Every job gets a priority line ``d_j(t) = alpha_j - t / v_j``.  At each
instant, jobs whose line is above zero are packed greedily in descending line
height; the dual prices ``gamma`` (capacity) and ``beta_j`` (requirement cap)
fall out of the same construction.  ``solve_alpha`` finds intercepts under
which every job schedules exactly a target volume, which makes the resulting
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
    ContractError,
    DEFAULT_TOL,
    JobSet,
    PiecewiseLinear,
    Schedule,
    StepFunction,
)


class DegenerateVolumesError(ContractError):
    """``solve_alpha`` cannot meet ``vol_tol``: two volumes are nearly equal.

    Their priority lines are (nearly) parallel, so the volume map jumps where
    one intercept passes the other.  Building a line schedule from given
    intercepts needs no distinct volumes.
    """


class ConvergenceError(RuntimeError):
    """solve_alpha ran out of iterations.

    Carries the last volume residual, the Newton iterations taken and
    ``packings``, the kernel evaluations spent.
    """

    def __init__(self, residual: float, iterations: int, packings: int):
        self.residual = residual
        self.iterations = iterations
        self.packings = packings
        super().__init__(
            f"volume residual {residual:.3e} after {iterations} iterations "
            f"and {packings} packings"
        )


@dataclass(frozen=True)
class LineSchedule:
    """Primal rates plus the dual prices built from one alpha vector.

    ``grid`` holds every pairwise line crossing at positive time and every
    line zero; rates, ``gamma`` and ``beta`` are affine within each grid
    interval.  ``scheduled_volumes`` are the exact per-job integrals of the
    rates (these equal the demand vector only when alpha solves for it).
    """

    schedule: Schedule
    alpha: np.ndarray
    beta: tuple[PiecewiseLinear, ...]
    gamma: PiecewiseLinear
    scheduled_volumes: np.ndarray
    grid: np.ndarray
    job_volumes: np.ndarray


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

    @property
    def dual_objective(self) -> float:
        return self.volume_payoff - self.requirement_penalty - self.capacity_penalty


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
    a = np.asarray(alpha, dtype=float)
    if a.shape != (len(jobs),):
        raise ContractError(f"alpha must have length {len(jobs)}")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise ContractError("alpha entries must be finite and nonnegative")
    return jobs.volumes(), jobs.requirements(), a


def build_line_schedule(jobs: JobSet, alpha) -> LineSchedule:
    """Construct the line schedule of ``alpha`` with its dual prices.

    The capacity price gamma follows the lowest scheduled priority line on
    intervals where the resource is exhausted and is zero elsewhere (the
    only choice under which gamma-slackness and the duality identities hold
    when requirement caps leave the resource unsaturated);
    ``beta_j = max(0, d_j - gamma)``.
    """
    v, r, a = _check_inputs(jobs, alpha)
    n = v.size
    if n == 0:
        return LineSchedule(Schedule.empty(0), a, (), PiecewiseLinear.zero(),
                            np.zeros(0), np.array([0.0]), np.zeros(0))
    grid = np.unique(_kernel.breakpoints(v, a)[0])
    rates = _kernel.rates_at(v, r, a, grid[:-1])
    m = grid.size - 1
    assignments = [StepFunction(grid, rates[j]) if m else StepFunction.zero() for j in range(n)]

    # gamma follows line k and beta_j = d_j - gamma wherever they are positive
    t0 = grid[:-1]
    mid = 0.5 * (t0 + grid[1:])
    _, beta_mid, k = _kernel.prices(a[:, None] - mid[None, :] / v[:, None], rates)
    gamma_start = np.where(k >= 0, a[k] - t0 / v[k], 0.0)
    gamma_slope = np.where(k >= 0, -1.0 / v[k], 0.0)
    positive = beta_mid > 0.0
    beta_start = np.where(positive, a[:, None] - t0[None, :] / v[:, None] - gamma_start, 0.0)
    beta_slope = np.where(positive, -1.0 / v[:, None] - gamma_slope, 0.0)
    gamma = PiecewiseLinear(grid, gamma_start, gamma_slope) if m else PiecewiseLinear.zero()
    beta = tuple(
        PiecewiseLinear(grid, beta_start[j], beta_slope[j]) if m else PiecewiseLinear.zero()
        for j in range(n)
    )
    return LineSchedule(Schedule(assignments), a, beta, gamma, rates @ np.diff(grid), grid, v)


def solve_alpha(jobs: JobSet, targets=None, vol_tol: float = DEFAULT_TOL,
                max_iters: int = 200) -> np.ndarray:
    """Intercepts under which job j schedules exactly ``targets[j]`` volume.

    The intercepts maximise the concave Lagrangian dual
    ``g(alpha) = alpha . tau - integral of P(alpha, t) dt``, where
    ``P(alpha, t)`` is the largest value ``sum_j R_j (alpha_j - t / v_j)`` of
    a packing under the unit resource and the caps ``r_j``.  Its gradient is
    ``tau - V(alpha)``, with ``V`` the scheduled volumes, and its Hessian is
    ``-J(alpha)``, the exact Jacobian from ``_kernel.line_structure``.

    One damped Newton ascent on ``g``:

    - start where each line reaches zero at the job's completion time when
      the jobs run one after another in ascending volume at full requirement;
    - step ``delta`` solves ``(J + diag(fill) + tiny I) delta = tau - V``,
      where ``fill_j = r_j v_j`` (the slope job j would have alone) on the
      jobs that schedule no volume; a ``delta`` that is not an ascent
      direction is replaced by the gradient;
    - the trial point ``max(alpha + s delta, 0)`` is accepted once the
      gradient there has a nonnegative inner product with the move, which
      by concavity means ``g`` did not fall; ``s`` halves from 1 until then.

    Each trial point is packed once, by ``_kernel.line_structure``: the
    accepted point's volumes and Jacobian drive the next Newton step.

    Stops once max_j |vol_j - targets_j| <= vol_tol, after one last full
    step that is kept only when it lowers that residual; near the solution
    the step is exact, so the residual usually ends near rounding level.
    Raises ConvergenceError carrying the residual, the Newton iterations
    taken and the packings spent when ``max_iters`` iterations do not reach
    ``vol_tol``, or earlier when the line search can no longer move alpha.
    Raises DegenerateVolumesError up front when two volumes are too close for
    any alpha to meet ``vol_tol``, and ContractError when ``vol_tol`` is not
    positive.
    """
    v = jobs.volumes()
    r = jobs.requirements()
    if targets is None:
        targets = v.copy()
    tau = np.asarray(targets, dtype=float)
    if tau.shape != v.shape:
        raise ContractError("targets must have one entry per job")
    if np.any(tau <= 0.0):
        raise ContractError("targets must be positive")
    if not vol_tol > 0.0:
        raise ContractError(f"vol_tol must be positive, got {vol_tol}")
    _check_volume_gaps(v, vol_tol)
    n = v.size
    if n == 0:
        return np.zeros(0)

    order = np.argsort(v, kind="stable")
    alpha = np.empty(n)
    alpha[order] = np.cumsum(tau[order] / r[order]) / v[order]
    vols, jac = _kernel.line_structure(v, r, alpha)
    packings = 1
    for iteration in range(max_iters + 1):
        grad = tau - vols
        residual = float(np.max(np.abs(grad)))
        if residual > vol_tol and iteration == max_iters:
            break
        hess = jac + np.diag(np.where(vols > 0.0, 0.0, r * v))
        hess += 1e-12 * np.abs(hess).max() * np.eye(n)
        delta = np.linalg.solve(hess, grad)
        if residual <= vol_tol:
            last = np.maximum(alpha + delta, 0.0)
            better = np.max(np.abs(tau - _kernel.line_volumes(v, r, last))) < residual
            return last if better else alpha
        if not grad @ delta > 0.0:
            delta = grad
        step = 1.0
        while True:
            trial = np.maximum(alpha + step * delta, 0.0)
            if np.array_equal(trial, alpha):
                raise ConvergenceError(residual, iteration, packings)
            vols, jac = _kernel.line_structure(v, r, trial)
            packings += 1
            if (tau - vols) @ (trial - alpha) >= 0.0:
                break
            step *= 0.5
        alpha = trial
    raise ConvergenceError(residual, max_iters, packings)


def _check_volume_gaps(v, vol_tol) -> None:
    """Reject volumes too close for the fixed point to meet ``vol_tol``.

    Lines whose slopes differ by a relative gap g cross at a time that moves
    by about eps * sum(v) / g when an intercept moves by one ulp, so below
    some multiple of eps * sum(v) / vol_tol no intercepts meet the targets
    and the iteration stalls.  Measured with this check bypassed, on
    ``generate_random`` instances of 6 and 8 jobs, seeds 1-10, with job 1's
    volume set to job 0's times (1 + g) for 50 gaps g from 1e-15 to 1e-6:
    the Newton ascent stalled on 9 of the 20 instances, at gaps up to 0.009-
    0.175 times that bound (largest: g = 4e-8 on 6 jobs, seed 5, against a
    guard of 5.7e-8 at vol_tol = 1e-8), each stall ending in 0.02-0.9 s.
    The factor 0.25 covers them.
    """
    sv = np.sort(v)
    gap = 0.25 * np.finfo(float).eps * float(sv.sum()) / vol_tol
    close = np.flatnonzero(np.diff(sv) <= gap * sv[1:])
    if close.size:
        lo, hi = sv[close[0]], sv[close[0] + 1]
        raise DegenerateVolumesError(
            f"job volumes {float(lo)!r} and {float(hi)!r} lie within a relative "
            f"{gap:.1e}; solve_alpha cannot meet vol_tol={vol_tol:g} with lines "
            "this close to parallel"
        )


def duality_quantities(ls: LineSchedule, jobs: JobSet) -> DualityQuantities:
    """Exact segment-wise integrals of the four objective pieces."""
    v = jobs.volumes()
    r = jobs.requirements()
    primal = sum(
        a.first_moment() / vj for a, vj in zip(ls.schedule.assignments, v)
    )
    payoff = float(np.dot(ls.alpha, ls.scheduled_volumes))
    req = sum(rj * b.integral() for rj, b in zip(r, ls.beta))
    cap = ls.gamma.integral()
    return DualityQuantities(float(primal), payoff, float(req), float(cap))


def check_slackness(ls: LineSchedule, jobs: JobSet) -> SlacknessReport:
    """Evaluate all four slackness families plus dual feasibility, exactly.

    On each ``ls.grid`` interval the rates are constant and ``d_j``,
    ``beta_j`` and ``gamma`` are affine, so every family is affine there and
    its largest magnitude sits at an end of the interval.  Each family is
    read at both ends of every interval (the right end as the limit from
    inside), and dual feasibility also just past the grid, where only the
    lines are left.  Exact grid integrals feed the volume condition.
    """
    v = jobs.volumes()
    r = jobs.requirements()
    vol_viol = float(np.max(np.abs(ls.alpha * (ls.scheduled_volumes - ls.schedule.volumes())),
                            initial=0.0))
    grid = ls.grid
    if grid.size < 2:
        return SlacknessReport(vol_viol, 0.0, 0.0, 0.0, 0.0)
    w = np.diff(grid)
    rates = np.vstack([a(grid[:-1]) for a in ls.schedule.assignments])
    ends = np.stack([grid[:-1], grid[1:]])[:, None, :]                 # (2, 1, m)

    def at_ends(starts, slopes):                                      # (2, rows, m)
        return np.stack([starts, starts + slopes * w])

    beta = at_ends(np.vstack([b.starts for b in ls.beta]), np.vstack([b.slopes for b in ls.beta]))
    gamma = at_ends(ls.gamma.starts[None, :], ls.gamma.slopes[None, :])
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
    if ls.grid.size < 2:
        return np.zeros(0)
    rates = np.vstack([a(ls.grid[:-1]) for a in ls.schedule.assignments])
    return (rates / ls.job_volumes[:, None]).sum(axis=0)
