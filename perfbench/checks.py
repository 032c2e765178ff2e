"""Output checks written apart from sharesched.

Every check reads a schedule as plain arrays: for each job a breakpoint
vector ``edges`` that starts at 0 and the constant rate ``values[i]`` on
``[edges[i], edges[i+1])``.  Bounds and optima are recomputed here from the
instance in closed form, and the slot LP is solved by scipy.  Nothing in
this module imports sharesched, so a fault in the program's own validator or
bounds cannot hide a fault in its schedules.

Each check returns a list of short error strings; an empty list means the
output passed.
"""

from __future__ import annotations

import math

import numpy as np

#: optimal competitive ratio of online water-filling
E_RATIO = math.e / (math.e - 1.0)
#: absolute tolerance on resource levels (rates and summed usage)
RATE_TOL = 1e-9
#: tolerance on each job's volume, per unit of max(1, volume); ``solve_alpha``
#: stops on a volume residual of 1e-8
VOL_TOL = 1e-8
#: relative tolerance on objective values compared or bounded
REL_TOL = 1e-9


def isclose(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- schedules as arrays ------------------------------------------------------


def grid_rates(steps) -> tuple[np.ndarray, np.ndarray]:
    """Merged breakpoint grid of all jobs and every job's rate on it.

    Returns ``(grid, rates)`` with ``rates[j, i]`` the rate of job j on
    ``[grid[i], grid[i+1])``; each job is read at the interval midpoints.
    """
    if not steps:
        return np.array([0.0]), np.zeros((0, 0))
    grid = np.unique(np.concatenate([np.asarray(e, dtype=float) for e, _ in steps]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    rates = np.zeros((len(steps), mids.size))
    for j, (e, x) in enumerate(steps):
        x = np.asarray(x, dtype=float)
        if not x.size:
            continue
        k = np.searchsorted(np.asarray(e, dtype=float), mids, side="right") - 1
        inside = (k >= 0) & (k < x.size)
        rates[j] = np.where(inside, x[np.clip(k, 0, x.size - 1)], 0.0)
    return grid, rates


def completion_times(steps) -> np.ndarray:
    """End of each job's last interval with a positive rate (0 for none)."""
    out = np.zeros(len(steps))
    for j, (e, x) in enumerate(steps):
        pos = np.flatnonzero(np.asarray(x, dtype=float) > 0.0)
        if pos.size:
            out[j] = float(e[pos[-1] + 1])
    return out


def _malformed(steps) -> list[str]:
    errors = []
    for j, (e, x) in enumerate(steps):
        e = np.asarray(e, dtype=float)
        x = np.asarray(x, dtype=float)
        if (e.ndim != 1 or x.ndim != 1 or e.size != x.size + 1 or e[0] != 0.0
                or np.any(np.diff(e) <= 0.0)
                or not (np.all(np.isfinite(e)) and np.all(np.isfinite(x)))):
            errors.append(f"job {j}: malformed breakpoints or rates")
    return errors


def feasibility_errors(v, r, steps, exact_volume: bool = True) -> list[str]:
    """Breaches of the feasibility clauses of a schedule.

    Each rate lies in [0, r_j], the summed rate is at most 1 on the merged
    grid, and each job's integral equals v_j.  With ``exact_volume=False`` a
    surplus is allowed (the approximation pipeline stretches every job by the
    largest shortfall, so most jobs receive more than their volume).
    """
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    if len(steps) != v.size:
        return [f"{len(steps)} assignments for {v.size} jobs"]
    errors = _malformed(steps)
    if errors:
        return errors
    grid, rates = grid_rates(steps)
    widths = np.diff(grid)
    for j in range(v.size):
        row = rates[j]
        if row.size and row.min() < -RATE_TOL:
            errors.append(f"job {j}: negative rate {row.min():.3g}")
        if row.size and row.max() - r[j] > RATE_TOL:
            errors.append(f"job {j}: rate {row.max():.17g} above its cap {r[j]:.17g}")
        vol = float(row @ widths)
        slack = VOL_TOL * max(1.0, v[j])
        if vol < v[j] - slack:
            errors.append(f"job {j}: volume deficit {v[j] - vol:.3g}")
        elif exact_volume and vol > v[j] + slack:
            errors.append(f"job {j}: volume surplus {vol - v[j]:.3g}")
    if rates.size:
        peak = rates.sum(axis=0).max()
        if peak - 1.0 > RATE_TOL:
            errors.append(f"overuse: summed rate {peak:.17g} exceeds 1")
    return errors


# -- closed-form bounds -------------------------------------------------------


def squashed_area_bound(v) -> float:
    """Completion total of the ascending-volume order run at full resource."""
    return float(np.cumsum(np.sort(np.asarray(v, dtype=float))).sum())


def total_length_bound(v, r) -> float:
    """Sum of processing times v_j / r_j."""
    return float((np.asarray(v, dtype=float) / np.asarray(r, dtype=float)).sum())


def tct_lower_bound(v, r) -> float:
    return max(squashed_area_bound(v), total_length_bound(v, r))


def makespan_optimum(v, r) -> float:
    """Offline optimal makespan: max(total volume, longest processing time)."""
    v = np.asarray(v, dtype=float)
    return float(max(v.sum(), (v / np.asarray(r, dtype=float)).max()))


def prefix_optima(v, r) -> np.ndarray:
    """Offline optimal makespan of every prefix of the arrival order."""
    v = np.asarray(v, dtype=float)
    return np.maximum(np.cumsum(v), np.maximum.accumulate(v / np.asarray(r, dtype=float)))


def cost_errors(v, r, steps, upper: float | None = None,
                upper_name: str = "upper bound") -> list[str]:
    """Total completion time against the lower bounds and an optional upper bound."""
    cost = float(completion_times(steps).sum())
    lower = tct_lower_bound(v, r)
    errors = []
    if cost < lower * (1.0 - REL_TOL):
        errors.append(f"total completion time {cost:.17g} below the lower bound {lower:.17g}")
    if upper is not None and cost > upper * (1.0 + REL_TOL):
        errors.append(f"total completion time {cost:.17g} above the {upper_name} {upper:.17g}")
    return errors


# -- method-specific properties -----------------------------------------------


def online_deadline_errors(v, r, steps, ratio: float = E_RATIO) -> list[str]:
    """Each job must finish by ``ratio`` times the offline optimum of its prefix."""
    deadline = ratio * prefix_optima(v, r)
    late = completion_times(steps) - deadline
    bad = np.flatnonzero(late > REL_TOL * np.maximum(1.0, deadline))
    return [f"job {j} finishes {late[j]:.3g} after its online deadline {deadline[j]:.17g}"
            for j in bad[:3]]


def long_heavy(v, r, mu: float) -> np.ndarray:
    """Mask of the pipeline's long-heavy jobs for share ``mu``.

    Light jobs have r_j <= mu/n; short-heavy ones are not light and have
    v_j/r_j <= (mu/n)^2 p_max; long-heavy jobs are the rest.
    """
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    n = v.size
    p = v / r
    light = r <= mu / n
    return ~light & (p > (mu / n) ** 2 * p.max())


def lsapprox_errors(v, r, steps, mu: float) -> list[str]:
    """The pipeline's resource split: long-heavy jobs share at most 1 - mu,
    and every other job runs at the constant rate min(mu/n, r_j) from 0 until
    its volume is done."""
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    n = v.size
    heavy = long_heavy(v, r, mu)
    errors = []
    _, rates = grid_rates(steps)
    if rates.size:
        peak = rates[heavy].sum(axis=0).max()
        if peak - (1.0 - mu) > RATE_TOL:
            errors.append(f"long-heavy jobs use {peak:.17g}, above the 1 - mu = {1.0 - mu:.17g} share")
    for j in np.flatnonzero(~heavy):
        rate = min(mu / n, r[j])
        e = np.asarray(steps[j][0], dtype=float)
        x = np.asarray(steps[j][1], dtype=float)
        pos = np.flatnonzero(x > 0.0)
        if (not pos.size or e[pos[0]] != 0.0 or np.any(np.abs(x[pos[0]:pos[-1] + 1] - rate) > RATE_TOL)
                or not isclose(float(e[pos[-1] + 1]), v[j] / rate)):
            errors.append(f"job {j}: not a constant rate {rate:.6g} on [0, v/rate)")
    return errors


# -- slot LP ------------------------------------------------------------------


def slot_lp_optimum(v, r, horizon: float, n_slots: int) -> float:
    """Optimum of the slot LP, solved by scipy's HiGHS.

    Variables x[j, i] are job j's volume in slot i, priced at the slot
    midpoint over v_j.  Each job gets at least v_j, each slot holds at most
    its width, and job j at most r_j times the width in any slot.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, eye, hstack, kron, vstack

    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    n = v.size
    width = horizon / n_slots
    mids = (np.arange(n_slots) + 0.5) * width
    cost = (mids[None, :] / v[:, None]).ravel()
    demand = -kron(eye(n), np.ones((1, n_slots)))
    capacity = hstack([eye(n_slots)] * n)
    a_ub = csr_matrix(vstack([demand, capacity]))
    b_ub = np.concatenate([-v, np.full(n_slots, width)])
    bounds = np.column_stack([np.zeros(n * n_slots), np.repeat(r * width, n_slots)])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"scipy could not solve the slot LP: {res.message}")
    return float(res.fun)


def fractional_lp_errors(v, r, fractional: float, n_slots: int = 256) -> list[str]:
    """A claimed fractional optimum against the slot LP on horizon n * p_max.

    Slot-constant rates are a special case, so the LP optimum is at least the
    fractional optimum.  Averaging an optimal schedule's rates within each
    slot keeps it feasible and moves each job's fractional completion time
    by at most half a slot, so the LP optimum is at most the fractional
    optimum plus n * width / 2.  That is the stated gap.
    """
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    horizon = v.size * float((v / r).max())
    lp = slot_lp_optimum(v, r, horizon, n_slots)
    gap = v.size * horizon / n_slots / 2.0
    errors = []
    if fractional > lp * (1.0 + 1e-7):
        errors.append(f"fractional optimum {fractional:.17g} above the slot LP {lp:.17g}")
    if lp - fractional > gap * (1.0 + 1e-7):
        errors.append(f"fractional optimum {fractional:.17g} more than {gap:.6g} below the slot LP {lp:.17g}")
    return errors


def slot_lp_match_errors(v, r, objective: float, horizon: float, n_slots: int) -> list[str]:
    """A slot-LP optimum reported by the program against scipy's."""
    ref = slot_lp_optimum(v, r, horizon, n_slots)
    if abs(objective - ref) > 1e-6 * max(1.0, abs(ref)):
        return [f"slot LP optimum {objective:.17g} differs from scipy's {ref:.17g}"]
    return []
