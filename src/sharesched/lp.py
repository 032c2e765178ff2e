"""Slot-discretized linear program for fractional completion time.

Time is cut into equal slots; the variables are per-job volumes per slot,
priced at the slot midpoint divided by the job volume.  Constraints: each job
accumulates its demand, no slot exceeds its capacity, and no job exceeds its
requirement cap within a slot.

The engine is a self-contained dense bounded-variable two-phase simplex
(duals read from the optimal basis).  Because the optimal solution is
piecewise constant between O(n^2) structure-change slots, the full problem is
solved on an adaptively refined slot-block aggregation; every round a
Lagrangian weak-duality bound certifies how far the aggregated optimum can be
from the true one, and refinement stops once that certificate gap vanishes.
The first blocks are cut at the breakpoints of the continuous optimum, the
line schedule that ``linesched.solve_alpha`` solves for without slots, so
most solves certify in the first round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .core import ContractError, JobSet, Schedule, StepFunction, _fmt
from .linesched import ConvergenceError, DegenerateVolumesError, solve_alpha


class SimplexError(RuntimeError):
    """The solver hit its pivot or refinement limit."""


class InfeasibleInstanceError(RuntimeError):
    """The demanded volumes do not fit the horizon."""


class SlotWidthError(ContractError):
    """The slot width does not divide the horizon, which depends on the instance."""


# ---------------------------------------------------------------------------
# dense bounded-variable two-phase simplex

#: consecutive degenerate pivots after which pricing switches to Bland's rule
STALL_SWITCH = 60
#: pivots after which ``dense_simplex`` raises SimplexError
MAX_PIVOTS = 500_000
#: relative certificate gap at which ``solve_lp`` accepts a block optimum
CERTIFICATE_TOL = 1e-9
#: refinement rounds after which ``solve_lp`` raises SimplexError
MAX_ROUNDS = 64
#: slots on the horizon when no slot width is given
SLOTS = 1024


def _slack_rows(c, upper, cols, rows, vals):
    """Rows with a slack column, and that column (the first one per row).

    A slack column is a unit vector e_i with zero cost and no upper bound.
    ``cols, rows, vals`` are the nonzero entries of A, ordered by column.
    """
    count = np.bincount(cols, minlength=c.size)
    k = np.flatnonzero((vals == 1.0) & (count[cols] == 1) & (c[cols] == 0.0)
                       & np.isposinf(upper[cols]))
    slack_rows, first = np.unique(rows[k], return_index=True)
    return slack_rows, cols[k][first]


def _crash(c, upper, cols, rows, vals, xB, art):
    """Greedy at-upper crash from a basis whose inverse is the identity.

    Walks the boxed columns in ascending cost and puts each at its upper
    bound when that lowers some artificial (rows flagged in ``art``) and
    keeps every basic value nonnegative.  Updates ``xB`` in place and
    returns the columns put at their upper bound.
    """
    reach = np.zeros(c.size, dtype=bool)
    reach[cols[art[rows] & (vals > 0.0)]] = True
    cand = np.flatnonzero(reach & np.isfinite(upper) & (upper > 0.0))
    cand = cand[np.argsort(c[cand], kind="stable")]
    starts = np.searchsorted(cols, cand)
    ends = np.searchsorted(cols, cand, side="right")
    x, is_art = xB.tolist(), art.tolist()
    R, V = rows.tolist(), vals.tolist()
    chosen = []
    for j, s, e, u in zip(cand.tolist(), starts.tolist(), ends.tolist(),
                          upper[cand].tolist()):
        lowers = False
        for k in range(s, e):
            i, a = R[k], V[k]
            if x[i] - a * u < 0.0:
                break
            lowers = lowers or (is_art[i] and a > 0.0)
        else:
            if lowers:
                for k in range(s, e):
                    x[R[k]] -= V[k] * u
                chosen.append(j)
    xB[:] = x
    return chosen


def dense_simplex(c, A, b, upper):
    """min c@x subject to A@x == b (componentwise b >= 0), 0 <= x <= upper.

    The start basis is the slack basis: a row with a slack column (see
    ``_slack_rows``) starts with it basic, and only the other rows get an
    artificial.  The artificials of slack rows stay in the tableau, banned,
    so the row duals are still read off the artificial columns.  Before
    phase 1, a greedy crash puts the cheapest boxed columns at their upper
    bounds (``_crash``).  A pivot updates only the rows where the entering
    column is nonzero.

    Entering variables are priced by the largest reduced cost, switching
    permanently to Bland's smallest-index rule after ``STALL_SWITCH``
    consecutive degenerate pivots, which keeps the anti-cycling guarantee.  Returns
    ``(x, row_duals, reduced_costs, pivot_count)``.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m, nvar = A.shape
    if np.any(b < 0.0):
        raise ContractError("dense_simplex needs nonnegative right-hand sides")
    ncols = nvar + m
    T = np.zeros((m, ncols))
    T[:, :nvar] = A
    T[np.arange(m), np.arange(nvar, ncols)] = 1.0
    cols, rows = np.nonzero(A.T)        # entries of A ordered by column
    vals = A[rows, cols]
    xB = b.copy()
    basis = np.arange(nvar, ncols)
    slack_rows, slack_cols = _slack_rows(c, upper, cols, rows, vals)
    basis[slack_rows] = slack_cols
    in_basis = np.zeros(ncols, dtype=bool)
    in_basis[basis] = True
    banned = np.zeros(ncols, dtype=bool)
    banned[nvar + slack_rows] = True
    art = basis >= nvar
    at_upper = np.zeros(ncols, dtype=bool)
    at_upper[_crash(c, upper, cols, rows, vals, xB, art)] = True
    u = np.concatenate([upper, np.full(m, np.inf)])
    pivots = 0

    def run(z):
        nonlocal xB, pivots
        degen = 0
        while True:
            if pivots > MAX_PIVOTS:
                raise SimplexError("pivot limit exceeded")
            zm = np.where(in_basis | banned, 0.0, z)
            cand_lo = (~at_upper) & (zm < -1e-9)
            cand_up = at_upper & (zm > 1e-9)
            cand = cand_lo | cand_up
            if not cand.any():
                return z
            if degen > STALL_SWITCH:
                j = int(np.flatnonzero(cand)[0])
            else:
                j = int(np.argmax(np.where(cand, np.abs(zm), -1.0)))
            from_upper = bool(at_upper[j])
            dec = -T[:, j] if from_upper else T[:, j].copy()
            ub = u[basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                lim0 = np.where(dec > 1e-11,
                                np.maximum(xB, 0.0) / np.where(dec > 1e-11, dec, 1.0),
                                np.inf)
                gap = np.where(np.isfinite(ub), np.maximum(ub - xB, 0.0), np.inf)
                limU = np.where((dec < -1e-11) & np.isfinite(ub),
                                gap / np.where(dec < -1e-11, -dec, 1.0),
                                np.inf)
            dmin = min(float(lim0.min()), float(limU.min()))
            delta = min(dmin, float(u[j]))
            if not np.isfinite(delta):
                raise SimplexError("objective unbounded below")
            degen = degen + 1 if delta <= 1e-13 else 0
            if np.isfinite(u[j]) and u[j] <= dmin:
                xB -= dec * u[j]
                at_upper[j] = not from_upper
                pivots += 1
                continue
            eligible = np.flatnonzero((lim0 <= delta + 1e-13) | (limU <= delta + 1e-13))
            rr = int(eligible[np.argmin(basis[eligible])])
            to_upper = not (lim0[rr] <= delta + 1e-13)
            leaving = int(basis[rr])
            xB -= dec * delta
            enter_val = (u[j] - delta) if from_upper else delta
            piv_row = T[rr] / T[rr, j]
            T[rr] = piv_row
            colv = T[:, j].copy()
            colv[rr] = 0.0
            nz = np.flatnonzero(colv)
            T[nz] -= colv[nz, None] * piv_row
            xB[rr] = enter_val
            if z[j] != 0.0:
                z = z - z[j] * piv_row
            z[j] = 0.0
            basis[rr] = j
            in_basis[leaving] = False
            in_basis[j] = True
            at_upper[j] = False
            at_upper[leaving] = to_upper
            pivots += 1

    c1 = np.zeros(ncols)
    c1[nvar:][art] = 1.0
    z1 = c1 - c1[basis] @ T
    run(z1)
    art_rows = np.flatnonzero(basis >= nvar)
    residual = float(xB[art_rows].sum()) if art_rows.size else 0.0
    if residual > 1e-7 * max(1.0, float(np.abs(b).sum())):
        raise InfeasibleInstanceError(f"no feasible point (phase-1 residual {residual:.3e})")
    banned[nvar:] = True
    u[nvar:] = 0.0
    xB[art_rows] = np.maximum(xB[art_rows], 0.0)
    c2 = np.zeros(ncols)
    c2[:nvar] = c
    z2 = c2 - c2[basis] @ T
    z2 = run(z2)
    x = np.where(at_upper[:nvar] & np.isfinite(upper), upper, 0.0)
    mask = basis < nvar
    x[basis[mask]] = xB[mask]
    y = -z2[nvar:]
    return x, y, z2[:nvar].copy(), pivots


# ---------------------------------------------------------------------------
# instance and solution containers


@dataclass(frozen=True)
class LpInstance:
    """Slot LP data: jobs, demanded volumes, horizon and slot width."""

    jobs: JobSet
    targets: np.ndarray
    horizon: float
    slot_width: float
    n_slots: int

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    def slot_midpoints(self) -> np.ndarray:
        return (np.arange(1, self.n_slots + 1) - 0.5) * self.slot_width


def build_discretized_lp(jobs: JobSet, targets=None, horizon: float | None = None,
                         slot_width: float | None = None) -> LpInstance:
    """Assemble the slot LP.

    Defaults: demands equal the job volumes, the horizon is n * p_max (large
    enough that an optimal fractional schedule never runs past it), and the
    slot width is horizon / ``SLOTS``.  The slot width must divide the
    horizon to within 1e-9 relative.
    """
    v = jobs.volumes()
    if targets is None:
        targets = v.copy()
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (len(jobs),):
        raise ContractError("targets must have one entry per job")
    if np.any(targets < 0.0):
        raise ContractError("targets must be nonnegative")
    if horizon is None:
        horizon = len(jobs) * jobs.max_processing_time() if len(jobs) else 1.0
    if horizon <= 0.0:
        raise ContractError("horizon must be positive")
    if slot_width is None:
        slot_width = horizon / SLOTS
    if slot_width <= 0.0:
        raise ContractError("slot width must be positive")
    ratio = horizon / slot_width
    n_slots = int(round(ratio))
    if n_slots < 1 or abs(ratio - n_slots) > 1e-9 * max(1.0, n_slots):
        raise SlotWidthError(f"slot width must divide the horizon ({ratio=})")
    return LpInstance(jobs, targets, float(horizon), float(slot_width), n_slots)


@dataclass(frozen=True)
class LpSolution:
    """Optimal slot volumes with basis duals and a duality certificate.

    ``volumes[j, i]`` is job j's volume in slot i.  ``alpha`` are the demand
    duals from the simplex basis; ``gamma``/``beta`` the per-slot capacity
    and box duals.  ``certificate_gap`` is the objective minus the Lagrangian
    bound ``dual_objective`` that ``solve_lp`` stopped on.
    """

    volumes: np.ndarray
    objective: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    dual_objective: float
    certificate_gap: float
    block_edges: np.ndarray = field(repr=False, default=None)
    rounds: int = 0
    pivots: int = 0


def _aggregated_solve(inst: LpInstance, edges: np.ndarray):
    """Dense-simplex solve of the LP restricted to block-constant solutions."""
    n = inst.n_jobs
    v = inst.jobs.volumes()
    r = inst.jobs.requirements()
    d = inst.slot_width
    nb = edges.size - 1
    lens = np.diff(edges).astype(float)
    avgmid = 0.5 * (edges[:-1] + edges[1:]) * d
    N = n * nb
    ncols = N + n + nb
    A = np.zeros((n + nb, ncols))
    b = np.zeros(n + nb)
    for j in range(n):
        A[j, j * nb:(j + 1) * nb] = 1.0
        A[j, N + j] = -1.0
        b[j] = inst.targets[j]
    for k in range(nb):
        A[n + k, k:N:nb] = 1.0
        A[n + k, N + n + k] = 1.0
        b[n + k] = d * lens[k]
    cost = np.concatenate([(avgmid[None, :] / v[:, None]).ravel(), np.zeros(n + nb)])
    upper = np.concatenate([
        (r[:, None] * (lens * d)[None, :]).ravel(),
        np.full(n + nb, np.inf),
    ])
    x, y, _, piv = dense_simplex(cost, A, b, upper)
    W = x[:N].reshape(n, nb)
    alpha = np.maximum(y[:n], 0.0)
    objective = float(cost[:N] @ x[:N])
    return W, alpha, objective, piv


def _slot_duals(inst: LpInstance, alpha: np.ndarray):
    """Per-slot capacity/box duals that are optimal for the price ``alpha``.

    Slot by slot, the Lagrangian inner problem is the priority packing of
    the gains ``alpha_j - midpoint / v_j``, and its optimal duals are the
    packing's prices.  Returns (gamma, beta, per-slot best gain * width).
    """
    v = inst.jobs.volumes()
    mid = inst.slot_midpoints()
    gains = alpha[:, None] - mid[None, :] / v[:, None]   # (n, I)
    rates = _kernel.rates_at(v, inst.jobs.requirements(), alpha, mid)
    gamma, beta, _ = _kernel.prices(gains, rates)
    return gamma, beta, (rates * gains).sum(axis=0) * inst.slot_width


def _cuts(inst: LpInstance, alpha: np.ndarray, edges=None, W=None) -> np.ndarray:
    """Inner slot edges cut by the breakpoints of ``alpha`` (rules in
    ``solve_lp``); the block splits need the block ``edges`` and volumes ``W``."""
    d = inst.slot_width
    t, a, b = _kernel.breakpoints(inst.jobs.volumes(), alpha)
    keep = (t > 0.0) & (t < inst.horizon)
    t, a, b = t[keep], a[keep], b[keep]
    slots = (t / d).astype(int)
    cuts = [slots, slots + 1]
    if edges is not None:
        k = np.searchsorted(edges[1:-1], slots, side="right")   # block of each breakpoint
        lo, hi = edges[k], edges[k + 1]
        inner = (t > (lo + 0.5) * d) & (t < (hi - 0.5) * d)
        zero = inner & (b < 0)
        fill = np.ceil(W[a[zero], k[zero]] / (inst.jobs.requirements()[a[zero]] * d))
        cuts += [(lo + hi)[inner] // 2,
                 lo[zero] + np.clip(fill, 1, (hi - lo)[zero] - 1).astype(int)]
    cuts = np.concatenate(cuts)
    return cuts[(cuts > 0) & (cuts < inst.n_slots)]


def solve_lp(inst: LpInstance) -> LpSolution:
    """Solve the slot LP to certified optimality.

    Each round solves the LP restricted to volumes that are constant on
    slot blocks, with one ``dense_simplex`` call.  Its demand duals
    ``alpha`` price every slot by the priority packing (``_slot_duals``), and
    ``alpha . targets`` minus the packing gains is a lower bound on the full
    LP.  Once that bound meets the block optimum to ``CERTIFICATE_TOL``
    relative, the block solution is optimal for the full LP; the solution
    reports that bound as ``dual_objective`` and the gap that stopped the
    loop as ``certificate_gap``.

    Why the breakpoints of the dual optimum lose nothing: under the optimal
    ``alpha`` the full LP's slot problems decouple into priority packings of
    the gains ``alpha_j - midpoint / v_j``.  Between two breakpoints (a line
    crossing or a line zero) no gain changes sign or order, so every slot
    packs the same rates, and there is an optimal solution that is constant
    on each block between them.  The slot LP's duals tend to the continuous
    optimum as the slots shrink, so the first blocks are cut around the
    breakpoints of ``solve_alpha`` on the jobs with a positive target (the
    others get alpha 0).  When ``solve_alpha`` raises (near-tied volumes, or
    no convergence) the same loop starts from the single block ``{0, I}``.

    Every cut comes from one ``_kernel.breakpoints`` call (``_cuts``).  The
    seed, and each round that does not certify, cut both edges of the slot
    that holds each breakpoint of their ``alpha``.  A round also splits every
    block that holds a breakpoint strictly between the midpoints of its first
    and last slot: at its midpoint, and, for each line zero there, where that
    job's block volume would end at its cap from the block start.  The last
    split settles a job that ends just before a wide empty block: the simplex
    may price it at that block's mean cost, and the other two rules then only
    halve the block once a round.  A round that adds no edge halves the
    widest block.

    Raises InfeasibleInstanceError when the demands exceed the horizon
    capacity and SimplexError when refinement or pivot limits are hit.
    """
    n = inst.n_jobs
    I = inst.n_slots
    if n == 0:
        return LpSolution(np.zeros((0, I)), 0.0, np.zeros(0), np.zeros((0, I)),
                          np.zeros(I), 0.0, 0.0, np.array([0, I]), 0, 0)
    r = inst.jobs.requirements()
    total_cap = inst.horizon
    if inst.targets.sum() > total_cap * (1.0 + 1e-12):
        raise InfeasibleInstanceError(
            f"total demand {inst.targets.sum():.6g} exceeds horizon capacity {total_cap:.6g}"
        )
    bad = inst.targets > r * total_cap * (1.0 + 1e-12)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise InfeasibleInstanceError(
            f"job {j} demands {inst.targets[j]:.6g} but can absorb at most "
            f"{r[j] * total_cap:.6g} before the horizon"
        )

    edges = np.array([0, I])
    positive = np.flatnonzero(inst.targets > 0.0)
    seed = np.zeros(n)
    try:
        seed[positive] = solve_alpha(JobSet(inst.jobs[j] for j in positive),
                                     inst.targets[positive])
    except (DegenerateVolumesError, ConvergenceError):
        pass    # no continuous optimum to seed from: start from one block
    else:
        edges = np.union1d(edges, _cuts(inst, seed))
    total_pivots = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        W, alpha, objective, piv = _aggregated_solve(inst, edges)
        total_pivots += piv
        gamma, beta, slot_gain = _slot_duals(inst, alpha)
        dual_obj = float(alpha @ inst.targets - slot_gain.sum())
        gap = objective - dual_obj
        if gap <= CERTIFICATE_TOL * max(1.0, abs(objective)):
            volumes = np.repeat(W / np.diff(edges), np.diff(edges), axis=1)
            return LpSolution(volumes, objective, alpha, beta, gamma, dual_obj, gap,
                              edges, rounds, total_pivots)
        new_edges = np.union1d(edges, _cuts(inst, alpha, edges, W))
        if new_edges.size == edges.size:
            widths = np.diff(edges)
            k = int(np.argmax(widths))
            if widths[k] <= 1:
                raise SimplexError(f"certificate gap {gap:.3e} at full resolution")
            new_edges = np.insert(edges, k + 1, edges[k] + widths[k] // 2)
        edges = new_edges
    raise SimplexError(f"block refinement did not converge (gap {gap:.3e})")


def lp_schedule(inst: LpInstance, sol: LpSolution) -> Schedule:
    """Realize slot volumes as a schedule with uniform rates inside slots."""
    if sol.volumes.shape != (inst.n_jobs, inst.n_slots):
        raise ContractError("solution shape does not match the instance")
    grid = np.arange(inst.n_slots + 1) * inst.slot_width
    rates = sol.volumes / inst.slot_width
    return Schedule(StepFunction(grid, rates[j]) for j in range(inst.n_jobs))


def dump_lp(inst: LpInstance) -> str:
    """Fixed-order plain-text dump: objective row, then constraint rows."""
    v = inst.jobs.volumes()
    r = inst.jobs.requirements()
    mids = inst.slot_midpoints()
    lines = []
    coeffs = " ".join(_fmt(mids[i] / v[j]) for j in range(inst.n_jobs) for i in range(inst.n_slots))
    lines.append(f"min {coeffs}".rstrip())
    for j in range(inst.n_jobs):
        lines.append(f"demand {j} >= {_fmt(inst.targets[j])}")
    for i in range(inst.n_slots):
        lines.append(f"capacity {i} <= {_fmt(inst.slot_width)}")
    for j in range(inst.n_jobs):
        for i in range(inst.n_slots):
            lines.append(f"box {j} {i} <= {_fmt(r[j] * inst.slot_width)}")
    return "\n".join(lines) + "\n"
