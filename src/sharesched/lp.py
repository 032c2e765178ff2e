"""Slot-discretized linear program for fractional completion time.

Time is cut into equal slots; the variables are per-job volumes per slot,
priced at the slot midpoint divided by the job volume.  Constraints: each job
accumulates its volume, no slot exceeds its capacity, and no job exceeds its
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

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .core import (AlgorithmError, ContractError, InstanceError, JobSet, Schedule,
                   StepFunction, _distinct, _fmt)
from .linesched import solve_alpha


class SimplexError(AlgorithmError):
    """The solver hit its pivot or refinement limit."""


class InfeasibleInstanceError(AlgorithmError):
    """The demanded volumes do not fit the horizon."""


class SlotWidthError(InstanceError):
    """The slot width does not divide the horizon, which depends on the instance."""


# ---------------------------------------------------------------------------
# dense bounded-variable two-phase simplex

#: consecutive degenerate pivots after which pricing switches to Bland's rule
STALL_SWITCH = 60
#: most pivots one ``dense_simplex`` call makes; it raises SimplexError past them
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
    bounds (``_crash``).  The reduced costs ride as the tableau's last row,
    so a pivot eliminates them with the other rows where the entering
    column is nonzero, and only those rows are updated.  Each basic row
    carries the upper bound of its basic column, set when the column enters.

    Each column carries a sign: +1 at its lower bound, -1 at its upper
    bound, 0 when basic or banned.  A column is a candidate when its signed
    reduced cost is below -1e-9.  Entering variables are priced by the
    largest reduced cost (the least signed one, first index on ties),
    switching permanently to Bland's smallest-index rule after
    ``STALL_SWITCH`` consecutive degenerate pivots, which keeps the
    anti-cycling guarantee.  The ratio test is one pass over the rows, into
    buffers kept across pivots: each row's room to its lower bound (if the
    entering step lowers it) or to its upper bound (if it raises it), over
    the step's magnitude; the leaving row is the eligible row with the
    smallest basic column.  At most ``MAX_PIVOTS`` pivots are made.  Returns
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
    # rows 0..m-1 are the tableau, row m the reduced costs
    T = np.zeros((m + 1, ncols))
    T[:m, :nvar] = A
    T[np.arange(m), np.arange(nvar, ncols)] = 1.0
    z = T[m]
    cols, rows = np.nonzero(A.T)        # entries of A ordered by column
    vals = A[rows, cols]
    xB = b.copy()
    basis = np.arange(nvar, ncols)
    slack_rows, slack_cols = _slack_rows(c, upper, cols, rows, vals)
    basis[slack_rows] = slack_cols
    banned = np.zeros(ncols, dtype=bool)
    banned[nvar + slack_rows] = True
    art = basis >= nvar
    # +1 at the lower bound, -1 at the upper bound, 0 basic or banned
    sgn = np.ones(ncols)
    sgn[basis] = 0.0
    sgn[banned] = 0.0
    sgn[_crash(c, upper, cols, rows, vals, xB, art)] = -1.0
    u = np.concatenate([upper, np.full(m, np.inf)])
    room = np.empty(m)
    lim = np.empty(m)
    pivots = 0

    def run():
        nonlocal xB, pivots
        ub = u[basis]                   # upper bound of each basic row
        degen = 0
        while True:
            w = sgn * z
            j = int(w.argmin())
            if w[j] >= -1e-9:
                return
            if pivots >= MAX_PIVOTS:
                raise SimplexError(f"pivot limit exceeded after {pivots} pivots")
            if degen > STALL_SWITCH:
                j = int((w < -1e-9).argmax())
            from_upper = sgn[j] < 0.0
            dec = -T[:m, j] if from_upper else T[:m, j]
            abs_dec = np.abs(dec)
            np.subtract(ub, xB, out=room)
            np.copyto(room, xB, where=dec > 0.0)
            np.maximum(room, 0.0, out=room)
            lim.fill(np.inf)
            np.divide(room, abs_dec, out=lim, where=abs_dec > 1e-11)
            dmin = float(np.minimum.reduce(lim))
            uj = float(u[j])
            delta = min(dmin, uj)
            if not math.isfinite(delta):
                raise SimplexError("objective unbounded below")
            degen = degen + 1 if delta <= 1e-13 else 0
            if uj <= dmin:
                xB -= dec * uj
                sgn[j] = -sgn[j]
                pivots += 1
                continue
            ties = (lim <= delta + 1e-13).nonzero()[0]
            rr = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
            to_upper = dec[rr] < 0.0
            leaving = int(basis[rr])
            xB -= dec * delta
            piv_row = T[rr]
            piv_row /= T[rr, j]
            colv = T[:, j].copy()
            colv[rr] = 0.0
            nz = colv.nonzero()[0]
            # take gathers the rows faster than fancy indexing
            sub = T.take(nz, axis=0)
            sub -= colv.take(nz)[:, None] * piv_row
            T[nz] = sub
            z[j] = 0.0
            xB[rr] = (uj - delta) if from_upper else delta
            basis[rr] = j
            ub[rr] = uj
            sgn[j] = 0.0
            if not banned[leaving]:
                sgn[leaving] = -1.0 if to_upper else 1.0
            pivots += 1

    c1 = np.zeros(ncols)
    c1[nvar:][art] = 1.0
    z[:] = c1 - c1[basis] @ T[:m]
    run()
    art_rows = np.flatnonzero(basis >= nvar)
    residual = float(xB[art_rows].sum())
    if residual > 1e-7 * max(1.0, float(np.abs(b).sum())):
        raise InfeasibleInstanceError(f"no feasible point (phase-1 residual {residual:.3e})")
    banned[nvar:] = True
    sgn[nvar:] = 0.0
    u[nvar:] = 0.0
    xB[art_rows] = np.maximum(xB[art_rows], 0.0)
    c2 = np.zeros(ncols)
    c2[:nvar] = c
    z[:] = c2 - c2[basis] @ T[:m]
    run()
    x = np.where(sgn[:nvar] < 0.0, upper, 0.0)
    mask = basis < nvar
    x[basis[mask]] = xB[mask]
    y = -z[nvar:]
    return x, y, z[:nvar].copy(), pivots


# ---------------------------------------------------------------------------
# instance and solution containers


@dataclass(frozen=True)
class LpInstance:
    """Slot LP data: jobs, horizon and slot width; each job demands its volume."""

    jobs: JobSet
    horizon: float
    slot_width: float
    n_slots: int

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    def slot_midpoints(self) -> np.ndarray:
        return (np.arange(1, self.n_slots + 1) - 0.5) * self.slot_width


def build_discretized_lp(jobs: JobSet, horizon: float | None = None,
                         slot_width: float | None = None) -> LpInstance:
    """Assemble the slot LP, in which each job demands its volume.

    Defaults: the horizon is n * p_max (large enough that an optimal
    fractional schedule never runs past it), and the slot width is
    horizon / ``SLOTS``.  The slot width must divide the horizon to within
    1e-9 relative.  A horizon that is not positive and finite (an
    ``n * p_max`` past the float range) or too small for ``SLOTS`` slots
    raises InstanceError, and a slot width that does not divide it
    SlotWidthError, an InstanceError too.
    """
    if horizon is None:
        horizon = len(jobs) * jobs.max_processing_time() if len(jobs) else 1.0
    if not 0.0 < horizon < np.inf:     # NaN fails too
        raise InstanceError(f"horizon must be positive and finite, got {float(horizon)!r}")
    if slot_width is None:
        slot_width = horizon / SLOTS
        if slot_width == 0.0:
            raise InstanceError(f"horizon {float(horizon)!r} is too small to cut into {SLOTS} slots")
    elif not 0.0 < slot_width < np.inf:
        raise ContractError(f"slot width must be positive and finite, got {float(slot_width)!r}")
    ratio = horizon / slot_width
    n_slots = int(round(ratio))
    if n_slots < 1 or abs(ratio - n_slots) > 1e-9 * max(1.0, n_slots):
        raise SlotWidthError(f"slot width must divide the horizon ({ratio=})")
    return LpInstance(jobs, float(horizon), float(slot_width), n_slots)


@dataclass(frozen=True)
class LpSolution:
    """Optimal slot volumes of ``instance``, basis duals and a duality certificate.

    ``volumes[j, i]`` is job j's volume in slot i.  ``alpha`` are the demand
    duals from the simplex basis; ``gamma``/``beta`` the per-slot capacity
    and box duals.  ``certificate_gap`` is the objective minus the Lagrangian
    bound ``dual_objective`` that ``solve_lp`` stopped on.
    """

    instance: LpInstance
    volumes: np.ndarray
    objective: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    dual_objective: float
    certificate_gap: float
    block_edges: np.ndarray = field(repr=False)
    rounds: int
    pivots: int


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
        b[j] = v[j]
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
    """Inner slot edges cut by the packing events of ``alpha`` (rules in
    ``solve_lp``); the block splits need the block ``edges`` and volumes ``W``."""
    d = inst.slot_width
    r = inst.jobs.requirements()
    times, order = _kernel._rows(inst.jobs.volumes(), r, alpha)[:2]
    a, i = np.nonzero((times > 0.0) & (times < inst.horizon))
    t, b = times[a, i], order[a, i]
    slots = (t / d).astype(int)
    cuts = [slots, slots + 1]
    if edges is not None:
        k = np.searchsorted(edges[1:-1], slots, side="right")   # block of each event
        lo, hi = edges[k], edges[k + 1]
        inner = (t > (lo + 0.5) * d) & (t < (hi - 0.5) * d)
        zero = inner & (b == a)                                 # row a's own line
        fill = np.ceil(W[a[zero], k[zero]] / (r[a[zero]] * d))
        cuts += [(lo + hi)[inner] // 2,
                 lo[zero] + np.clip(fill, 1, (hi - lo)[zero] - 1).astype(int)]
    cuts = np.concatenate(cuts)
    return cuts[(cuts > 0) & (cuts < inst.n_slots)]


def solve_lp(inst: LpInstance) -> LpSolution:
    """Solve the slot LP to certified optimality.

    Each round solves the LP restricted to volumes that are constant on
    slot blocks, with one ``dense_simplex`` call.  Its demand duals
    ``alpha`` price every slot by the priority packing (``_slot_duals``), and
    ``alpha . v`` minus the packing gains is a lower bound on the full
    LP.  Once that bound meets the block optimum to ``CERTIFICATE_TOL``
    relative, the block solution is optimal for the full LP; the solution
    reports that bound as ``dual_objective`` and the gap that stopped the
    loop as ``certificate_gap``.

    Why the breakpoints of the dual optimum lose nothing: under the optimal
    ``alpha`` the full LP's slot problems decouple into priority packings of
    the gains ``alpha_j - midpoint / v_j``.  Between two breakpoints (a line
    zero, or a crossing above zero) no positive gain changes sign or order,
    so every slot packs the same rates, and there is an optimal solution
    that is constant on each block between them.  The slot LP's duals tend
    to the continuous optimum as the slots shrink, so the first blocks are
    cut around the breakpoints of ``solve_alpha``.  When it raises an
    AlgorithmError (near-tied volumes, a start past the float range, or no
    convergence) the same loop starts from the single block ``{0, I}``.

    Every cut comes from the finite events of the ``_kernel._rows`` packing
    rows (``_cuts``).  The seed, and each round that does not certify, cut
    both edges of the slot that holds each breakpoint of their ``alpha``.  A
    round also splits every block that holds a breakpoint strictly between
    the midpoints of its first and last slot: at its midpoint, and, for each
    line zero there, where that job's block volume would end at its cap from
    the block start.  The last split settles a job that ends just before a
    wide empty block: the simplex may price it at that block's mean cost,
    and the other two rules then only halve the block once a round.  A round
    that adds no edge halves the widest block.

    Raises InfeasibleInstanceError when the demands exceed the horizon
    capacity and SimplexError when refinement or pivot limits are hit.
    """
    n = inst.n_jobs
    I = inst.n_slots
    if n == 0:
        return LpSolution(inst, np.zeros((0, I)), 0.0, np.zeros(0), np.zeros((0, I)),
                          np.zeros(I), 0.0, 0.0, np.array([0, I]), 0, 0)
    v = inst.jobs.volumes()
    r = inst.jobs.requirements()
    total_cap = inst.horizon
    if v.sum() > total_cap * (1.0 + 1e-12):
        raise InfeasibleInstanceError(
            f"total demand {v.sum():.6g} exceeds horizon capacity {total_cap:.6g}"
        )
    bad = v > r * total_cap * (1.0 + 1e-12)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise InfeasibleInstanceError(
            f"job {j} demands {v[j]:.6g} but can absorb at most "
            f"{r[j] * total_cap:.6g} before the horizon"
        )

    edges = np.array([0, I])
    try:
        seed = solve_alpha(inst.jobs)
    except AlgorithmError:
        pass    # no continuous optimum to seed from: start from one block
    else:
        edges = _distinct(np.concatenate((edges, _cuts(inst, seed))))
    total_pivots = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        W, alpha, objective, piv = _aggregated_solve(inst, edges)
        total_pivots += piv
        gamma, beta, slot_gain = _slot_duals(inst, alpha)
        dual_obj = float(alpha @ v - slot_gain.sum())
        gap = objective - dual_obj
        if gap <= CERTIFICATE_TOL * max(1.0, abs(objective)):
            volumes = np.repeat(W / np.diff(edges), np.diff(edges), axis=1)
            return LpSolution(inst, volumes, objective, alpha, beta, gamma, dual_obj, gap,
                              edges, rounds, total_pivots)
        new_edges = _distinct(np.concatenate((edges, _cuts(inst, alpha, edges, W))))
        if new_edges.size == edges.size:
            widths = np.diff(edges)
            k = int(np.argmax(widths))
            if widths[k] <= 1:
                raise SimplexError(f"certificate gap {gap:.3e} at full resolution")
            new_edges = np.insert(edges, k + 1, edges[k] + widths[k] // 2)
        edges = new_edges
    raise SimplexError(f"block refinement did not converge (gap {gap:.3e})")


def lp_schedule(sol: LpSolution) -> Schedule:
    """Realize slot volumes as a schedule with uniform rates inside slots."""
    inst = sol.instance
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
        lines.append(f"demand {j} >= {_fmt(v[j])}")
    for i in range(inst.n_slots):
        lines.append(f"capacity {i} <= {_fmt(inst.slot_width)}")
    for j in range(inst.n_jobs):
        for i in range(inst.n_slots):
            lines.append(f"box {j} {i} <= {_fmt(r[j] * inst.slot_width)}")
    return "\n".join(lines) + "\n"
