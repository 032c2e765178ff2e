import tracemalloc

import numpy as np
import pytest

from sharesched import (
    AlgorithmError,
    ContractError,
    InstanceError,
    InfeasibleInstanceError,
    JobSet,
    LsApproxParams,
    SimplexError,
    build_discretized_lp,
    dense_simplex,
    dump_lp,
    fractional_completion_time,
    lp_schedule,
    solve_lp,
    subdivide,
    validate_schedule,
)
from sharesched import lp as lpmod
from sharesched.cli import generate_random
from sharesched.linesched import ConvergenceError
from sharesched.lp import _aggregated_solve

from conftest import random_instance


def argsort_refinement(inst, edges, W, alpha):
    """Reference refinement step, the per-block rule that the breakpoint cuts
    replaced: add both edges of the slot that holds each breakpoint (a line
    zero, or a crossing before the later of the two zeros), and split every
    block whose two end slots pack in another order or sign of the gains
    clipped at 0, at its midpoint and at the cap-fill edge of each job whose
    gain changes sign.  A step that adds no edge halves the widest block."""
    v, r, d = inst.jobs.volumes(), inst.jobs.requirements(), inst.slot_width
    zero = alpha * v
    idx = np.arange(v.size)
    p, q = np.nonzero(idx[:, None] < idx)
    ds = 1.0 / v[p] - 1.0 / v[q]
    t = (alpha[p] - alpha[q]) / np.where(ds != 0.0, ds, np.inf)   # parallel: t = 0
    t = np.concatenate([zero[alpha > 0.0], t[(t > 0.0) & (t < np.maximum(zero[p], zero[q]))]])
    slots = (t[t < inst.horizon] / d).astype(int)
    new_edges = set(edges.tolist())
    new_edges.update(e for e in np.concatenate([slots, slots + 1]).tolist()
                     if 0 < e < inst.n_slots)
    gains = np.maximum(alpha[:, None] - inst.slot_midpoints()[None, :] / v[:, None], 0.0)
    for k in range(edges.size - 1):
        a, b = int(edges[k]), int(edges[k + 1])
        if b - a <= 1:
            continue
        ga, gb = gains[:, a], gains[:, b - 1]
        if not (np.array_equal(np.argsort(-ga, kind="stable"), np.argsort(-gb, kind="stable"))
                and np.array_equal(ga > 0, gb > 0)):
            new_edges.add((a + b) // 2)
            ends = (ga > 0) != (gb > 0)
            fill = np.ceil(W[ends, k] / (r[ends] * d))
            new_edges.update((a + np.clip(fill, 1, b - a - 1)).astype(int).tolist())
    if len(new_edges) == edges.size:
        widths = np.diff(edges)
        k = int(np.argmax(widths))
        new_edges.add(int(edges[k] + widths[k] // 2))
    return sorted(new_edges)


def reference_simplex(c, A, b, upper, stall_switch):
    """Reference ``dense_simplex``: the same start basis, crash and pivot
    rules, priced and ratio-tested with full-length masks.

    Candidates are the nonbasic, unbanned columns whose reduced cost points
    away from their bound; the entering one has the largest |reduced cost|
    (Bland's first candidate after ``stall_switch`` degenerate pivots).  The
    ratio test keeps separate limits to the lower and the upper bounds and
    leaves on the eligible row with the smallest basic column.
    """
    c, A, b, upper = (np.asarray(a, dtype=float) for a in (c, A, b, upper))
    m, nvar = A.shape
    ncols = nvar + m
    T = np.zeros((m, ncols))
    T[:, :nvar] = A
    T[np.arange(m), np.arange(nvar, ncols)] = 1.0
    cols, rows = np.nonzero(A.T)
    vals = A[rows, cols]
    xB = b.copy()
    basis = np.arange(nvar, ncols)
    slack_rows, slack_cols = lpmod._slack_rows(c, upper, cols, rows, vals)
    basis[slack_rows] = slack_cols
    in_basis = np.zeros(ncols, dtype=bool)
    in_basis[basis] = True
    banned = np.zeros(ncols, dtype=bool)
    banned[nvar + slack_rows] = True
    art = basis >= nvar
    at_upper = np.zeros(ncols, dtype=bool)
    at_upper[lpmod._crash(c, upper, cols, rows, vals, xB, art)] = True
    u = np.concatenate([upper, np.full(m, np.inf)])
    pivots = 0

    def run(z, xB):
        nonlocal pivots
        degen = 0
        while True:
            zm = np.where(in_basis | banned, 0.0, z)
            cand = ((~at_upper) & (zm < -1e-9)) | (at_upper & (zm > 1e-9))
            if not cand.any():
                return z, xB
            if degen > stall_switch:
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
                                gap / np.where(dec < -1e-11, -dec, 1.0), np.inf)
            dmin = min(float(lim0.min()), float(limU.min()))
            delta = min(dmin, float(u[j]))
            assert np.isfinite(delta)
            degen = degen + 1 if delta <= 1e-13 else 0
            if np.isfinite(u[j]) and u[j] <= dmin:
                xB = xB - dec * u[j]
                at_upper[j] = not from_upper
                pivots += 1
                continue
            eligible = np.flatnonzero((lim0 <= delta + 1e-13) | (limU <= delta + 1e-13))
            rr = int(eligible[np.argmin(basis[eligible])])
            to_upper = not (lim0[rr] <= delta + 1e-13)
            leaving = int(basis[rr])
            xB = xB - dec * delta
            piv_row = T[rr] / T[rr, j]
            T[rr] = piv_row
            colv = T[:, j].copy()
            colv[rr] = 0.0
            nz = np.flatnonzero(colv)
            T[nz] -= colv[nz, None] * piv_row
            xB[rr] = (u[j] - delta) if from_upper else delta
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
    _, xB = run(c1 - c1[basis] @ T, xB)
    art_rows = np.flatnonzero(basis >= nvar)
    banned[nvar:] = True
    u[nvar:] = 0.0
    xB[art_rows] = np.maximum(xB[art_rows], 0.0)
    c2 = np.zeros(ncols)
    c2[:nvar] = c
    z2, xB = run(c2 - c2[basis] @ T, xB)
    x = np.where(at_upper[:nvar] & np.isfinite(upper), upper, 0.0)
    mask = basis < nvar
    x[basis[mask]] = xB[mask]
    return x, -z2[nvar:], z2[:nvar].copy(), pivots


def random_boxed_lp(seed):
    """A feasible random LP with boxed columns; odd seeds give some rows a
    unit slack column (zero cost, no upper bound), which then starts basic."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
    A = rng.uniform(0.0, 1.0, (m, n))
    x_feas = rng.uniform(0.0, 1.0, n)
    c = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(0.5, 2.0, n)
    if np.any(x_feas > upper):
        upper = np.maximum(upper, x_feas)
    if seed % 2:
        rows = np.flatnonzero(rng.uniform(size=m) < 0.6)
        S = np.zeros((m, rows.size))
        S[rows, np.arange(rows.size)] = 1.0
        A = np.hstack([A, S])
        x_feas = np.concatenate([x_feas, rng.uniform(0.0, 1.0, rows.size)])
        c = np.concatenate([c, np.zeros(rows.size)])
        upper = np.concatenate([upper, np.full(rows.size, np.inf)])
    return c, A, A @ x_feas, upper


def slack_basis_lp():
    """Every row has a unit slack and no cost is negative: the start basis
    is already optimal."""
    rng = np.random.default_rng(7)
    m, n = 6, 9
    A = np.hstack([rng.uniform(0.0, 1.0, (m, n)), np.eye(m)])
    b = rng.uniform(0.5, 2.0, m)
    c = np.concatenate([rng.uniform(0.0, 1.0, n), np.zeros(m)])
    upper = np.concatenate([rng.uniform(0.5, 2.0, n), np.full(m, np.inf)])
    return c, A, b, upper


def tiny_lp():
    """min -x - 2y st x + y <= 4, x <= 3, y <= 2  ==> x=2, y=2, in two pivots."""
    return (np.array([-1.0, -2.0, 0.0]), np.array([[1.0, 1.0, 1.0]]),
            np.array([4.0]), np.array([3.0, 2.0, np.inf]))


class TestBuild:
    def test_single_job_structure(self):
        inst = build_discretized_lp(JobSet.of([(1, 1)]), horizon=1.0, slot_width=0.25)
        assert inst.n_slots == 4
        assert inst.slot_midpoints().tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_default_horizon_covers_the_guarantee(self, three_jobs):
        inst = build_discretized_lp(three_jobs)
        assert inst.horizon == pytest.approx(27.0)  # 3 * longest processing time
        assert inst.slot_width == pytest.approx(27.0 / 1024.0)

    def test_empty_instance(self):
        inst = build_discretized_lp(JobSet())
        sol = solve_lp(inst)
        assert sol.objective == 0.0

    def test_slot_width_must_divide(self):
        with pytest.raises(ContractError):
            build_discretized_lp(JobSet.of([(1, 1)]), horizon=1.0, slot_width=0.3)

    @pytest.mark.parametrize("kwargs, quantity", [
        ({"horizon": np.inf}, "horizon"),
        ({"horizon": np.nan}, "horizon"),
        ({"horizon": 1.0, "slot_width": np.nan}, "slot width"),
        ({"horizon": 1.0, "slot_width": np.inf}, "slot width"),
    ])
    def test_refuses_non_finite_horizon_and_slot_width(self, kwargs, quantity):
        with pytest.raises(ContractError, match=f"{quantity} must be positive and finite"):
            build_discretized_lp(JobSet.of([(1, 1)]), **kwargs)

    def test_refuses_an_overflowing_default_horizon(self):
        # n * p_max = 2e308 rounds to inf
        with pytest.raises(ContractError, match="horizon must be positive and finite, got inf"):
            build_discretized_lp(JobSet.of([(1e308, 1), (1, 1)]))

    def test_horizon_refusals_are_instance_errors(self):
        # a property of the instance, not of an option: compare gives it error rows
        with pytest.raises(InstanceError, match="horizon must be positive and finite"):
            build_discretized_lp(JobSet.of([(1e308, 1), (1, 1)]))
        # the default slot width n * p_max / SLOTS underflows to 0
        with pytest.raises(InstanceError, match="horizon 5e-324 is too small to cut into 1024"):
            build_discretized_lp(JobSet.of([(5e-324, 1)]))
        with pytest.raises(InstanceError, match="slot width must divide the horizon"):
            build_discretized_lp(JobSet.of([(1, 1)]), horizon=1.0, slot_width=0.3)
        # a slot width given out of range is bad for every instance
        with pytest.raises(ContractError, match="slot width must be positive") as err:
            build_discretized_lp(JobSet.of([(1, 1)]), slot_width=0.0)
        assert not isinstance(err.value, InstanceError)


def assert_same_as_reference(args, stall_switch):
    got = dense_simplex(*args)
    want = reference_simplex(*args, stall_switch)
    for g, w in zip(got[:3], want[:3]):
        assert g.tobytes() == w.tobytes()
    assert got[3] == want[3]


class TestDenseSimplexEngine:
    def test_tiny_known_lp(self):
        c, A, b, upper = tiny_lp()
        x, y, _, _ = dense_simplex(c, A, b, upper)
        assert c @ x == pytest.approx(-6.0)
        assert x[0] == pytest.approx(2.0) and x[1] == pytest.approx(2.0)

    def test_against_scipy_on_random_boxed_lps(self, monkeypatch):
        # half the cases give some rows a unit slack column (zero cost, no
        # upper bound), which then starts basic; every case runs under both
        # pricing rules: a stall switch of -1 selects Bland's rule from the
        # first pivot
        linprog = pytest.importorskip("scipy.optimize").linprog
        switches = (lpmod.STALL_SWITCH, -1)
        for seed in range(50):
            c, A, b, upper = random_boxed_lp(seed)
            ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0.0, u) for u in upper],
                          method="highs")
            assert ref.success
            boxed = np.isfinite(upper)
            for switch in switches:
                monkeypatch.setattr(lpmod, "STALL_SWITCH", switch)
                x, y, _, _ = dense_simplex(c, A, b, upper)
                assert np.all(x >= -1e-9) and np.all(x <= upper + 1e-9)
                assert np.allclose(A @ x, b, atol=1e-8)
                assert c @ x == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)
                # bounded strong duality, and dual feasibility on the
                # columns without an upper bound
                d = c - A.T @ y
                dual = y @ b + np.minimum(0.0, d[boxed]) @ upper[boxed]
                assert c @ x == pytest.approx(dual, rel=1e-7, abs=1e-9)
                assert np.all(d[~boxed] >= -1e-9)

    def test_slack_basis_is_optimal_without_pivots(self):
        c, A, b, upper = slack_basis_lp()
        n = A.shape[1] - A.shape[0]
        x, y, _, pivots = dense_simplex(c, A, b, upper)
        assert pivots == 0
        assert np.all(x[:n] == 0.0)
        assert np.array_equal(x[n:], b)
        assert np.all(y == 0.0)

    def test_pivot_limit_counts_pivots_made(self, monkeypatch):
        # an optimal start never raises; otherwise at most MAX_PIVOTS pivots
        # are made, and the tiny LP needs exactly two
        monkeypatch.setattr(lpmod, "MAX_PIVOTS", 0)
        assert dense_simplex(*slack_basis_lp())[3] == 0
        with pytest.raises(SimplexError, match="after 0 pivots"):
            dense_simplex(*tiny_lp())
        monkeypatch.setattr(lpmod, "MAX_PIVOTS", 1)
        with pytest.raises(SimplexError, match="after 1 pivots"):
            dense_simplex(*tiny_lp())
        monkeypatch.setattr(lpmod, "MAX_PIVOTS", 2)
        assert dense_simplex(*tiny_lp())[3] == 2

    def test_unbounded_objective_raises(self):
        # x0 - x1 = 0 with both unbounded: x0 grows without limit
        with pytest.raises(SimplexError, match="objective unbounded below"):
            dense_simplex([-1.0, 0.0], [[1.0, -1.0]], [0.0], [np.inf, np.inf])

    def test_infeasible_box_names_the_residual(self):
        # x = 2 with x <= 1: phase 1 ends one unit short
        with pytest.raises(InfeasibleInstanceError, match=r"phase-1 residual 1\.000e\+00"):
            dense_simplex([1.0], [[1.0]], [2.0], [1.0])

    def test_matches_the_reference_on_random_boxed_lps(self, monkeypatch):
        # byte-equal x, duals, reduced costs and pivot count under both
        # pricing rules
        for switch in (lpmod.STALL_SWITCH, -1):
            monkeypatch.setattr(lpmod, "STALL_SWITCH", switch)
            for seed in range(50):
                assert_same_as_reference(random_boxed_lp(seed), switch)

    def test_matches_the_reference_on_refinement_tableaus(self, monkeypatch):
        # every block LP that the refinement solves for TestRefinementWork's
        # 20 instances
        captured = []

        def record(*args):
            captured.append(tuple(np.array(a) for a in args))
            return dense_simplex(*args)

        monkeypatch.setattr(lpmod, "dense_simplex", record)
        rng = np.random.default_rng(5)
        for _ in range(20):
            solve_lp(TestRefinementWork.lhs_lp(rng))
        monkeypatch.undo()
        assert len(captured) >= 20
        for args in captured:
            assert_same_as_reference(args, lpmod.STALL_SWITCH)

    def test_reduced_costs_match_the_row_duals(self, monkeypatch):
        # the cost row is eliminated with the tableau, so the reduced costs
        # it returns must equal c - A^T y, recomputed here from the duals
        cases = [random_boxed_lp(seed) for seed in range(50)]

        def record(*args):
            cases.append(tuple(np.array(a) for a in args))
            return dense_simplex(*args)

        monkeypatch.setattr(lpmod, "dense_simplex", record)
        rng = np.random.default_rng(5)
        for _ in range(20):
            solve_lp(TestRefinementWork.lhs_lp(rng))
        monkeypatch.undo()
        assert len(cases) >= 70
        for c, A, b, upper in cases:
            _, y, d, _ = dense_simplex(c, A, b, upper)
            err = np.abs(d - (c - A.T @ y)) / np.maximum(1.0, np.abs(c))
            assert err.max() <= 1e-12

    def test_pivot_temporaries_stay_below_half_a_tableau(self, monkeypatch):
        # the slot LP of 4 jobs on 256 one-slot blocks; a pivot touches only
        # the rows where the entering column is nonzero
        jobs = JobSet.of([(1.0, 0.9), (2.5, 0.4), (4.0, 0.7), (7.0, 0.3)])
        horizon = len(jobs) * jobs.max_processing_time()
        inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / 256)
        captured = []

        def record(*args):
            captured.append(args)
            return dense_simplex(*args)

        monkeypatch.setattr(lpmod, "dense_simplex", record)
        _aggregated_solve(inst, np.arange(inst.n_slots + 1))
        monkeypatch.undo()
        c, A, b, upper = captured[0]
        m, nvar = A.shape
        tableau_bytes = m * (nvar + m) * 8
        tracemalloc.start()
        try:
            dense_simplex(c, A, b, upper)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * tableau_bytes


class TestSolve:
    def test_single_job_tight_horizon(self):
        inst = build_discretized_lp(JobSet.of([(1, 1)]), horizon=1.0, slot_width=0.25)
        sol = solve_lp(inst)
        assert sol.objective == pytest.approx(0.5)
        assert np.allclose(sol.volumes, 0.25)

    def test_single_job_loose_horizon_packs_early(self):
        inst = build_discretized_lp(JobSet.of([(1, 1)]), horizon=2.0, slot_width=0.5)
        sol = solve_lp(inst)
        assert sol.objective == pytest.approx(0.5)
        assert np.allclose(sol.volumes[0, :2], 0.5)
        assert np.allclose(sol.volumes[0, 2:], 0.0)

    def test_infeasible_demand_raises(self):
        with pytest.raises(InfeasibleInstanceError):
            solve_lp(build_discretized_lp(JobSet.of([(2, 1)]), horizon=1.0,
                                          slot_width=0.25))
        with pytest.raises(InfeasibleInstanceError):
            solve_lp(build_discretized_lp(JobSet.of([(1, 0.25)]), horizon=2.0,
                                          slot_width=0.5))

    def test_refined_matches_unaggregated_dense_solve(self):
        for seed in range(8):
            jobs = random_instance(seed, 3)
            horizon = len(jobs) * jobs.max_processing_time()
            inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / 48)
            sol = solve_lp(inst)
            edges = np.arange(inst.n_slots + 1)  # one block per slot
            _, _, objective, _ = _aggregated_solve(inst, edges)
            assert sol.objective == pytest.approx(objective, rel=1e-9)

    def test_strong_duality_and_feasibility(self):
        for seed in range(20):
            jobs = random_instance(seed, 4)
            horizon = len(jobs) * jobs.max_processing_time()
            slots = 48  # keeps every instance at <= 200 variables
            inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / slots)
            sol = solve_lp(inst)
            assert sol.objective == pytest.approx(sol.dual_objective, rel=1e-7, abs=1e-9)
            # the reported certificate is the one that stopped the refinement
            assert sol.certificate_gap == sol.objective - sol.dual_objective
            assert sol.certificate_gap <= 1e-9 * max(1.0, abs(sol.objective))
            V = sol.volumes
            r = jobs.requirements()
            assert np.all(V >= -1e-9)
            assert np.all(V <= r[:, None] * inst.slot_width + 1e-9)
            assert np.all(V.sum(axis=0) <= inst.slot_width + 1e-9)
            assert np.all(V.sum(axis=1) >= jobs.volumes() - 1e-8)
            # dual feasibility and complementary slackness
            mids = inst.slot_midpoints()
            gains = sol.alpha[:, None] - mids[None, :] / jobs.volumes()[:, None]
            assert np.all(sol.gamma[None, :] + sol.beta >= gains - 1e-7)
            cap_slack = inst.slot_width - V.sum(axis=0)
            assert np.max(np.abs(sol.gamma * cap_slack)) <= 1e-7
            box_slack = r[:, None] * inst.slot_width - V
            assert np.max(np.abs(sol.beta * box_slack)) <= 1e-7
            assert np.max(np.abs(V * (gains - sol.beta - sol.gamma[None, :]))) <= 1e-7

    def test_any_algorithm_error_of_the_seed_starts_from_one_block(self, monkeypatch):
        # the seed catches the base class, so a new failure of solve_alpha,
        # such as a start past the float range, needs no edit here
        jobs = generate_random(4, 2)
        horizon = 4 * jobs.max_processing_time()
        inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / 64)
        solutions = []
        for error in (ConvergenceError(float("inf"), 0, 0, np.zeros(0)),
                      AlgorithmError("solve_alpha's start overflows")):
            def no_seed(*args, error=error, **kwargs):
                raise error

            monkeypatch.setattr(lpmod, "solve_alpha", no_seed)
            solutions.append(solve_lp(inst))
        a, b = solutions
        assert (a.objective, a.rounds, a.pivots) == (b.objective, b.rounds, b.pivots)
        assert np.array_equal(a.alpha, b.alpha)
        assert b.certificate_gap <= 1e-9 * b.objective

    def test_discretization_gap_halves(self):
        # single capped job whose processing time is deliberately misaligned
        # with both slot grids (fractional offsets 0.2 and 0.4 slots)
        jobs = JobSet.of([(1.01, 0.4)])
        exact = 0.5 * jobs[0].processing_time
        horizon = 4.0
        gaps = []
        for slots in (32, 64):
            inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / slots)
            gaps.append(solve_lp(inst).objective - exact)
        assert gaps[0] > 1e-9
        assert gaps[1] <= gaps[0] * 0.55  # halving plus 10% slack


class TestRefinementWork:
    """The first blocks come from the breakpoints of the continuous optimum."""

    @staticmethod
    def lhs_lp(rng, n=3, slots=1024):
        # Latin-hypercube volumes in [1, 10] (log scale) and requirements in
        # (0.2, 1]; the horizon leaves room for one more job, as in lsapprox
        u = (rng.permutation(n) + rng.random(n)) / n
        w = (rng.permutation(n) + rng.random(n)) / n
        jobs = JobSet.of(zip(10.0 ** u, 1.0 - 0.8 * w))
        horizon = (n + 1) * jobs.max_processing_time()
        return build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / slots)

    def test_few_rounds_and_blocks(self):
        # the uniform start took a median of 5 rounds and 74.5 blocks here
        rng = np.random.default_rng(5)
        sols = [solve_lp(self.lhs_lp(rng)) for _ in range(20)]
        assert np.median([s.rounds for s in sols]) <= 2
        assert np.median([s.block_edges.size - 1 for s in sols]) <= 20

    def test_sixteen_jobs_stay_small(self):
        # a 1024-block start on these 16 long-heavy jobs peaked at 308 MB
        jobs = generate_random(16, 1)
        lh = sorted(subdivide(jobs, LsApproxParams(0.5).mu).long_heavy)
        horizon = len(jobs) * jobs.max_processing_time()
        inst = build_discretized_lp(JobSet(jobs[i] for i in lh), horizon=horizon,
                                    slot_width=horizon / 1024)
        tracemalloc.start()
        try:
            sol = solve_lp(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.certificate_gap <= 1e-9 * sol.objective
        assert peak < 32e6

    def test_cuts_match_the_argsort_reference(self, monkeypatch):
        # from the one-block start every LP takes several rounds; each round's
        # breakpoint cuts must equal the per-block argsort rule's edges
        def no_seed(*args, **kwargs):
            raise ConvergenceError(float("inf"), 0, 0, np.zeros(0))

        rounds = []

        def record(inst, edges):
            out = _aggregated_solve(inst, edges)
            rounds.append((edges, out[0], out[1]))
            return out

        monkeypatch.setattr(lpmod, "solve_alpha", no_seed)
        monkeypatch.setattr(lpmod, "_aggregated_solve", record)
        compared = 0
        for n in (3, 6):
            for seed in range(1, 6):
                jobs = generate_random(n, seed)
                horizon = n * jobs.max_processing_time()
                inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / 64)
                rounds.clear()
                sol = solve_lp(inst)
                assert rounds[0][0].tolist() == [0, 64]
                assert sol.block_edges.tolist() == rounds[-1][0].tolist()
                for (edges, W, alpha), (after, _, _) in zip(rounds, rounds[1:]):
                    assert after.tolist() == argsort_refinement(inst, edges, W, alpha)
                    compared += 1
        assert compared >= 20

    def test_cuts_skip_crossings_below_zero(self):
        # lines 0 and 1 reach zero at 1 and 0.5 and cross at 1.5, below zero,
        # where no packing changes; line 2 crosses line 0 at 0.4, above zero,
        # and reaches zero at 2.8
        jobs = JobSet.of([(1.0, 1.0), (2.0, 0.5), (4.0, 0.5)])
        inst = build_discretized_lp(jobs, horizon=8.0, slot_width=1.0 / 16.0)
        cuts = set(lpmod._cuts(inst, np.array([1.0, 0.25, 0.7])).tolist())
        assert not {24, 25} & cuts
        for t in (1.0, 0.5, 2.8, 0.4):
            slot = int(t * 16.0)
            assert {slot, slot + 1} <= cuts

    def test_tied_volumes_start_from_one_block(self, monkeypatch):
        # solve_alpha refuses tied volumes; the refinement starts from {0, I}
        jobs = JobSet.of([(2.0, 0.5), (2.0, 0.8), (5.0, 0.3)])
        horizon = 3 * jobs.max_processing_time()
        inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / 64)
        starts = []

        def record(inst, edges):
            starts.append(edges.tolist())
            return _aggregated_solve(inst, edges)

        monkeypatch.setattr(lpmod, "_aggregated_solve", record)
        sol = solve_lp(inst)
        monkeypatch.undo()
        assert starts[0] == [0, 64]
        _, _, objective, _ = _aggregated_solve(inst, np.arange(inst.n_slots + 1))
        assert sol.objective == pytest.approx(objective, rel=1e-9)


class TestLpSchedule:
    def test_realization_matches_volumes(self):
        jobs = JobSet.of([(1, 1)])
        inst = build_discretized_lp(jobs, horizon=1.0, slot_width=0.25)
        sol = solve_lp(inst)
        sched = lp_schedule(sol)
        assert sched.assignments[0].values.tolist() == [1.0]
        assert validate_schedule(jobs, sched).feasible

    def test_objective_equals_realized_fractional_cost(self):
        # midpoint pricing is exact for slot-constant rates
        for seed in range(10):
            jobs = random_instance(seed, 4)
            horizon = len(jobs) * jobs.max_processing_time()
            inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / 64)
            sol = solve_lp(inst)
            sched = lp_schedule(sol)
            _, got = fractional_completion_time(jobs, sched)
            assert got == pytest.approx(sol.objective, rel=1e-10)
            assert validate_schedule(jobs, sched).feasible


class TestGuaranteeGradeWidth:
    def test_per_slot_volume_cap(self):
        # at the guarantee-grade width, a long-heavy job moves at most
        # (mu^4 / n^3) of its volume per slot
        for seed in range(20):
            jobs = random_instance(seed, 6)
            mu = 1.0 / 40.0
            sub = subdivide(jobs, mu)
            n = len(jobs)
            horizon = n * jobs.max_processing_time()
            width = horizon * (mu / n) ** 6
            for idx in sub.long_heavy:
                job = jobs[idx]
                assert job.requirement * width < (mu ** 4 / n ** 3) * job.volume


class TestDump:
    def test_layout(self):
        inst = build_discretized_lp(JobSet.of([(1.0, 0.5)]), horizon=1.0, slot_width=0.5)
        text = dump_lp(inst)
        lines = text.strip().split("\n")
        assert lines[0].startswith("min ")
        assert lines[1] == "demand 0 >= 1"
        assert lines[2] == "capacity 0 <= 0.5"
        assert lines[3] == "capacity 1 <= 0.5"
        assert lines[4] == "box 0 0 <= 0.25"
        assert len(lines) == 1 + 1 + 2 + 2


class TestRefinementLastResorts:
    """The refinement's fallbacks, forced: no round certifies (a negative
    ``CERTIFICATE_TOL``), no cut is found, or ``MAX_ROUNDS`` runs out."""

    JOBS = JobSet.of([(1.0, 0.5), (2.0, 1.0)])   # horizon n * p_max = 4

    def test_a_round_without_a_cut_halves_the_widest_block(self, monkeypatch):
        inst = build_discretized_lp(self.JOBS, slot_width=0.5)
        assert inst.n_slots == 8
        monkeypatch.setattr(lpmod, "CERTIFICATE_TOL", -1.0)
        monkeypatch.setattr(lpmod, "_cuts", lambda *args: np.zeros(0, dtype=int))
        seen, solve = [], lpmod._aggregated_solve

        def spy(inst, edges):
            seen.append(edges.tolist())
            return solve(inst, edges)

        monkeypatch.setattr(lpmod, "_aggregated_solve", spy)
        with pytest.raises(SimplexError, match=r"^certificate gap \S+ at full resolution$"):
            solve_lp(inst)
        assert seen == [[0, 8], [0, 4, 8], [0, 2, 4, 8], [0, 2, 4, 6, 8], [0, 1, 2, 4, 6, 8],
                        [0, 1, 2, 3, 4, 6, 8], [0, 1, 2, 3, 4, 5, 6, 8], list(range(9))]

    def test_refinement_stops_after_max_rounds(self, monkeypatch):
        inst = build_discretized_lp(self.JOBS, slot_width=1.0 / 16.0)
        monkeypatch.setattr(lpmod, "CERTIFICATE_TOL", -1.0)
        monkeypatch.setattr(lpmod, "MAX_ROUNDS", 2)
        with pytest.raises(SimplexError, match=r"^block refinement did not converge \(gap \S+\)$"):
            solve_lp(inst)


def test_dense_simplex_refuses_a_negative_right_hand_side():
    with pytest.raises(ContractError, match="nonnegative right-hand sides"):
        dense_simplex([1.0, 0.0], [[1.0, 1.0]], [-1.0], [np.inf, np.inf])
