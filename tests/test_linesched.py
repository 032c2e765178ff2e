import dataclasses
import time

import numpy as np
import pytest

from sharesched import (
    AlgorithmError,
    ContractError,
    ConvergenceError,
    DegenerateVolumesError,
    Job,
    JobSet,
    LineSchedule,
    Schedule,
    StepFunction,
    best_schedule,
    build_discretized_lp,
    build_line_schedule,
    check_slackness,
    cost_rates_on_grid,
    duality_quantities,
    fractional_completion_time,
    makespan,
    solve_alpha,
    solve_lp,
    validate_schedule,
)
from sharesched import _kernel, linesched
from sharesched.cli import generate_random

from conftest import random_instance, time_limit
from test_kernel import _oracle_cases

ALPHA_EXPECTED = np.array([51.0 / 16.0, 39.0 / 16.0, 31.0 / 16.0])


class TestBuildLineSchedule:
    def test_single_full_requirement_job(self):
        jobs = JobSet.of([(1, 1)])
        ls = build_line_schedule(jobs, [1.0])
        a = ls.schedule.assignments[0]
        assert a.values.tolist() == [1.0] and a.support_end == 1.0
        # capacity price follows the line while the resource is exhausted
        assert ls.prices(0.0)[0] == pytest.approx(1.0)
        assert ls.prices(0.5)[0] == pytest.approx(0.5)
        assert ls.prices(1.5)[0] == 0.0
        assert duality_quantities(ls).requirement_penalty == 0.0

    def test_single_capped_job_prices_the_cap(self):
        jobs = JobSet.of([(1, 0.5)])
        ls = build_line_schedule(jobs, [2.0])
        a = ls.schedule.assignments[0]
        assert a.values.tolist() == [0.5] and a.support_end == 2.0
        # resource is never exhausted: all price mass sits on the cap
        q = duality_quantities(ls)
        assert q.capacity_penalty == 0.0
        assert ls.prices(0.0)[1][0] == pytest.approx(2.0)
        assert ls.prices(1.0)[1][0] == pytest.approx(1.0)
        assert q.requirement_penalty == pytest.approx(0.5 * 2.0)   # r_0 times beta_0's integral

    def test_worked_example_structure(self, three_jobs):
        ls = build_line_schedule(three_jobs, ALPHA_EXPECTED)
        for t in (1.0, 1.5, 6.0):
            assert np.min(np.abs(ls.grid - t)) < 1e-12
        assert ls.scheduled_volumes == pytest.approx([1.0, 4.0, 6.0])
        r = ls.schedule.assignments
        assert r[0](0.5) == pytest.approx(0.75)
        assert r[1](0.5) == pytest.approx(0.25)
        assert r[1](3.0) == pytest.approx(0.5)
        assert r[2](0.5) == 0.0
        assert r[2](3.0) == pytest.approx(0.5)
        assert r[2](7.0) == pytest.approx(2.0 / 3.0)

    def test_rejects_bad_alpha(self):
        jobs = JobSet.of([(1, 0.5), (2, 0.8)])
        with pytest.raises(ContractError):
            build_line_schedule(jobs, [1.0, -0.5])
        with pytest.raises(ContractError):
            build_line_schedule(jobs, [1.0])
        # alpha_0 * v_0 overflows, so line 0 never reaches zero
        with pytest.raises(ContractError, match="job 0's line reaches zero .* overflows"):
            build_line_schedule(JobSet.of([(10, 0.5), (1, 1)]), [1e308, 1.0])

    def test_an_overflowing_crossing_is_dropped_without_a_warning(self):
        # the crossing time (1e300 - 0) / (1 / v_0 - 1 / v_1) overflows, but
        # it lies past job 0's zero at 1e300, so the packing drops it
        ls = build_line_schedule(JobSet.of([(1, 1), (1 + 1e-15, 1)]), [1e300, 0.0])
        first, second = ls.schedule.assignments
        assert first.edges.tolist() == [0.0, 1e300] and first.values.tolist() == [1.0]
        assert second.support_end == 0.0

    def test_empty_instance(self):
        jobs = JobSet()
        ls = build_line_schedule(jobs, [])
        assert ls.rates.shape == (0, 0) and ls.grid.tolist() == [0.0]
        assert check_slackness(ls).max_violation() == 0.0
        assert cost_rates_on_grid(ls).shape == (0,)
        q = duality_quantities(ls)
        assert (q.primal_cost, q.volume_payoff, q.requirement_penalty,
                q.capacity_penalty) == (0.0, 0.0, 0.0, 0.0)

    def test_exact_twins_meet_slackness_and_duality(self):
        # parallel lines never cross, and equal priorities pack in job order
        twins = JobSet.of([(1, 0.5), (1, 0.8), (2, 0.3)])
        for alpha in ([1.0, 1.0, 1.0], [1.0, 1.5, 0.7], [2.0, 2.0, 0.0], [3.0, 3.0, 3.0]):
            ls = build_line_schedule(twins, alpha)
            assert check_slackness(ls).max_violation() <= 1e-12
            q = duality_quantities(ls)
            rhs = q.primal_cost + q.requirement_penalty + q.capacity_penalty
            assert q.volume_payoff == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert q.primal_cost == pytest.approx(
                q.requirement_penalty + q.capacity_penalty, rel=1e-12, abs=1e-12)


class TestPrices:
    def test_eval_and_integral(self):
        # one job (2, 1) at alpha 1 runs at its full requirement on [0, 2),
        # so gamma is its line 1 - t / 2 there
        ls = build_line_schedule(JobSet.of([(2, 1)]), [1.0])
        assert ls.prices(0.0)[0] == 1.0
        assert ls.prices(0.5)[0] == 0.75
        assert ls.prices(1.5)[0] == 0.25
        assert ls.prices(2.5)[0] == 0.0
        assert duality_quantities(ls).capacity_penalty == pytest.approx(0.75 + 0.25)


def reference_build(jobs, alpha):
    """Reference ``build_line_schedule``: every job on the grid of 0, every
    line zero and every crossing of two lines at positive time, with the
    rates of ``_kernel.rates_at`` and the same price rule."""
    v, r, a = jobs.volumes(), jobs.requirements(), np.asarray(alpha, dtype=float)
    n = v.size
    idx = np.arange(n)
    j, k = np.nonzero(idx[:, None] < idx)
    ds = 1.0 / v[j] - 1.0 / v[k]
    t = (a[j] - a[k]) / np.where(ds != 0.0, ds, np.inf)  # parallel: t = 0
    grid = np.unique(np.concatenate([[0.0], (a * v)[a > 0.0], t[t > 0.0]]))
    t0 = grid[:-1]
    rates = _kernel.rates_at(v, r, a, t0)
    mid = 0.5 * (t0 + grid[1:])
    _, beta_mid, k = _kernel.prices(a[:, None] - mid[None, :] / v[:, None], rates)
    gamma_start = np.where(k >= 0, a[k] - t0 / v[k], 0.0)
    gamma_slope = np.where(k >= 0, -1.0 / v[k], 0.0)
    positive = beta_mid > 0.0
    beta_start = np.where(positive, a[:, None] - t0[None, :] / v[:, None] - gamma_start, 0.0)
    beta_slope = np.where(positive, -1.0 / v[:, None] - gamma_slope, 0.0)
    return LineSchedule(
        Schedule(StepFunction(grid, rates[j]) for j in range(n)), a, gamma_start, gamma_slope,
        beta_start, beta_slope, rates @ np.diff(grid), grid, jobs, rates)


def _oracle_pool():
    """(jobs, alpha): the kernel's oracle cases, the acceptance pool, solved
    and random intercepts on ``generate_random`` up to 48 jobs, and
    requirements drawn from {0.25, 0.5, 0.75, 1}, which tie the capacity."""
    for v, r, alpha in _oracle_cases():
        yield JobSet.of(zip(v, r)), alpha
    draws = [random_instance(seed, 8) for seed in range(200)]
    draws += [generate_random(n, seed) for n in (2, 3, 5, 8, 12, 16, 24, 32, 48)
              for seed in range(1, 6)]
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        draws.append(JobSet.of(zip(np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)),
                                   rng.choice([0.25, 0.5, 0.75, 1.0], n))))
    for jobs in draws:
        try:
            yield jobs, solve_alpha(jobs, vol_tol=1e-8)
        except DegenerateVolumesError:
            pass
        yield jobs, rng.uniform(0.0, 1.5 / jobs.requirements().min(), len(jobs))


def _close(got, want):
    return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_matches_the_crossing_grid_reference():
    cases = 0
    for jobs, alpha in _oracle_pool():
        ls, ref = build_line_schedule(jobs, alpha), reference_build(jobs, alpha)
        for got, want in zip(ls.schedule.assignments, ref.schedule.assignments):
            assert got.edges.tobytes() == want.edges.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
        # the kept rates are the assignments read on the grid
        assert ls.rates.shape == (len(jobs), ls.grid.size - 1)
        for j, a in enumerate(ls.schedule.assignments):
            assert ls.rates[j].tobytes() == a(ls.grid[:-1]).tobytes()
        v, r = jobs.volumes(), jobs.requirements()
        assert ls.scheduled_volumes.tobytes() == _kernel.line_volumes(v, r, ls.alpha).tobytes()
        at = np.concatenate([ref.grid[:-1], 0.5 * (ref.grid[:-1] + ref.grid[1:])])
        (gamma, beta), (gamma_ref, beta_ref) = ls.prices(at), ref.prices(at)
        assert _close(gamma, gamma_ref) and _close(beta, beta_ref)
        q, q_ref = duality_quantities(ls), duality_quantities(ref)
        assert vars(q) == pytest.approx(vars(q_ref), rel=1e-12, abs=1e-12)
        assert (check_slackness(ls).max_violation()
                <= check_slackness(ref).max_violation() + 1e-12)
        assert ls.grid[-1] == makespan(ls.schedule)
        cases += 1
    assert cases > 900


def test_crossing_of_two_running_lines_is_a_grid_point():
    # both jobs run at 0.5 throughout and their lines cross at t = 2, where
    # no rate changes but gamma passes from line 1 to line 0
    jobs = JobSet.of([(1.0, 0.5), (2.0, 0.5)])
    ls = build_line_schedule(jobs, [3.0, 2.0])
    assert ls.grid.tolist() == [0.0, 2.0, 3.0, 4.0]
    assert ls.prices(1.0)[0] == 1.5 and ls.prices(2.5)[0] == 0.5
    assert check_slackness(ls).max_violation() == 0.0


class TestScheduledVolumes:
    def test_zero_alpha_schedules_nothing(self):
        jobs = JobSet.of([(1, 0.5), (2, 0.8)])
        ls = build_line_schedule(jobs, [0.0, 0.0])
        assert ls.scheduled_volumes.tolist() == [0.0, 0.0]
        assert ls.rates.shape == (2, 0) and cost_rates_on_grid(ls).shape == (0,)

    def test_single(self):
        assert build_line_schedule(JobSet.of([(1, 1)]), [1.0]).scheduled_volumes.tolist() == [1.0]

    def test_worked_example(self, three_jobs):
        got = build_line_schedule(three_jobs, ALPHA_EXPECTED).scheduled_volumes
        assert got == pytest.approx([1.0, 4.0, 6.0], abs=1e-12)


class TestSolveAlpha:
    def test_single_job_closed_form(self):
        for v, r in [(1.0, 1.0), (2.0, 0.25), (0.3, 0.9)]:
            alpha = solve_alpha(JobSet.of([(v, r)]))
            assert alpha[0] == pytest.approx(1.0 / r, rel=1e-9)

    def test_worked_example(self, three_jobs):
        alpha = solve_alpha(three_jobs, vol_tol=1e-8)
        assert np.max(np.abs(alpha - ALPHA_EXPECTED)) < 1e-6

    def test_volume_targets_met_on_random_instances(self):
        for seed in range(40):
            jobs = random_instance(seed, 6)
            alpha = solve_alpha(jobs, vol_tol=1e-8)
            got = build_line_schedule(jobs, alpha).scheduled_volumes
            assert np.max(np.abs(got - jobs.volumes())) <= 1e-8

    def test_agrees_with_lp_duals(self):
        # the fine-slot LP duals approximate the fixed-point intercepts
        for seed in (5, 11, 17):
            jobs = random_instance(seed, 5)
            alpha = solve_alpha(jobs)
            horizon = len(jobs) * jobs.max_processing_time()
            inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / 4096)
            sol = solve_lp(inst)
            assert np.max(np.abs(sol.alpha - alpha) / np.maximum(alpha, 1e-9)) < 0.02
            lp_line_vols = build_line_schedule(jobs, sol.alpha).scheduled_volumes
            assert np.max(np.abs(lp_line_vols - jobs.volumes()) / jobs.volumes()) < 0.05

    def test_convergence_error_carries_residual(self, monkeypatch):
        jobs = JobSet.of([(1.0, 0.5), (1.2, 0.7)])
        monkeypatch.setattr(linesched, "MAX_ITERS", 0)
        with pytest.raises(ConvergenceError) as err:
            solve_alpha(jobs)
        assert err.value.residual > 0 or err.value.residual == float("inf")

    @staticmethod
    def _record_packings(monkeypatch):
        """Record every alpha that ``_kernel._rows`` packs."""
        packed, rows = [], _kernel._rows

        def record(v, r, alpha):
            packed.append(alpha.tobytes())
            return rows(v, r, alpha)

        monkeypatch.setattr(_kernel, "_rows", record)
        return packed

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_packs_no_point_twice(self, n, monkeypatch):
        packed = self._record_packings(monkeypatch)
        for seed in range(1, 6):
            packed.clear()
            solve_alpha(generate_random(n, seed))
            assert len(packed) == len(set(packed)) > 1

    def test_convergence_error_counts_packings(self, monkeypatch):
        packed = self._record_packings(monkeypatch)
        monkeypatch.setattr(linesched, "MAX_ITERS", 1)
        with pytest.raises(ConvergenceError, match="volume residual") as err:
            solve_alpha(generate_random(8, 1))
        assert err.value.iterations == 1 and err.value.residual > 1e-9
        assert err.value.packings == len(packed) > 1
        assert f"{len(packed)} packings" in str(err.value)

    def test_convergence_error_carries_the_last_accepted_alpha(self, monkeypatch):
        jobs = generate_random(8, 1)
        v, r = jobs.volumes(), jobs.requirements()
        monkeypatch.setattr(linesched, "MAX_ITERS", 1)
        with pytest.raises(ConvergenceError) as err:
            solve_alpha(jobs)
        vols = _kernel.line_volumes(v, r, err.value.alpha)
        assert float(np.abs(v - vols).max()) == err.value.residual

    def test_the_iteration_limit_is_a_module_constant(self, monkeypatch):
        jobs = generate_random(4, 1)
        with pytest.raises(TypeError):
            solve_alpha(jobs, max_iters=0)
        monkeypatch.setattr(linesched, "MAX_ITERS", 0)
        with pytest.raises(ConvergenceError) as err:
            solve_alpha(jobs)
        assert err.value.iterations == 0 and err.value.packings == 1

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateVolumesError):
            solve_alpha(JobSet.of([(1, 0.5), (1, 0.6)]))

    @pytest.mark.parametrize("vol_tol", [0.0, -1.0, float("nan")])
    def test_rejects_a_vol_tol_that_is_not_positive(self, vol_tol):
        # a plain ContractError: the near-tie guard would divide by vol_tol
        with pytest.raises(ContractError, match="vol_tol must be positive") as err:
            solve_alpha(JobSet.of([(1, 0.5), (2, 0.6)]), vol_tol=vol_tol)
        assert not isinstance(err.value, DegenerateVolumesError)

    def test_a_vol_tol_below_the_volume_scale_is_named(self):
        # 0.25 * eps * sum(v) / vol_tol exceeds 1, so every pair counts as tied
        for pairs in ([(1e308, 1), (1, 1)], [(1e308, 1), (1e308, 1)]):
            with pytest.raises(DegenerateVolumesError,
                               match=r"vol_tol=1e-09 is at most 0.25 \* eps \* sum\(v\)"):
                solve_alpha(JobSet.of(pairs))

    def test_near_tied_volumes_fail_fast(self):
        # volumes a relative 1e-15 apart, and twins 1e-12 apart, are too
        # close for vol_tol; iterating on them stalls for several seconds
        base = list(generate_random(6, 5))
        nudged = JobSet([base[0], Job(base[0].volume * (1 + 1e-15), base[1].requirement)]
                        + base[2:])
        twins = JobSet([base[0], Job(base[0].volume * (1 + 1e-12), base[1].requirement)]
                       + base[2:])
        for jobs in (nudged, twins):
            start = time.perf_counter()
            with pytest.raises(DegenerateVolumesError, match="vol_tol"):
                solve_alpha(jobs)
            assert time.perf_counter() - start < 0.1
            start = time.perf_counter()
            _, report = best_schedule(jobs)
            assert time.perf_counter() - start < 1.0
            assert report.chosen == "greedy" and report.line_error is not None

    @pytest.mark.parametrize("pairs", [
        # each processing time is finite, but their sum is not
        [(1, 1e-308), (2, 2.2e-308)],
        # the sum is finite, but alpha = p / v is not
        [(0.5, 5e-309)],
        # 1 / v_j, the slope of each line, is not finite
        [(1e-310, 1), (2e-310, 1)],
    ])
    def test_an_overflowing_start_fails_fast(self, pairs):
        # the first two once looped forever: the line search never left its NaN trials
        jobs = JobSet.of(pairs)
        with time_limit(5.0):
            start = time.perf_counter()
            with pytest.raises(AlgorithmError, match="solve_alpha's start overflows") as err:
                solve_alpha(jobs)
            assert time.perf_counter() - start < 0.1
            assert not isinstance(err.value, ConvergenceError)
            _, report = best_schedule(jobs)
        assert report.chosen == "greedy" and "start overflows" in report.line_error

    def test_inner_products_past_the_float_range_stay_silent(self):
        # processing times near the float range overflow the step's inner
        # products to +-inf, which the ascent test still reads; this once
        # raised a RuntimeWarning, an error under the test settings
        v = [21.32701336780752, 1.4194690735804358, 0.07268608093786182,
             0.8222656593278913, 217.233603349544]
        r = [1.0938576147627934e-306, 5.083365179384329e-306, 5.389218591881237e-308,
             3.8370733904252934e-306, 1.3618739532614544e-304]
        jobs = JobSet.of(zip(v, r))
        ls = build_line_schedule(jobs, solve_alpha(jobs))
        assert np.max(np.abs(ls.scheduled_volumes - v)) <= linesched.DEFAULT_TOL
        assert duality_quantities(ls).primal_cost < np.inf
        sched, report = best_schedule(jobs)
        assert report.line_error is None
        assert validate_schedule(jobs, sched).feasible

    def test_requirement_penalty_near_the_float_range_meets_the_identity(self):
        # each row sum of the requirement penalty would overflow before r_j
        # scales it down by about 1e-306, so every row is summed with r_j first
        v = [21.32701336780752, 1.4194690735804358, 0.07268608093786182,
             0.8222656593278913, 217.233603349544]
        r = [1.0938576147627934e-306, 5.083365179384329e-306, 5.389218591881237e-308,
             3.8370733904252934e-306, 1.3618739532614544e-304]
        jobs = JobSet.of(zip(v, r))
        q = duality_quantities(build_line_schedule(jobs, solve_alpha(jobs)))
        assert q.requirement_penalty < np.inf
        rhs = q.primal_cost + q.requirement_penalty + q.capacity_penalty
        assert q.volume_payoff == pytest.approx(rhs, rel=1e-12)
        # every row is summed with r_j applied first, bit for bit; the row-first
        # sum, r_j times each row's sum, differs from it in the last bits at
        # seeds 4, 6, 9, 12 and 20
        for seed in range(1, 21):
            jobs = generate_random(8, seed)
            ls = build_line_schedule(jobs, solve_alpha(jobs))
            w = np.diff(ls.grid)
            heights = ls.beta_start + 0.5 * ls.beta_slope * w
            want = sum(np.vecdot(jobs.requirements()[:, None] * heights, w))
            assert duality_quantities(ls).requirement_penalty == float(want)

    def test_priorities_past_the_float_range_stay_silent(self):
        # a volume below 1 meets grid times near the float range, so a
        # priority alpha_j - t / v_j overflows to -inf and prices it lowest;
        # this once raised a RuntimeWarning in build_line_schedule
        v = [0.1705192048054303, 224.94511200074984, 50.543829835267424]
        r = [1.326957298899854e-308, 1.8403079388004853e-304, 1.039834767835005e-306]
        jobs = JobSet.of(zip(v, r))
        ls = build_line_schedule(jobs, solve_alpha(jobs))
        assert validate_schedule(jobs, ls.schedule).feasible
        sched, report = best_schedule(jobs)
        assert validate_schedule(jobs, sched).feasible

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_larger_instances_meet_targets_and_strong_duality(self, n):
        for seed in (1, 2):
            jobs = generate_random(n, seed)
            alpha = solve_alpha(jobs, vol_tol=1e-8)
            ls = build_line_schedule(jobs, alpha)
            assert np.max(np.abs(ls.scheduled_volumes - jobs.volumes())) <= 1e-8
            q = duality_quantities(ls)
            rhs = q.primal_cost + q.requirement_penalty + q.capacity_penalty
            assert q.volume_payoff == pytest.approx(rhs, rel=1e-6)

    def test_intercepts_respect_volume_bound(self):
        # any fixed point keeps alpha_j below total volume / (v_j * min r)
        for seed in range(30):
            jobs = random_instance(seed, 7)
            alpha = solve_alpha(jobs)
            v = jobs.volumes()
            cap = v.sum() / (v * jobs.requirements().min())
            assert np.all(alpha <= cap + 1e-6)


class TestDualityQuantities:
    def test_results_read_the_instance_the_line_schedule_keeps(self):
        # reference values from the form that took the jobs beside the line
        # schedule, duality_quantities(ls, jobs) and check_slackness(ls, jobs)
        jobs = generate_random(8, 1)
        ls = build_line_schedule(jobs, solve_alpha(jobs))
        assert ls.jobs == jobs
        q = duality_quantities(ls)
        assert (q.primal_cost, q.volume_payoff, q.requirement_penalty, q.capacity_penalty) == (
            42.52272389395118, 85.04544778790238, 1.9026147295381513, 40.62010916441304)
        s = check_slackness(ls)
        assert (s.volume, s.requirement, s.capacity, s.rate, s.dual_feasibility) == (
            8.290236527747635e-16, 0.0, 5.654319200839764e-16, 6.099608545592106e-16,
            8.881784197001252e-16)

    def test_primal_cost_is_the_fractional_completion_time(self):
        jobs = generate_random(8, 1)
        ls = build_line_schedule(jobs, solve_alpha(jobs))
        got = duality_quantities(ls).primal_cost
        assert got == fractional_completion_time(jobs, ls.schedule)[1]

    def test_single_full_requirement(self):
        jobs = JobSet.of([(1, 1)])
        ls = build_line_schedule(jobs, [1.0])
        q = duality_quantities(ls)
        assert q.primal_cost == pytest.approx(0.5)
        assert q.volume_payoff == pytest.approx(1.0)
        assert q.requirement_penalty == 0.0
        assert q.capacity_penalty == pytest.approx(0.5)

    def test_single_capped(self):
        jobs = JobSet.of([(1, 0.5)])
        ls = build_line_schedule(jobs, [2.0])
        q = duality_quantities(ls)
        assert q.primal_cost == pytest.approx(1.0)
        assert q.volume_payoff == pytest.approx(2.0)
        assert q.requirement_penalty == pytest.approx(1.0)
        assert q.capacity_penalty == 0.0

    def test_worked_example(self, three_jobs):
        ls = build_line_schedule(three_jobs, ALPHA_EXPECTED)
        q = duality_quantities(ls)
        assert q.volume_payoff == pytest.approx(393.0 / 16.0, abs=1e-12)
        assert q.primal_cost == pytest.approx(393.0 / 32.0, rel=1e-12)

    def test_identities_on_random_instances(self):
        for seed in range(60):
            jobs = random_instance(seed, 8)
            rng = np.random.default_rng(seed + 777)
            alpha = rng.uniform(0.0, 1.5 / jobs.requirements().min(), len(jobs))
            ls = build_line_schedule(jobs, alpha)
            q = duality_quantities(ls)
            rhs = q.primal_cost + q.requirement_penalty + q.capacity_penalty
            assert q.volume_payoff == pytest.approx(rhs, rel=1e-6, abs=1e-9)
            assert q.primal_cost == pytest.approx(
                q.requirement_penalty + q.capacity_penalty, rel=1e-6, abs=1e-9)


class TestSlackness:
    def test_constructed_schedules_are_slack_free(self, three_jobs):
        ls = build_line_schedule(three_jobs, ALPHA_EXPECTED)
        report = check_slackness(ls)
        assert report.max_violation() <= 1e-9

    def test_bad_gamma_is_flagged(self):
        jobs = JobSet.of([(1, 0.5)])
        good = build_line_schedule(jobs, [2.0])
        # positive while idle
        bad = dataclasses.replace(good, gamma_start=np.array([2.0]), gamma_slope=np.array([-0.5]))
        report = check_slackness(bad)
        assert report.capacity > 0.1

    def test_violations_are_read_exactly_at_interval_ends(self):
        # one job (1, 0.5) at alpha 2 runs at rate 0.5 on grid [0, 2); every
        # family is affine there, so its peak is its value at an end
        jobs = JobSet.of([(1, 0.5)])
        good = build_line_schedule(jobs, [2.0])

        def report(alpha, beta, gamma):
            return check_slackness(dataclasses.replace(
                good, alpha=np.array([alpha]), beta_start=np.array([beta[0]]),
                beta_slope=np.array([beta[1]]), gamma_start=np.array(gamma[0]),
                gamma_slope=np.array(gamma[1])))

        # gamma (1 - 0.5) peaks at the left end, 2 * 0.5, and at the right, 1 * 0.5
        assert report(2.0, ([2.0], [-1.0]), ([2.0], [-0.5])).capacity == 1.0
        assert report(2.0, ([2.0], [-1.0]), ([0.0], [0.5])).capacity == 0.5
        # at alpha 2.5 the line 2.5 - t is still 0.5 when the grid ends
        assert report(2.5, ([2.5], [-1.0]), ([0.0], [0.0])).dual_feasibility == 0.5

    def test_volume_condition_uses_scheduled_volumes(self, three_jobs):
        ls = build_line_schedule(three_jobs, ALPHA_EXPECTED)
        assert check_slackness(ls).volume <= 1e-12


class TestCostRate:
    def test_examples(self, three_jobs):
        single = JobSet.of([(1, 1)])
        ls1 = build_line_schedule(single, [1.0])
        assert cost_rates_on_grid(ls1) == pytest.approx([1.0])
        ls3 = build_line_schedule(three_jobs, ALPHA_EXPECTED)
        # the first grid interval is [0, 1), with midpoint 0.5
        assert cost_rates_on_grid(ls3)[0] == pytest.approx(0.75 / 1.0 + 0.25 / 4.0)
        assert all(a(100.0) == 0.0 for a in ls3.schedule.assignments)

    def test_monotone_on_random_instances(self):
        for seed in range(40):
            jobs = random_instance(seed, 7)
            alpha = solve_alpha(jobs)
            ls = build_line_schedule(jobs, alpha)
            rates = cost_rates_on_grid(ls)
            assert np.all(np.diff(rates) <= 1e-9)


class TestStructuralProperties:
    def test_volume_map_monotonicity(self):
        for seed in range(25):
            jobs = random_instance(seed, 6, n_min=2)
            rng = np.random.default_rng(seed + 1)
            alpha = rng.uniform(0.1, 2.0 / jobs.requirements().min(), len(jobs))
            base = build_line_schedule(jobs, alpha).scheduled_volumes
            j = int(rng.integers(0, len(jobs)))
            bumped = alpha.copy()
            bumped[j] += float(rng.uniform(0.05, 0.5))
            after = build_line_schedule(jobs, bumped).scheduled_volumes
            assert after[j] >= base[j] - 1e-12
            others = np.arange(len(jobs)) != j
            assert np.all(after[others] <= base[others] + 1e-12)

    def test_gamma_continuous_and_decreasing(self):
        for seed in range(25):
            jobs = random_instance(seed, 6)
            ls = build_line_schedule(jobs, solve_alpha(jobs))
            def g(t):
                return ls.prices(t)[0]

            grid = ls.grid
            # continuity across interior breakpoints
            for k in range(1, grid.size - 1):
                left = g(grid[k] - 1e-9)
                right = g(grid[k])
                assert right == pytest.approx(left, abs=1e-6)
            samples = np.linspace(0.0, grid[-1] * 1.05, 200)
            vals = g(samples)
            assert np.all(np.diff(vals) <= 1e-9)
            # zero after its first zero
            zero_hits = samples[vals <= 1e-12]
            if zero_hits.size:
                assert np.all(g(samples[samples >= zero_hits[0]]) <= 1e-12)

    def test_dual_feasibility_at_midpoints(self):
        for seed in range(25):
            jobs = random_instance(seed, 6)
            ls = build_line_schedule(jobs, solve_alpha(jobs))
            assert check_slackness(ls).dual_feasibility <= 1e-9

    def test_completion_bounded_by_line_zero(self):
        for seed in range(25):
            jobs = random_instance(seed, 6)
            alpha = solve_alpha(jobs)
            ls = build_line_schedule(jobs, alpha)
            ct = ls.schedule.completion_times()
            assert np.all(ct <= alpha * jobs.volumes() + 1e-9)


class TestNewtonFallbacks:
    """``solve_alpha``'s fallbacks, forced by a packing whose Jacobian or
    volumes are replaced after the real packing ran."""

    JOBS = generate_random(3, 1)

    def test_a_step_that_is_no_ascent_falls_back_to_the_gradient(self, monkeypatch):
        real, calls = _kernel.line_structure, []

        def reversed_jacobian(v, r, alpha):
            calls.append(alpha.copy())
            # a negative definite Hessian turns the Newton step against the gradient
            return real(v, r, alpha)[0], -1e3 * np.eye(v.size)

        monkeypatch.setattr(_kernel, "line_structure", reversed_jacobian)
        monkeypatch.setattr(linesched, "MAX_ITERS", 1)
        with pytest.raises(ConvergenceError):
            solve_alpha(self.JOBS)
        v, r = self.JOBS.volumes(), self.JOBS.requirements()
        grad = v - real(v, r, calls[0])[0]
        assert np.array_equal(calls[1], np.maximum(calls[0] + grad, 0.0))

    def test_a_line_search_that_cannot_move_alpha_raises(self, monkeypatch):
        real, calls = _kernel.line_structure, []

        def opposed(v, r, alpha):
            calls.append(alpha.copy())
            vols, jac = real(v, r, alpha)
            if len(calls) > 1:      # every trial's gradient points back to the start
                vols = v + (alpha - calls[0])
            return vols, jac

        monkeypatch.setattr(_kernel, "line_structure", opposed)
        with pytest.raises(ConvergenceError) as err:
            solve_alpha(self.JOBS)
        v, r = self.JOBS.volumes(), self.JOBS.requirements()
        assert err.value.iterations == 0 and err.value.packings == len(calls) > 2
        assert np.array_equal(err.value.alpha, calls[0])
        assert err.value.residual == float(np.abs(v - real(v, r, calls[0])[0]).max())
