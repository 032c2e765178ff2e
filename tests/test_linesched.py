import time

import numpy as np
import pytest

from sharesched import (
    ContractError,
    ConvergenceError,
    DegenerateVolumesError,
    Job,
    JobSet,
    LineSchedule,
    PiecewiseLinear,
    best_schedule,
    build_discretized_lp,
    build_line_schedule,
    check_slackness,
    cost_rates_on_grid,
    duality_quantities,
    solve_alpha,
    solve_lp,
)
from sharesched import _kernel
from sharesched.cli import generate_random

from conftest import random_instance

ALPHA_EXPECTED = np.array([51.0 / 16.0, 39.0 / 16.0, 31.0 / 16.0])


class TestBuildLineSchedule:
    def test_single_full_requirement_job(self):
        jobs = JobSet.of([(1, 1)])
        ls = build_line_schedule(jobs, [1.0])
        a = ls.schedule.assignments[0]
        assert a.values.tolist() == [1.0] and a.support_end == 1.0
        # capacity price follows the line while the resource is exhausted
        assert ls.gamma(0.0) == pytest.approx(1.0)
        assert ls.gamma(0.5) == pytest.approx(0.5)
        assert ls.gamma(1.5) == 0.0
        assert ls.beta[0].integral() == 0.0

    def test_single_capped_job_prices_the_cap(self):
        jobs = JobSet.of([(1, 0.5)])
        ls = build_line_schedule(jobs, [2.0])
        a = ls.schedule.assignments[0]
        assert a.values.tolist() == [0.5] and a.support_end == 2.0
        # resource is never exhausted: all price mass sits on the cap
        assert ls.gamma.integral() == 0.0
        assert ls.beta[0](0.0) == pytest.approx(2.0)
        assert ls.beta[0](1.0) == pytest.approx(1.0)
        assert ls.beta[0].integral() == pytest.approx(2.0)

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

    def test_exact_twins_meet_slackness_and_duality(self):
        # parallel lines never cross, and equal priorities pack in job order
        twins = JobSet.of([(1, 0.5), (1, 0.8), (2, 0.3)])
        for alpha in ([1.0, 1.0, 1.0], [1.0, 1.5, 0.7], [2.0, 2.0, 0.0], [3.0, 3.0, 3.0]):
            ls = build_line_schedule(twins, alpha)
            assert check_slackness(ls, twins).max_violation() <= 1e-12
            q = duality_quantities(ls, twins)
            rhs = q.primal_cost + q.requirement_penalty + q.capacity_penalty
            assert q.volume_payoff == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert q.primal_cost == pytest.approx(
                q.requirement_penalty + q.capacity_penalty, rel=1e-12, abs=1e-12)


class TestScheduledVolumes:
    def test_zero_alpha_schedules_nothing(self):
        jobs = JobSet.of([(1, 0.5), (2, 0.8)])
        assert build_line_schedule(jobs, [0.0, 0.0]).scheduled_volumes.tolist() == [0.0, 0.0]

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
        alpha = solve_alpha(three_jobs, targets=[1.0, 4.0, 6.0], vol_tol=1e-8)
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

    def test_custom_targets(self):
        jobs = JobSet.of([(2.0, 0.5), (3.0, 0.8)])
        targets = [1.0, 1.5]
        alpha = solve_alpha(jobs, targets=targets)
        assert build_line_schedule(jobs, alpha).scheduled_volumes == pytest.approx(targets, abs=1e-8)

    def test_convergence_error_carries_residual(self):
        jobs = JobSet.of([(1.0, 0.5), (1.2, 0.7)])
        with pytest.raises(ConvergenceError) as err:
            solve_alpha(jobs, max_iters=0)
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
        with pytest.raises(ConvergenceError, match="volume residual") as err:
            solve_alpha(generate_random(8, 1), max_iters=1)
        assert err.value.iterations == 1 and err.value.residual > 1e-9
        assert err.value.packings == len(packed) > 1
        assert f"{len(packed)} packings" in str(err.value)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateVolumesError):
            solve_alpha(JobSet.of([(1, 0.5), (1, 0.6)]))

    @pytest.mark.parametrize("vol_tol", [0.0, -1.0, float("nan")])
    def test_rejects_a_vol_tol_that_is_not_positive(self, vol_tol):
        # a plain ContractError: the near-tie guard would divide by vol_tol
        with pytest.raises(ContractError, match="vol_tol must be positive") as err:
            solve_alpha(JobSet.of([(1, 0.5), (2, 0.6)]), vol_tol=vol_tol)
        assert not isinstance(err.value, DegenerateVolumesError)

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

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_larger_instances_meet_targets_and_strong_duality(self, n):
        for seed in (1, 2):
            jobs = generate_random(n, seed)
            alpha = solve_alpha(jobs, vol_tol=1e-8)
            ls = build_line_schedule(jobs, alpha)
            assert np.max(np.abs(ls.scheduled_volumes - jobs.volumes())) <= 1e-8
            q = duality_quantities(ls, jobs)
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
    def test_single_full_requirement(self):
        jobs = JobSet.of([(1, 1)])
        ls = build_line_schedule(jobs, [1.0])
        q = duality_quantities(ls, jobs)
        assert q.primal_cost == pytest.approx(0.5)
        assert q.volume_payoff == pytest.approx(1.0)
        assert q.requirement_penalty == 0.0
        assert q.capacity_penalty == pytest.approx(0.5)

    def test_single_capped(self):
        jobs = JobSet.of([(1, 0.5)])
        ls = build_line_schedule(jobs, [2.0])
        q = duality_quantities(ls, jobs)
        assert q.primal_cost == pytest.approx(1.0)
        assert q.volume_payoff == pytest.approx(2.0)
        assert q.requirement_penalty == pytest.approx(1.0)
        assert q.capacity_penalty == 0.0

    def test_worked_example(self, three_jobs):
        ls = build_line_schedule(three_jobs, ALPHA_EXPECTED)
        q = duality_quantities(ls, three_jobs)
        assert q.volume_payoff == pytest.approx(393.0 / 16.0, abs=1e-12)
        assert q.primal_cost == pytest.approx(393.0 / 32.0, rel=1e-12)

    def test_identities_on_random_instances(self):
        for seed in range(60):
            jobs = random_instance(seed, 8)
            rng = np.random.default_rng(seed + 777)
            alpha = rng.uniform(0.0, 1.5 / jobs.requirements().min(), len(jobs))
            ls = build_line_schedule(jobs, alpha)
            q = duality_quantities(ls, jobs)
            rhs = q.primal_cost + q.requirement_penalty + q.capacity_penalty
            assert q.volume_payoff == pytest.approx(rhs, rel=1e-6, abs=1e-9)
            assert q.primal_cost == pytest.approx(
                q.requirement_penalty + q.capacity_penalty, rel=1e-6, abs=1e-9)


class TestSlackness:
    def test_constructed_schedules_are_slack_free(self, three_jobs):
        ls = build_line_schedule(three_jobs, ALPHA_EXPECTED)
        report = check_slackness(ls, three_jobs)
        assert report.max_violation() <= 1e-9

    def test_bad_gamma_is_flagged(self):
        jobs = JobSet.of([(1, 0.5)])
        good = build_line_schedule(jobs, [2.0])
        bad_gamma = PiecewiseLinear(good.grid, [2.0], [-0.5])  # positive while idle
        bad = LineSchedule(good.schedule, good.alpha, good.beta, bad_gamma,
                           good.scheduled_volumes, good.grid, good.job_volumes)
        report = check_slackness(bad, jobs)
        assert report.capacity > 0.1

    def test_violations_are_read_exactly_at_interval_ends(self):
        # one job (1, 0.5) at alpha 2 runs at rate 0.5 on grid [0, 2); every
        # family is affine there, so its peak is its value at an end
        jobs = JobSet.of([(1, 0.5)])
        good = build_line_schedule(jobs, [2.0])

        def report(alpha, beta, gamma):
            return check_slackness(LineSchedule(
                good.schedule, np.array([alpha]), (PiecewiseLinear(good.grid, *beta),),
                PiecewiseLinear(good.grid, *gamma), good.scheduled_volumes, good.grid,
                good.job_volumes), jobs)

        # gamma (1 - 0.5) peaks at the left end, 2 * 0.5, and at the right, 1 * 0.5
        assert report(2.0, ([2.0], [-1.0]), ([2.0], [-0.5])).capacity == 1.0
        assert report(2.0, ([2.0], [-1.0]), ([0.0], [0.5])).capacity == 0.5
        # at alpha 2.5 the line 2.5 - t is still 0.5 when the grid ends
        assert report(2.5, ([2.5], [-1.0]), ([0.0], [0.0])).dual_feasibility == 0.5

    def test_volume_condition_uses_scheduled_volumes(self, three_jobs):
        ls = build_line_schedule(three_jobs, ALPHA_EXPECTED)
        assert check_slackness(ls, three_jobs).volume <= 1e-12


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
            g = ls.gamma
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
            assert check_slackness(ls, jobs).dual_feasibility <= 1e-9

    def test_completion_bounded_by_line_zero(self):
        for seed in range(25):
            jobs = random_instance(seed, 6)
            alpha = solve_alpha(jobs)
            ls = build_line_schedule(jobs, alpha)
            ct = ls.schedule.completion_times()
            assert np.all(ct <= alpha * jobs.volumes() + 1e-9)
