import dataclasses

import numpy as np
import pytest

from sharesched import (
    ContractError,
    InstanceError,
    Job,
    JobSet,
    LsApproxParams,
    PipelineError,
    StepFunction,
    build_line_schedule,
    best_schedule,
    fractional_completion_time,
    greedy,
    lower_bounds,
    ls_exact,
    lsapprox_report,
    subdivide,
    total_completion_time,
    validate_schedule,
)
from sharesched.cli import generate_random
from sharesched import lp as lpmod
from sharesched.lp import SLOTS, SlotWidthError, build_discretized_lp, solve_lp

from conftest import random_instance, volume_before


def reference_greedy_completions(jobs: JobSet) -> list[float]:
    """Greedy as a scalar loop over a list-based usage profile."""
    edges, usage = [0.0], []   # usage[k] holds on [edges[k], edges[k + 1])
    done = [0.0] * len(jobs)
    for j in sorted(range(len(jobs)), key=lambda j: (jobs[j].volume, j)):
        v, r = jobs[j].volume, jobs[j].requirement
        acc, k = 0.0, 0
        while k < len(usage):
            cap = min(r, max(1.0 - usage[k], 0.0))
            if cap > 0.0 and acc + cap * (edges[k + 1] - edges[k]) >= v:
                done[j] = edges[k] + (v - acc) / cap
                break
            acc += cap * (edges[k + 1] - edges[k])
            k += 1
        else:
            done[j] = edges[-1] + (v - acc) / r
            edges.append(done[j])
            usage.append(0.0)
        if done[j] < edges[k + 1]:   # split the interval the job ends in
            edges.insert(k + 1, done[j])
            usage.insert(k + 1, usage[k])
        for i in range(k + 1):
            usage[i] += min(r, max(1.0 - usage[i], 0.0))
    return done


class TestGreedy:
    def test_single_job(self):
        jobs = JobSet.of([(2.0, 0.5)])
        sched = greedy(jobs)
        a = sched.assignments[0]
        assert a.values.tolist() == [0.5] and a.support_end == 4.0

    def test_two_full_jobs_run_shortest_first(self):
        jobs = JobSet.of([(2.0, 1.0), (1.0, 1.0)])
        sched = greedy(jobs)
        assert sched.completion_times().tolist() == [3.0, 1.0]
        assert total_completion_time(jobs, sched) == 4.0

    def test_worked_example(self, three_jobs):
        sched = greedy(three_jobs)
        assert sched.completion_times() == pytest.approx([4 / 3, 26 / 3, 73 / 6])
        assert total_completion_time(three_jobs, sched) == pytest.approx(133 / 6, rel=1e-12)
        # the waiting job only starts once capacity frees up
        assert sched.assignments[2](1.0) == 0.0
        assert sched.assignments[2](2.0) == pytest.approx(0.5)
        assert sched.assignments[2](9.0) == pytest.approx(2 / 3)

    def test_feasible_on_random_instances(self):
        for seed in range(50):
            jobs = random_instance(seed, 10)
            sched = greedy(jobs)
            assert validate_schedule(jobs, sched).feasible
            want = reference_greedy_completions(jobs)
            assert sched.completion_times() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("pairs", [
        # job 2 ends one ulp after job 0
        [(1.0, 0.11547819846894582), (10.0, 1.0), (1.0, 0.11547819846894582),
         (0.1, 0.01), (0.1, 0.74989420933245587)],
        # job 2 ends 2.3e-10 after job 1, about 2e-13 of the usage's end
        [(1000.0, 1.0), (1.0, 0.1), (1.0000000000230258, 0.1)],
    ])
    def test_no_overlap_on_a_narrow_interval(self, pairs):
        # a usage that absorbed the narrow interval hid it from the job
        # packed last, which ran on it too
        jobs = JobSet.of(pairs)
        report = validate_schedule(jobs, greedy(jobs))
        assert report.feasible, report.violations

    def test_volume_left_below_rounding_ends_at_the_last_edge(self):
        # job 2's first interval fills 1 - 1.1e-16 of its unit volume; the
        # rest adds less than half an ulp to the end, which once gave a
        # zero-width last interval and a ContractError
        jobs = JobSet.of([(1.0, 1.0), (1.0, 0.28902639100224503), (1.0, 0.28902639100224503)])
        sched = greedy(jobs)
        assert validate_schedule(jobs, sched).feasible
        assert sched.completion_times()[2] == sched.completion_times()[1]

    def test_completion_time_past_the_float_range_is_an_instance_error(self):
        # job 1 starts when job 0 ends at 1e308; this once raised a usage
        # error, "edges and values must be finite", from the step function
        with pytest.raises(InstanceError) as info:
            greedy(JobSet.of([(1e308, 1.0), (1.5e308, 1.0)]))
        assert str(info.value) == "job 1's greedy completion time overflows the float range"

    @pytest.mark.parametrize("pairs", [[(1e308, 1), (1, 1)], [(1e200, 1)]])
    def test_fractional_completion_time_of_huge_volumes_is_finite(self, pairs):
        # no edge is squared, and a RuntimeWarning fails the test
        jobs = JobSet.of(pairs)
        sched = greedy(jobs)
        per_job, total = fractional_completion_time(jobs, sched)
        assert np.isfinite(total)
        # the huge job runs at rate 1 on one piece, so its mean completion is
        # that piece's midpoint
        assert per_job[0] == 0.5 * sched.completion_times()[0]

    def test_at_most_one_partial_job_per_interval(self):
        for seed in range(30):
            jobs = random_instance(seed, 8)
            sched = greedy(jobs)
            grid = np.unique(np.concatenate([a.edges for a in sched.assignments]))
            mids = 0.5 * (grid[:-1] + grid[1:])
            for t in mids:
                rates = np.array([a(t) for a in sched.assignments])
                started = np.array([volume_before(a, t) > 1e-12 for a in sched.assignments])
                partial = np.flatnonzero(
                    (rates > 1e-12) & (rates < jobs.requirements() - 1e-9))
                assert partial.size <= 1
                if partial.size:
                    vol = jobs.volumes()
                    assert vol[partial[0]] >= vol[started].max() - 1e-12


class TestLowerBounds:
    def test_single_job(self):
        b = lower_bounds(JobSet.of([(2.0, 0.5)]))
        assert b.squashed_area == 2.0
        assert b.total_length == 4.0
        assert b.fractional_plus_half_length is None
        assert b.best == 4.0

    def test_worked_example(self, three_jobs):
        b = lower_bounds(three_jobs)
        assert b.squashed_area == pytest.approx(17.0)
        assert b.total_length == pytest.approx(55.0 / 3.0)

    def test_unit_requirement_pair_is_tight(self):
        jobs = JobSet.of([(1, 1), (2, 1)])
        b = lower_bounds(jobs)
        assert b.squashed_area == pytest.approx(4.0)
        assert total_completion_time(jobs, greedy(jobs)) == pytest.approx(4.0)

    def test_greedy_bound(self):
        for seed in range(200):
            jobs = random_instance(seed, 12)
            cost = total_completion_time(jobs, greedy(jobs))
            b = lower_bounds(jobs)
            assert cost <= (b.squashed_area + b.total_length) * (1 + 1e-9)


class TestLsExact:
    def test_single_job_gap_is_two(self):
        jobs = JobSet.of([(1.0, 0.4)])
        sched, alpha, q = ls_exact(jobs)
        p = jobs[0].processing_time
        assert total_completion_time(jobs, sched) == pytest.approx(p)
        assert q.primal_cost == pytest.approx(p / 2)

    def test_worked_example(self, three_jobs):
        sched, alpha, q = ls_exact(three_jobs)
        assert sched.completion_times() == pytest.approx([1.5, 9.75, 11.625], abs=1e-9)
        assert total_completion_time(three_jobs, sched) == pytest.approx(22.875, abs=1e-9)

    def test_matches_fine_lp_objective(self):
        for seed in (3, 9):
            jobs = random_instance(seed, 5)
            _, _, q = ls_exact(jobs)
            horizon = len(jobs) * jobs.max_processing_time()
            inst = build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / 2048)
            sol = solve_lp(inst)
            assert sol.objective == pytest.approx(q.primal_cost, rel=0.02)

    def test_gap_bound_on_random_instances(self):
        for seed in range(40):
            jobs = random_instance(seed, 6)
            sched, _, q = ls_exact(jobs)
            assert total_completion_time(jobs, sched) <= 2 * q.primal_cost * (1 + 1e-6)


class TestSubdivide:
    def test_everything_long_heavy(self, three_jobs):
        sub = subdivide(three_jobs, 0.125)
        assert sub.long_heavy == frozenset({0, 1, 2})
        assert not sub.light and not sub.short_heavy

    def test_light_job(self):
        jobs = JobSet.of([(1.0, 0.01), (9.0, 1.0)])
        sub = subdivide(jobs, 0.1)
        assert sub.light == frozenset({0})
        assert sub.long_heavy == frozenset({1})

    def test_short_heavy_boundary_inclusive(self):
        mu, n = 0.5, 2
        p_max = 100.0
        short_p = (mu / n) ** 2 * p_max  # sits exactly on the threshold
        jobs = JobSet.of([(short_p * 0.9, 0.9), (p_max * 0.8, 0.8)])
        sub = subdivide(jobs, mu)
        assert 0 in sub.short_heavy
        assert 1 in sub.long_heavy

    def test_mu_range_checked(self, three_jobs):
        with pytest.raises(ContractError):
            subdivide(three_jobs, 0.0)
        with pytest.raises(ContractError):
            subdivide(three_jobs, 1.0)


class TestLsApproxParams:
    def test_mu_rounding(self):
        assert LsApproxParams(0.5).mu == pytest.approx(1.0 / 40.0)
        assert LsApproxParams(1.0).mu == pytest.approx(1.0 / 20.0)
        # 1/mu integral and mu < 1 even for generous epsilon
        p = LsApproxParams(100.0)
        assert p.mu == 0.5
        inv = 1.0 / LsApproxParams(0.37).mu
        assert inv == pytest.approx(round(inv))

    def test_rejects_bad_values(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ContractError, match="epsilon must be positive"):
                LsApproxParams(bad)
            with pytest.raises(ContractError, match="slot width must be positive"):
                LsApproxParams(0.5, slot_width=bad)


def chained_stretch(f: StepFunction, scale: float, squash: float) -> StepFunction:
    """The pipeline's stretch as three step functions: stretch in time,
    squash the values, stretch in time by 1 / squash."""
    g = StepFunction(f.edges * scale, f.values)
    g = StepFunction(g.edges, g.values * squash)
    return StepFunction(g.edges * (1.0 / squash), g.values)


def volume_for_scale(v: float, scale: float) -> float:
    """A scheduled volume c near ``v / scale``: one a few ulps away with
    ``v / c == scale`` in floating point if there is one."""
    c = v / scale
    for _ in range(8):
        if v / c == scale:
            return c
        c = np.nextafter(c, 0.0 if v / c < scale else np.inf)
    return v / scale


class TestLsApprox:
    def test_worked_example_all_long_heavy(self, three_jobs):
        params = LsApproxParams(0.5, slot_width=27.0 / 512.0)
        sched, info = lsapprox_report(three_jobs, params)
        assert info.subdivision.long_heavy == frozenset({0, 1, 2})
        assert validate_schedule(three_jobs, sched).feasible
        assert np.all(sched.volumes() >= three_jobs.volumes() * (1 - 1e-9))
        usage = sched.total_usage()
        assert usage.values.max() <= 1.0 - info.mu + 1e-12

    def test_light_job_runs_from_time_zero(self):
        jobs = JobSet.of([(0.5, 0.002), (9.0, 1.0)])
        sched, info = lsapprox_report(jobs, LsApproxParams(0.5))
        assert 0 in info.subdivision.light
        a = sched.assignments[0]
        want = min(info.mu / 2, 0.002)
        assert a.edges[0] == 0.0
        assert a.values.tolist() == [pytest.approx(want)]
        assert a.support_end == pytest.approx(0.5 / want)

    def test_empty_long_heavy_uses_at_most_mu(self):
        # every job light: total usage stays within the reserved share
        jobs = JobSet.of([(0.1, 0.001), (0.2, 0.002), (0.3, 0.003)])
        sched, info = lsapprox_report(jobs, LsApproxParams(0.5))
        assert not info.subdivision.long_heavy
        usage = sched.total_usage()
        assert usage.values.max() <= info.mu + 1e-12
        assert validate_schedule(jobs, sched).feasible

    def test_exact_twin_long_heavy_jobs_get_a_valid_schedule(self):
        jobs = JobSet.of([(1.0, 0.5), (1.0, 0.8)])
        assert validate_schedule(jobs, lsapprox_report(jobs, LsApproxParams(0.5))[0]).feasible

    def test_near_twin_long_heavy_jobs_stay_feasible(self):
        # twins 1e-12 apart cross near t = 1e12, so the line schedule's grid
        # reaches that far and its intervals before it are narrow by
        # comparison; when step functions absorbed narrow intervals, seeds
        # 1, 4, 6 and 14 came back with volume deficits.  Usage is also read
        # pointwise on the merged grid, where jobs that absorbed one narrow
        # interval differently overlapped (seed 13 did).
        for seed in (1, 4, 6, 13, 14):
            base = list(generate_random(6, seed))
            twin = Job(base[0].volume * (1 + 1e-12), base[1].requirement)
            jobs = JobSet([base[0], twin] + base[2:])
            sched = lsapprox_report(jobs, LsApproxParams(0.5))[0]
            assert validate_schedule(jobs, sched).feasible
            grid = np.unique(np.concatenate([a.edges for a in sched.assignments]))
            mids = 0.5 * (grid[:-1] + grid[1:])
            assert sum(a(mids) for a in sched.assignments).max() <= 1.0 + 1e-9

    def test_slot_width_checked_without_long_heavy_jobs(self):
        # two light jobs, horizon 2 * 1000: the LP is built though it has no
        # job, so a width that does not divide the horizon is still rejected
        jobs = JobSet.of([(1.0, 0.001), (2.0, 0.002)])
        with pytest.raises(SlotWidthError):
            lsapprox_report(jobs, LsApproxParams(0.5, slot_width=0.3))
        sched, info = lsapprox_report(jobs, LsApproxParams(0.5))
        assert info.subdivision.long_heavy == frozenset()
        assert (info.horizon, info.slot_width) == (2000.0, 2000.0 / SLOTS) and info.lp_rounds == 0
        assert validate_schedule(jobs, sched).feasible

    def test_guarantee_width_reported(self, three_jobs):
        params = LsApproxParams(0.5, slot_width=27.0 / 512.0)
        _, info = lsapprox_report(three_jobs, params)
        assert info.guarantee_slot_width == pytest.approx(27.0 * (info.mu / 3) ** 6)

    def test_feasible_on_random_instances(self):
        for seed in range(20):
            jobs = random_instance(seed, 6, r_floor=0.002)
            horizon = len(jobs) * jobs.max_processing_time()
            sched = lsapprox_report(jobs, LsApproxParams(0.5, slot_width=horizon / 256))[0]
            report = validate_schedule(jobs, sched)
            assert report.feasible
            assert np.all(sched.volumes() >= jobs.volumes() * (1 - 1e-6))

    def test_stretch_never_ends_past_the_lp_horizon(self):
        # an optimal LP dual can leave a long-heavy job a sliver of volume;
        # on this instance one such dual asks for a stretch of about 1e14
        jobs = generate_random(24, 2)
        try:
            sched, info = lsapprox_report(jobs, LsApproxParams(0.5))
        except PipelineError as exc:
            assert exc.stage == "scale"
            return
        assert validate_schedule(jobs, sched).feasible
        lh = sorted(info.subdivision.long_heavy)
        assert max(sched.assignments[i].support_end for i in lh) <= info.horizon


    def test_volumes_past_the_slope_range_fail_the_lp_stage(self):
        # 1 / v_j is inf for both jobs; the pipeline once went on to a nan
        # stretch, or to an overflow in the line-schedule kernel
        jobs = JobSet.of([(1e-310, 1), (2e-310, 1)])
        with pytest.raises(PipelineError) as err:
            lsapprox_report(jobs, LsApproxParams(0.5))
        assert err.value.stage == "lp"
        assert str(err.value) == ("lp: the slope 1 / v_j of long-heavy job(s) 0, 1 "
                                  "passes the float range")
        _, report = best_schedule(jobs, LsApproxParams(0.5))
        assert report.chosen == "greedy" and report.line_error.startswith("lp: the slope")

    def test_edges_merged_by_the_stretch_fail_the_scale_stage(self, merging_stretch):
        # this once escaped as a plain ContractError from StepFunction
        with pytest.raises(PipelineError) as err:
            lsapprox_report(merging_stretch, LsApproxParams(0.5))
        assert err.value.stage == "scale"
        assert str(err.value) == ("scale: stretching job 2 by 1.57176546204651 and "
                                  "1.0256410256410258 merges two of its edges")

    @pytest.mark.parametrize("scale", [1.0, np.nextafter(1.0, 2.0), 1.37, 2.0, 7.0])
    def test_stretch_matches_the_chained_reference(self, monkeypatch, scale):
        # the LP's line schedule is kept; only its volumes are set so that
        # the pipeline stretches by `scale`, or a few ulps off it
        built = []

        def build_for_scale(lh_jobs, alpha):
            ls = build_line_schedule(lh_jobs, alpha)
            vols = lh_jobs.volumes()
            vbar = vols.copy()
            vbar[0] = volume_for_scale(vols[0], scale)
            built.append((ls, float(np.max(vols / vbar))))
            return dataclasses.replace(ls, scheduled_volumes=vbar)

        monkeypatch.setattr("sharesched.tct.build_line_schedule", build_for_scale)
        params = LsApproxParams(0.5)
        squash = 1.0 - params.mu
        for n in range(1, 9):
            for seed in (1, 2, 3):
                jobs = generate_random(n, seed)
                built.clear()
                sched, info = lsapprox_report(jobs, params)
                [(ls, used)] = built
                assert info.scale_factor == used
                if scale <= np.nextafter(1.0, 2.0):
                    assert used == scale
                lh = sorted(info.subdivision.long_heavy)
                for idx, f in zip(lh, ls.schedule.assignments):
                    want = chained_stretch(f, used, squash)
                    got = sched.assignments[idx]
                    assert got.edges.tobytes() == want.edges.tobytes()
                    assert got.values.tobytes() == want.values.tobytes()


class TestBestSchedule:
    def test_worked_example_prefers_greedy(self, three_jobs):
        sched, report = best_schedule(three_jobs)
        assert report.chosen == "greedy"
        assert report.greedy_cost == pytest.approx(133 / 6, rel=1e-12)
        assert report.line_cost == pytest.approx(22.875, abs=1e-9)
        assert report.bounds.fractional_plus_half_length == pytest.approx(
            393 / 32 + 55 / 6, rel=1e-9)

    def test_single_job_either_candidate(self):
        jobs = JobSet.of([(1.0, 0.4)])
        sched, report = best_schedule(jobs)
        assert total_completion_time(jobs, sched) == pytest.approx(2.5)

    def test_two_unit_jobs(self):
        jobs = JobSet.of([(1, 1), (2, 1)])
        sched, report = best_schedule(jobs)
        assert total_completion_time(jobs, sched) == pytest.approx(4.0)  # 1 + 3

    def test_ls_failure_falls_back_to_greedy(self):
        jobs = JobSet.of([(1.0, 0.5), (1.0, 0.8)])  # degenerate volumes
        sched, report = best_schedule(jobs)
        assert report.chosen == "greedy"
        assert report.line_cost is None
        assert report.line_error is not None
        assert validate_schedule(jobs, sched).feasible

    def test_lsapprox_failure_falls_back_to_greedy(self, merging_stretch):
        sched, report = best_schedule(merging_stretch, LsApproxParams(0.5))
        assert (report.chosen, report.line_branch) == ("greedy", "lsapprox")
        assert report.line_cost is None
        assert report.line_error.startswith("scale: ")
        assert validate_schedule(merging_stretch, sched).feasible

    @pytest.mark.parametrize("eps", [0.3, 0.5])
    def test_runs_the_approximation_at_the_epsilon_it_is_given(self, eps):
        params = LsApproxParams(eps)
        for n, seed in ((2, 3), (4, 1), (5, 1), (6, 3)):
            jobs = generate_random(n, seed)
            _, report = best_schedule(jobs, params)
            assert report.line_branch == "lsapprox"
            assert report.line_cost == total_completion_time(
                jobs, lsapprox_report(jobs, params)[0])

    def test_approximation_chain(self):
        for seed in range(60):
            jobs = random_instance(seed, 8)
            _, report = best_schedule(jobs)
            cost = min(report.greedy_cost,
                       report.line_cost if report.line_cost is not None else np.inf)
            assert cost <= 1.5 * report.bounds.best * (1 + 1e-6)


class TestHalfVolumeAfterFractionalCompletion:
    def test_on_ascending_greedy_schedules(self):
        checked = 0
        for seed in range(50):
            jobs = random_instance(seed, 6)
            sched = greedy(jobs)
            ascending = all(
                np.all(np.diff(a.values) >= -1e-12) for a in sched.assignments
                if a.values.size
            )
            if not ascending:
                continue
            per, _ = fractional_completion_time(jobs, sched)
            for job, a, cf in zip(jobs, sched.assignments, per):
                tail = a.integral() - volume_before(a, cf)
                assert tail >= job.volume / 2 - 1e-9
            checked += 1
        assert checked >= 20


class TestPipelineStages:
    def test_an_lp_failure_is_the_lp_stage(self, three_jobs, monkeypatch):
        monkeypatch.setattr(lpmod, "CERTIFICATE_TOL", -1.0)
        monkeypatch.setattr(lpmod, "MAX_ROUNDS", 1)
        with pytest.raises(PipelineError) as err:
            lsapprox_report(three_jobs, LsApproxParams(0.5))
        assert err.value.stage == "lp" and isinstance(err.value.__cause__, lpmod.SimplexError)
        assert str(err.value) == f"lp: {err.value.__cause__}"

    def test_refused_intercepts_are_the_line_schedule_stage(self, three_jobs, monkeypatch):
        solve = lpmod.solve_lp
        monkeypatch.setattr(lpmod, "solve_lp", lambda inst: dataclasses.replace(
            solve(inst), alpha=-np.ones(inst.n_jobs)))
        with pytest.raises(PipelineError) as err:
            lsapprox_report(three_jobs, LsApproxParams(0.5))
        assert err.value.stage == "line-schedule"
        assert isinstance(err.value.__cause__, ContractError)
        assert str(err.value) == "line-schedule: alpha entries must be finite and nonnegative"
