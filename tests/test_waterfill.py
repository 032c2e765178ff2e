import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from sharesched import core
from sharesched import waterfill
from sharesched import (
    COMPETITIVE_RATIO,
    ContractError,
    InstanceError,
    Job,
    JobSet,
    Schedule,
    StepFunction,
    UniversalSchedule,
    adversarial_instance,
    extendability_check,
    flatter_than_universal,
    greedy,
    is_flatter,
    makespan,
    optimal_makespan,
    upper_resource_distribution,
    validate_schedule,
    waterfill_online,
    waterfill_step,
)
from sharesched.cli import generate_random

from conftest import left_end_sum, prefix_schedules, random_instance

E = math.e


def scan_level(usage, job, deadline, tol=1e-9):
    """Reference water level: every candidate level scanned in order.

    Returns the edges and usage levels before the deadline and the smallest
    sufficient level, or None when the job does not fit.  ``waterfill_step``
    must agree with it bit for bit.
    """
    edges, widths, lv = core._pieces_before(usage, deadline)
    r, v = job.requirement, job.volume

    def volume_below(h):
        return float(np.dot(widths, np.minimum(r, np.maximum(h - lv, 0.0))))

    if volume_below(1.0) < v - tol * max(1.0, v):
        return None
    cands = np.unique(np.concatenate([lv, lv + r, [0.0, 1.0]]))
    cands = cands[(cands >= 0.0) & (cands <= 1.0)]
    level = 1.0
    prev_h, prev_vol = cands[0], volume_below(cands[0])
    if prev_vol >= v:
        level = float(prev_h)
    else:
        for h in cands[1:]:
            val = volume_below(h)
            if val >= v:
                level = float(prev_h + (v - prev_vol) * (h - prev_h) / (val - prev_vol)) \
                    if val > prev_vol else float(h)
                break
            prev_h, prev_vol = h, val
    return edges, lv, level


def scan_waterfill(jobs, ratio=COMPETITIVE_RATIO):
    """Reference water-filling through ``scan_level``, folding the usage by
    ``left_end_sum``.  Returns the levels, the assignments and the usage
    after each placed job, stopping at the first job that does not fit."""
    usage = StepFunction.zero()
    levels, assignments, usages = [], [], []
    total = p_max = 0.0
    for job in jobs:
        total += job.volume
        p_max = max(p_max, job.processing_time)
        found = scan_level(usage, job, ratio * max(total, p_max))
        if found is None:
            break
        edges, lv, level = found
        assignment = StepFunction(edges, np.minimum(job.requirement, np.maximum(level - lv, 0.0)))
        usage = left_end_sum([usage, assignment])
        levels.append(level)
        assignments.append(assignment)
        usages.append(usage)
    return levels, assignments, usages


class TestOptimalMakespan:
    def test_single_long_job(self):
        value, sched = optimal_makespan(JobSet.of([(2.0, 0.5)]))
        assert value == 4.0
        a = sched.assignments[0]
        assert a.values.tolist() == [0.5] and a.support_end == 4.0

    def test_three_jobs(self, three_jobs):
        value, sched = optimal_makespan(three_jobs)
        assert value == pytest.approx(11.0)   # max(volume sum, longest job)
        assert validate_schedule(three_jobs, sched).feasible
        assert makespan(sched) == pytest.approx(11.0)
        assert np.allclose(sched.volumes(), three_jobs.volumes())

    def test_volume_bound_dominates(self):
        jobs = JobSet.of([(1, 1), (1, 1)])
        value, sched = optimal_makespan(jobs)
        assert value == 2.0
        for a in sched.assignments:
            assert a.values.tolist() == [0.5] and a.support_end == 2.0

    def test_empty(self):
        value, sched = optimal_makespan(JobSet())
        assert value == 0.0 and sched.n_jobs == 0


class TestWaterfillStep:
    def test_pour_into_empty(self):
        out = waterfill_step(StepFunction.zero(), Job(1, 0.5), 2.0)
        assert out.ok and out.level == pytest.approx(0.5)
        a = out.assignment
        assert a.values.tolist() == [0.5] and a.support_end == 2.0

    def test_insufficient_deadline(self):
        out = waterfill_step(StepFunction.zero(), Job(1, 0.5), 1.0)
        assert not out.ok
        assert out.deficit == pytest.approx(0.5)

    def test_fills_leftover_area(self):
        busy = StepFunction.constant(1.0, 1.0)
        out = waterfill_step(busy, Job(1, 1), 2.0)
        assert out.ok and out.level == pytest.approx(1.0)
        a = out.assignment
        assert a(0.5) == 0.0 and a(1.5) == pytest.approx(1.0)

    def test_level_is_minimal(self):
        for seed in range(20):
            jobs = random_instance(seed, 5)
            usage = StepFunction.zero()
            total, p_max = 0.0, 0.0
            for job in jobs:
                total += job.volume
                p_max = max(p_max, job.processing_time)
                deadline = COMPETITIVE_RATIO * max(total, p_max)
                out = waterfill_step(usage, job, deadline)
                assert out.ok
                # a slightly smaller level no longer fits the volume
                h = out.level - 1e-6
                if h > 0:
                    edges = np.append(usage.edges[usage.edges < deadline], deadline)
                    lv = usage.values[: edges.size - 1]
                    lv = np.append(lv, np.zeros(edges.size - 1 - lv.size))
                    got = float(np.dot(np.diff(edges),
                                       np.minimum(job.requirement, np.maximum(h - lv, 0.0))))
                    assert got < job.volume
                usage = usage + out.assignment

    def test_level_matches_the_candidate_scan_at_candidate_volumes(self):
        # a volume equal to the direct sum at a candidate level is the boundary
        # the search must hit: that candidate is sufficient, the one below is
        # not.  Staircase usages, and the same levels unsorted.
        for staircase in (True, False):
            rng = np.random.default_rng(5)
            for _ in range(300):
                k = int(rng.integers(1, 12))
                edges = np.append(0.0, np.cumsum(rng.uniform(0.05, 2.0, k)))
                heights = rng.uniform(0.0, 1.0, k)
                usage = StepFunction(edges, np.sort(heights)[::-1] if staircase else heights)
                r = float(rng.uniform(0.05, 1.0))
                deadline = float(edges[-1] * rng.uniform(0.5, 2.0))
                _, widths, lv = core._pieces_before(usage, deadline)
                cands = np.unique(np.concatenate([lv, lv + r, [1.0]]))
                cands = cands[cands <= 1.0]
                h = cands[int(rng.integers(0, cands.size))]
                v = float(np.dot(widths, np.minimum(r, np.maximum(h - lv, 0.0))))
                if v <= 0.0:
                    continue
                job = Job(v, r)
                out = waterfill_step(usage, job, deadline)
                _, _, level = scan_level(usage, job, deadline)
                assert out.ok and out.level == level

    def test_level_matches_the_candidate_scan_on_large_usages(self):
        # usages of 40-600 pieces bisect on single candidates before the
        # block of the rest; the last one has more pieces than the block
        # budget, so its search bisects all the way
        budget = waterfill.BLOCK_ENTRIES
        kinds = set()
        for staircase in (True, False):
            rng = np.random.default_rng(9)
            sizes = [int(k) for k in rng.integers(40, 601, 14)] + [budget + 77]
            for k in sizes:
                edges = np.append(0.0, np.cumsum(rng.uniform(0.05, 2.0, k)))
                heights = rng.uniform(0.0, 1.0, k)
                usage = StepFunction(edges, np.sort(heights)[::-1] if staircase else heights)
                r = float(rng.uniform(0.05, 1.0))
                deadline = float(edges[-1] * rng.uniform(0.5, 1.5))
                _, widths, lv = core._pieces_before(usage, deadline)
                cands = np.unique(np.concatenate([lv, lv + r, [0.0, 1.0]]))
                cands = cands[(cands >= 0.0) & (cands <= 1.0)]
                assert cands.size * lv.size > budget
                kinds.add(lv.size > budget)
                # the direct sum at a candidate (the boundary), and halfway to
                # the one below, where the level depends on both sums
                for i in rng.integers(1, cands.size, 4):
                    below, at = (float(np.dot(widths, np.minimum(r, np.maximum(h - lv, 0.0))))
                                 for h in cands[i - 1:i + 1])
                    for v in (at, 0.5 * (below + at)):
                        if v <= 0.0:
                            continue
                        job = Job(v, r)
                        out = waterfill_step(usage, job, deadline)
                        _, _, level = scan_level(usage, job, deadline)
                        assert out.ok and out.level == level
        assert kinds == {False, True}

    @staticmethod
    def _step_is_the_scan(usage, job, deadline):
        """The job fits, and waterfill_step's level and assignment are the
        scan's, bit for bit; returns the level."""
        out = waterfill_step(usage, job, deadline)
        found = scan_level(usage, job, deadline)
        assert out.ok and found is not None
        edges, lv, level = found
        want = StepFunction(edges, np.minimum(job.requirement, np.maximum(level - lv, 0.0)))
        assert np.float64(out.level).tobytes() == np.float64(level).tobytes()
        assert out.assignment.edges.tobytes() == want.edges.tobytes()
        assert out.assignment.values.tobytes() == want.values.tobytes()
        return level

    @staticmethod
    def _candidate_volumes(usage, r, deadline, hs):
        """The volume below each level in ``hs`` and halfway to the next."""
        _, widths, lv = core._pieces_before(usage, deadline)
        sums = [float(np.dot(widths, np.minimum(r, np.maximum(h - lv, 0.0)))) for h in hs]
        return [v for pair in zip(sums, sums[1:]) for v in (pair[0], 0.5 * sum(pair))] + sums[-1:]

    def test_level_matches_the_candidate_scan_below_zero_and_above_one(self):
        # a caller's usage may sit below 0 or above 1: those candidates clip
        # to 0.0 or 1.0 and repeat the two the step adds; a volume reached
        # at 0 already (a negative level) gives level 0.0
        rng = np.random.default_rng(11)
        at_zero = 0
        for _ in range(150):
            k = int(rng.integers(1, 12))
            edges = np.append(0.0, np.cumsum(rng.uniform(0.05, 2.0, k)))
            usage = StepFunction(edges, rng.uniform(-1.5, 1.3, k))
            r = float(rng.uniform(0.05, 1.0))
            deadline = float(edges[-1] * rng.uniform(0.5, 2.0))
            _, _, lv = core._pieces_before(usage, deadline)
            hs = np.unique(np.clip(np.concatenate([lv, lv + r, [0.0, 1.0]]), 0.0, 1.0))
            for v in self._candidate_volumes(usage, r, deadline, hs):
                if v > 0.0:
                    at_zero += self._step_is_the_scan(usage, Job(v, r), deadline) == 0.0
        assert at_zero > 10

    def test_level_matches_the_candidate_scan_on_repeated_levels(self):
        # levels that repeat 0.0 and 1 - r exactly give candidates that repeat
        # 0.0, r, 1 - r and 1.0; volumes at each repeated candidate's sum, on
        # usages small enough for one block and large enough to bisect
        budget = waterfill.BLOCK_ENTRIES
        rng = np.random.default_rng(13)
        bisected = repeated = 0
        for k in [int(x) for x in rng.integers(2, 12, 40)] + [300, 450, 700]:
            for r in (0.25, 0.5, 0.75, float(rng.uniform(0.05, 1.0))):
                pool = np.array([0.0, 1.0 - r, float(rng.uniform(0.0, 1.0))])
                edges = np.append(0.0, np.cumsum(rng.uniform(0.05, 2.0, k)))
                usage = StepFunction(edges, pool[rng.integers(0, 3, k)])
                deadline = float(edges[-1] * rng.uniform(0.8, 1.5))
                _, _, lv = core._pieces_before(usage, deadline)
                cands = np.clip(np.concatenate([lv, lv + r, [0.0, 1.0]]), 0.0, 1.0)
                repeated += np.unique(cands).size + 3 <= cands.size
                bisected += cands.size * lv.size > budget
                hs = np.unique(np.concatenate([pool, pool + r, [1.0]]).clip(0.0, 1.0))
                for v in self._candidate_volumes(usage, r, deadline, hs):
                    if v > 0.0:
                        self._step_is_the_scan(usage, Job(v, r), deadline)
        assert repeated >= 120 and bisected >= 12

    def test_block_sums_are_the_single_dots(self):
        # the premise of the block search: np.vecdot sums each row as np.dot
        # does, byte for byte, at every row length it meets, and a row sums
        # alike alone (a bisection probe) and in a block
        rng = np.random.default_rng(2)
        for k in range(1, 3001):
            levels = rng.uniform(0.0, 1.0, k)
            widths = rng.uniform(1e-3, 2.0, k)
            hs = np.sort(rng.uniform(0.0, 1.0, 3))
            rows = np.minimum(0.4, np.maximum(hs[:, None] - levels, 0.0))
            want = [np.dot(widths, row) for row in rows]
            sums = np.vecdot(rows, widths)
            assert sums.tobytes() == np.array(want).tobytes()
            assert np.vecdot(rows[1:2], widths).tobytes() == sums[1:2].tobytes()

    def test_failure_over_the_budget_reports_the_capacity_deficit(self):
        # every probe falls short, so the search bisects up to level 1.0,
        # whose sum is the capacity the deficit is measured from
        rng = np.random.default_rng(4)
        k = 600
        edges = np.append(0.0, np.cumsum(rng.uniform(0.05, 2.0, k)))
        usage = StepFunction(edges, np.sort(rng.uniform(0.0, 1.0, k))[::-1])
        deadline, r = float(edges[-1]), 0.3
        _, widths, lv = core._pieces_before(usage, deadline)
        assert 2 * lv.size * lv.size > waterfill.BLOCK_ENTRIES
        capacity = float(np.dot(widths, np.minimum(r, np.maximum(1.0 - lv, 0.0))))
        v = 2.0 * capacity
        out = waterfill_step(usage, Job(v, r), deadline)
        assert not out.ok and out.deficit == v - capacity

    def test_staircase_preserved(self):
        # nonincreasing total usage stays nonincreasing after each pour
        for seed in range(20):
            jobs = random_instance(seed, 8)
            run = waterfill_online(jobs)
            assert run.ok
            for sched in prefix_schedules(run):
                usage = sched.total_usage()
                assert np.all(np.diff(usage.values) <= 1e-12)

    def test_flatness_dominance(self):
        # when R is flatter than S and S accepts the job by C, so does R,
        # and the pour keeps R at least as flat as the poured S
        checked = 0
        for seed in range(40):
            jobs = random_instance(seed, 5)
            run = waterfill_online(jobs)
            if not run.ok:
                continue
            flat = run.final_schedule()
            from sharesched.tct import greedy

            bumpy = greedy(jobs)
            if not is_flatter(flat, bumpy):
                continue
            rng = np.random.default_rng(seed + 10_000)
            job = Job(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 1.0)))
            deadline = max(makespan(bumpy), makespan(flat)) + job.processing_time + 1.0
            poured_s = waterfill_step(bumpy.total_usage(), job, deadline)
            if not poured_s.ok:
                continue
            poured_r = waterfill_step(flat.total_usage(), job, deadline)
            assert poured_r.ok
            assert is_flatter(Schedule(flat.assignments + (poured_r.assignment,)),
                              Schedule(bumpy.assignments + (poured_s.assignment,)))
            checked += 1
        assert checked >= 10


class TestWaterfillOnline:
    def test_two_unit_jobs(self):
        run = waterfill_online(JobSet.of([(1, 1), (1, 1)]))
        assert run.ok
        first = run.final_schedule().assignments[0]
        assert first.values.tolist() == pytest.approx([(E - 1.0) / E])
        assert first.support_end == pytest.approx(E / (E - 1.0))
        assert makespan(run.final_schedule()) <= COMPETITIVE_RATIO * 2.0 + 1e-9

    def test_empty_run(self):
        run = waterfill_online(JobSet())
        assert run.ok and run.final_schedule() == Schedule.empty(0) and run.failure_index is None

    @pytest.mark.parametrize("pairs,cause", [
        # the prefix optimum, the total volume, overflows
        ([(1e308, 1.0), (1.5e308, 1.0)], "job 1's target completion time"),
        # the optimum is finite, and ratio times it is not
        ([(1.5e308, 1.0)], "job 0's target completion time"),
    ])
    def test_target_past_the_float_range_is_an_instance_error(self, pairs, cause):
        # the step once ran to its deadline inf: a RuntimeWarning in the
        # level search, then a ContractError from the step function
        with pytest.raises(InstanceError) as info:
            waterfill_online(JobSet.of(pairs))
        assert str(info.value).startswith(cause)
        assert str(info.value).endswith("overflows the float range")

    def test_low_ratio_fails_on_adversarial_family(self):
        run = waterfill_online(adversarial_instance(200), ratio=1.55)
        assert run.failure_index is not None
        assert run.failure_deficit > 0.0

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ContractError):
            waterfill_online(JobSet(), ratio=0.9)

    def test_usage_is_folded_once_per_job(self, monkeypatch):
        # water-filling and greedy each add one assignment to the usage so
        # far per job, instead of summing every earlier assignment again
        sizes = []
        real = core.sum_steps
        monkeypatch.setattr(core, "sum_steps", lambda fns: sizes.append(len(fns)) or real(fns))
        for jobs in (random_instance(4, 50, n_min=50), adversarial_instance(50)):
            for algo in (waterfill_online, greedy):
                sizes.clear()
                algo(jobs)
                assert len(jobs) <= len(sizes) <= len(jobs) + 1 and max(sizes) <= 2

    def test_matches_the_candidate_scan(self):
        pools = [(random_instance(seed, 30), COMPETITIVE_RATIO) for seed in range(40)]
        pools += [(adversarial_instance(n), COMPETITIVE_RATIO) for n in (50, 120, 300)]
        pools.append((adversarial_instance(200), 1.55))
        for jobs, ratio in pools:
            run = waterfill_online(jobs, ratio=ratio)
            levels, assignments, usages = scan_waterfill(jobs, ratio)
            assert run.failure_index == (None if len(levels) == len(jobs) else len(levels))
            assert np.array_equal(run.levels, levels)
            final = run.final_schedule().assignments
            assert len(final) == len(assignments)
            for got, want in zip(final, assignments):
                assert np.array_equal(got.edges, want.edges)
                assert np.array_equal(got.values, want.values)
            for sched, want in zip(prefix_schedules(run), usages):
                fresh = sched.total_usage()
                assert np.array_equal(fresh.edges, want.edges)
                assert np.array_equal(fresh.values, want.values)

    def test_adversarial_2000_is_fast_and_valid(self):
        # fails fast if the level search turns quadratic again; scanning the
        # candidate levels one at a time takes 15-18 s here
        jobs = adversarial_instance(2000)
        start = time.perf_counter()
        run = waterfill_online(jobs)
        assert time.perf_counter() - start < 5.0
        assert run.ok and validate_schedule(jobs, run.final_schedule()).feasible

    @pytest.mark.parametrize("n, seed", [(50, 7), (50, 13), (100, 1)])
    def test_volumes_met_on_wide_volume_spreads(self, n, seed):
        # these runs end past t = 3e6, with intervals a few 1e-6 wide; when
        # step functions absorbed intervals narrower than 1e-12 times their
        # end, they lost up to 2.2e-6 of a job's volume
        jobs = generate_random(n, seed, vmin=1e-6, vmax=1e6)
        run = waterfill_online(jobs)
        assert run.ok and validate_schedule(jobs, run.final_schedule()).feasible

    def test_memory_is_linear_in_n(self):
        # a run keeps one schedule; a schedule per prefix, each with its
        # own usage, would peak at about 11 MB here
        jobs = adversarial_instance(1000)
        tracemalloc.start()
        try:
            waterfill_online(jobs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_prefix_flatness(self):
        for seed in range(25):
            jobs = random_instance(seed, 10)
            run = waterfill_online(jobs)
            assert run.ok
            volume = 0.0
            for k, sched in enumerate(prefix_schedules(run)):
                volume += jobs[k].volume
                assert flatter_than_universal(sched, volume)
                assert makespan(sched) <= COMPETITIVE_RATIO * run.prefix_optima[k] + 1e-9


class TestUniversalSchedule:
    def test_eval_examples(self):
        u = UniversalSchedule(1.0)
        assert u(0.0) == 1.0
        assert u(u.support_end) == 0.0
        u2 = UniversalSchedule(E - 1.0)
        assert u2(1.0) == pytest.approx(1.0)

    def test_volume_integral(self):
        for volume in (0.5, 1.0, 2.5):
            u = UniversalSchedule(volume)
            ts = np.linspace(0.0, u.support_end, 200_001)
            vals = np.array([u(t) for t in ts])
            got = float(np.trapezoid(vals, ts))
            assert got == pytest.approx(volume, rel=1e-8)

    def test_upper_area_closed_form(self):
        assert UniversalSchedule(5.0).upper_area(0.0) == pytest.approx(5.0)
        assert UniversalSchedule(5.0).upper_area(1.0) == 0.0
        assert UniversalSchedule(E - 1.0).upper_area(0.5) == pytest.approx(math.sqrt(E) - 1.0)
        ys = np.linspace(0.0, 1.0, 11)
        closed = (np.exp(1.0 - ys) - 1.0) / (E - 1.0) * 5.0
        assert UniversalSchedule(5.0).upper_area(ys) == pytest.approx(closed, rel=1e-14, abs=1e-15)
        assert UniversalSchedule(0.0).upper_area(ys, 2.0).tolist() == [0.0] * 11

    def test_upper_area_matches_numeric_integration(self):
        volume = 1.7
        u = UniversalSchedule(volume)
        ts = np.linspace(0.0, u.support_end, 400_001)
        vals = np.array([u(t) for t in ts])
        for y in (0.0, 0.2, 0.55, 0.9):
            got = float(np.trapezoid(np.maximum(vals - y, 0.0), ts))
            assert u.upper_area(y) == pytest.approx(got, rel=1e-8, abs=1e-10)


class TestExtendability:
    def test_universal_shape_is_extendable(self):
        volume = E - 1.0
        jobs = JobSet.of([(volume, 1.0)])
        # the 2048-slab staircase below the shape: 1 up to tau(1), then on
        # [tau(y_k+1), tau(y_k)) the slab's lower height y_k
        ys = np.linspace(0.0, 1.0, 2049)
        edges = np.append(0.0, UniversalSchedule(volume).time_above(ys)[::-1])
        sched = Schedule([StepFunction(edges, np.append(1.0, ys[-2::-1]))])
        assert extendability_check(sched, jobs, COMPETITIVE_RATIO)
        # the closed form satisfies the bound directly as well
        ratio = COMPETITIVE_RATIO
        for y in np.linspace((ratio - 1) / ratio + 1e-6, 1.0, 200):
            bound = (ratio - 1.0) * (1.0 - y) / y * max(volume, volume * y)
            assert UniversalSchedule(volume).upper_area(y) <= bound + 1e-9

    def test_flat_packing_is_not_extendable(self):
        volume = 2.0
        jobs = JobSet.of([(volume, 1.0)])
        sched = Schedule([StepFunction.constant(1.0, volume)])
        assert not extendability_check(sched, jobs, COMPETITIVE_RATIO)

    def test_excess_between_usage_levels_is_found(self):
        # one flat job at rate u on [0, 1): A(y) - bound peaks at the
        # stationary height sqrt((c - 1) u), not at a usage level, and is
        # positive exactly when u > 4 (c - 1) / c^2
        c = COMPETITIVE_RATIO
        for excess, extendable in ((1e-5, False), (-1e-5, True)):
            u = 4.0 * (c - 1.0) / c**2 + excess
            sched = Schedule([StepFunction.constant(u, 1.0)])
            assert extendability_check(sched, JobSet.of([(u, u)]), c) is extendable

    def test_empty_schedule_extendable(self):
        assert extendability_check(Schedule.empty(0), JobSet(), COMPETITIVE_RATIO)


def test_usage_past_the_float_range_reads_without_a_warning():
    # the two rates sum past the float range, and so do the areas under
    # them; each call once raised ContractError after an overflow warning
    sched = Schedule([StepFunction.constant(1e308, 2.0), StepFunction.constant(1.7e308, 2.0)])
    jobs = JobSet.of([(1, 1), (1, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not extendability_check(sched, jobs, COMPETITIVE_RATIO)
        assert is_flatter(sched, sched) and not is_flatter(sched, Schedule.empty(2))
        assert not flatter_than_universal(sched, 1.0)
        assert upper_resource_distribution(sched, 2.0, 0.0) == math.inf
        assert upper_resource_distribution(sched, 1.0, 0.5) == np.finfo(float).max


def test_zero_usage_is_flatter_than_every_universal_shape():
    # no usage measure is positive, so no height joins the levels 0 and 1
    for sched in (Schedule.empty(0), Schedule.empty(2)):
        for volume in (0.0, 0.5, 3.0):
            assert flatter_than_universal(sched, volume)


class TestAdversarialInstance:
    def test_small_cases(self):
        one = adversarial_instance(1)
        assert [(j.volume, j.requirement) for j in one] == [(1.0, 1.0)]
        three = adversarial_instance(3)
        assert [j.volume for j in three] == pytest.approx([1 / 3] * 3)
        assert [j.requirement for j in three] == pytest.approx([1.0, 0.5, 1 / 3])

    def test_prefix_optima(self):
        jobs = adversarial_instance(2)
        assert max(JobSet(jobs[:1]).total_volume(), JobSet(jobs[:1]).max_processing_time()) == pytest.approx(0.5)
        assert max(JobSet(jobs[:2]).total_volume(), JobSet(jobs[:2]).max_processing_time()) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ContractError):
            adversarial_instance(0)


# -- byte-identity references for the upper-area table -----------------------


def reference_area_matrix(usage, horizons, ys):
    """The upper-area matrix before it moved onto ``waterfill._cumulative``."""
    ny, nc = ys.size, horizons.size
    if not usage.values.size:
        return np.zeros((ny, nc))
    e, u = usage.edges, usage.values
    w = np.diff(e)
    above = np.maximum(u[None, :] - ys[:, None], 0.0)
    cum = np.concatenate([np.zeros((ny, 1)), np.cumsum(above * w[None, :], axis=1)], axis=1)
    pos = np.searchsorted(e, horizons, side="right") - 1
    k = np.clip(pos, 0, u.size - 1)
    inside = (pos >= 0) & (pos < u.size)
    partial = cum[:, k] + (horizons - e[k])[None, :] * above[:, k]
    full = np.broadcast_to(cum[:, -1][:, None], (ny, nc))
    return np.where(inside[None, :], partial, np.where(pos[None, :] >= u.size, full, 0.0))


def reference_flatter_than_universal(sched, volume):
    """``flatter_than_universal`` with its own cumulative sum of the measures
    above each level, as before the shared table."""
    u = UniversalSchedule(volume)
    usage = sched.total_usage()
    far = max(usage.support_end, u.support_end) + 1.0
    horizons = np.unique(np.append(usage.edges, far))
    levels = np.unique(np.concatenate([usage.values, [0.0, 1.0]]))
    levels = levels[(levels >= 0.0) & (levels <= 1.0)]
    ys = levels
    if volume > 0.0 and usage.values.size:
        w = np.diff(usage.edges)
        above = (usage.values[None, :] > levels[:, None]).astype(float)
        cum = np.concatenate([np.zeros((levels.size, 1)),
                              np.cumsum(above * w[None, :], axis=1)], axis=1)
        pos = np.clip(np.searchsorted(usage.edges, horizons, side="right") - 1,
                      0, usage.values.size)
        measures = np.unique(cum[:, pos])
        measures = measures[measures > 0.0]
        ystar = 1.0 - np.log(measures * (E - 1.0) / volume)
        ys = np.unique(np.concatenate([ys, ystar[(ystar >= 0.0) & (ystar <= 1.0)]]))
    a_sched = reference_area_matrix(usage, horizons, ys)
    a_ref = u.upper_area(ys[:, None], horizons[None, :])
    return bool(np.all(a_sched <= a_ref + core.DEFAULT_TOL * np.maximum(1.0, a_ref)))


def _flatness_pool():
    """(jobs, schedule) pairs: greedy and water-fill on random and
    adversarial instances, every water-fill prefix included."""
    pool = [generate_random(n, s) for n in (1, 3, 6, 12) for s in range(1, 5)]
    pool += [adversarial_instance(n) for n in (1, 2, 5, 20)]
    for jobs in pool:
        yield jobs, greedy(jobs)
        run = waterfill_online(jobs)
        for k, sched in enumerate(prefix_schedules(run)):
            yield JobSet(jobs[:k + 1]), sched


def test_area_matrix_matches_the_reference_byte_for_byte():
    rng = np.random.default_rng(4)
    for _, sched in [*_flatness_pool(), (JobSet(), Schedule.empty(0))]:
        usage = sched.total_usage()
        end = usage.support_end
        horizons = np.concatenate([usage.edges, rng.uniform(0.0, end + 1.0, 6),
                                   [0.0, end, end + 1.0, 2.0 * end + 5.0]])
        ys = np.concatenate([usage.values, rng.uniform(0.0, 1.0, 4), [0.0, 1.0]])
        got = waterfill._area_matrix(usage, horizons, ys)
        assert got.tobytes() == reference_area_matrix(usage, horizons, ys).tobytes()


def test_flatness_verdicts_match_the_references(monkeypatch):
    pool = list(_flatness_pool())
    verdicts = {"flatter": [], "universal": [], "extendable": []}
    for jobs, sched in pool:
        total = jobs.total_volume()
        verdicts["universal"] += [flatter_than_universal(sched, f * total)
                                  for f in (0.0, 0.6, 0.9, 1.0, 1.2)]
        verdicts["extendable"] += [extendability_check(sched, jobs, c)
                                   for c in (1.2, 1.45, COMPETITIVE_RATIO, 2.0)]
    verdicts["flatter"] = [is_flatter(a, b) for (_, a), (_, b) in zip(pool, pool[1:])]
    # both verdicts occur in every family, so the comparison below can tell
    assert all(0 < sum(v) < len(v) for v in verdicts.values())
    assert verdicts["universal"] == [
        reference_flatter_than_universal(sched, f * jobs.total_volume())
        for jobs, sched in pool for f in (0.0, 0.6, 0.9, 1.0, 1.2)]
    monkeypatch.setattr(waterfill, "_area_matrix", reference_area_matrix)
    assert verdicts["extendable"] == [extendability_check(sched, jobs, c) for jobs, sched in pool
                                      for c in (1.2, 1.45, COMPETITIVE_RATIO, 2.0)]
    assert verdicts["flatter"] == [is_flatter(a, b) for (_, a), (_, b) in zip(pool, pool[1:])]


@pytest.mark.parametrize("deadline", [0.0, -0.0])
def test_a_zero_deadline_leaves_the_whole_volume_as_deficit(deadline):
    # the general path: no usage piece lies before 0, so the capacity is 0
    rng = np.random.default_rng(7)
    for seed in range(20):
        usage = greedy(random_instance(seed, 6)).total_usage()
        job = Job(float(rng.uniform(0.01, 5.0)), float(rng.uniform(0.05, 1.0)))
        out = waterfill_step(usage, job, deadline)
        assert (out.ok, out.assignment, out.level) == (False, None, None)
        assert out.deficit == job.volume
    # a volume within the tolerance fits at 0 as at every deadline, here with nothing poured
    out = waterfill_step(StepFunction.zero(), Job(1e-10, 0.5), deadline)
    assert out.ok and out.level == 1.0 and out.assignment == StepFunction.zero()


@pytest.mark.parametrize("deadline", [-1.0, -5e-324, -math.inf, math.inf, math.nan])
def test_a_deadline_must_be_finite_and_nonnegative(deadline):
    # NaN fails every comparison, and an infinite deadline would reach the level sums
    with pytest.raises(ContractError, match="^deadline must be finite and nonnegative, got "):
        waterfill_step(StepFunction.constant(0.5, 2.0), Job(1.0, 0.5), deadline)


def test_a_zero_volume_universal_shape_reads_zero():
    u = UniversalSchedule(0.0)
    assert [u(t) for t in (-1.0, 0.0, 1.0)] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("volume", [-1.0, math.inf, math.nan])
def test_a_universal_shape_needs_a_finite_nonnegative_volume(volume):
    with pytest.raises(ContractError, match="volume must be finite and nonnegative"):
        UniversalSchedule(volume)
