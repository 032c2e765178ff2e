import dataclasses
import json
import math

import numpy as np
import pytest

from sharesched import (
    ContractError,
    Job,
    JobSet,
    Schedule,
    StepFunction,
    build_line_schedule,
    fractional_completion_time,
    is_flatter,
    jobs_from_json,
    jobs_to_json,
    makespan,
    schedule_from_json,
    schedule_to_json,
    sum_steps,
    total_completion_time,
    upper_resource_distribution,
    validate_schedule,
)
from sharesched import core
from sharesched.cli import generate_random
from sharesched.tct import LsApproxParams, greedy, ls_exact, lsapprox_report
from sharesched.waterfill import adversarial_instance, waterfill_online

from conftest import left_end_sum, random_instance, volume_before


def brute_eval(edges, values, t):
    for k in range(len(values)):
        if edges[k] <= t < edges[k + 1]:
            return values[k]
    return 0.0


def worked_line_schedule():
    """Rates of the solved 3-job line schedule, assembled by hand."""
    j1 = StepFunction([0.0, 1.0, 1.5], [0.75, 0.5])
    j2 = StepFunction([0.0, 1.0, 6.0, 9.75], [0.25, 0.5, 1.0 / 3.0])
    j3 = StepFunction([0.0, 1.5, 6.0, 11.625], [0.0, 0.5, 2.0 / 3.0])
    return Schedule([j1, j2, j3])


class TestJob:
    def test_fields(self):
        j = Job(2.0, 0.5)
        assert j.processing_time == 4.0

    @pytest.mark.parametrize("v,r", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0),
                                     (1.0, -0.1), (1.0, 1.5), (math.inf, 0.5)])
    def test_rejects_bad_fields(self, v, r):
        with pytest.raises(ContractError):
            Job(v, r)

    def test_messages_name_plain_floats(self):
        with pytest.raises(ContractError, match=r"requirement must lie in \(0, 1\], got 1.5$"):
            Job(1.0, np.float64(1.5))
        with pytest.raises(ContractError, match="volume must be positive and finite, got -2.0$"):
            Job(np.float64(-2.0), 0.5)

    @pytest.mark.parametrize("algo", [greedy, waterfill_online, ls_exact])
    def test_rejects_an_overflowing_processing_time(self, algo):
        # 1e300 / 1e-10 is inf: no algorithm may see such a job
        with pytest.raises(ContractError, match="processing time"):
            algo(JobSet.of([(1e300, 1e-10), (1.0, 0.5)]))


class TestStepFunction:
    def test_basic_shape_checks(self):
        with pytest.raises(ContractError):
            StepFunction([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ContractError):
            StepFunction([1.0, 2.0], [1.0])
        with pytest.raises(ContractError):
            StepFunction([0.0, 1.0, 1.0], [1.0, 2.0])

    @pytest.mark.parametrize("edges,values,cause", [
        ([1.0, 2.0], [1.0], "edges must start at 0"),
        ([math.nan, 1.0], [1.0], "edges must start at 0"),
        ([0.0, math.nan, 2.0], [1.0, 0.5], "edges and values must be finite"),
        ([0.0, 1.0, math.inf], [1.0, 0.5], "edges and values must be finite"),
        ([0.0, 1.0, 1.0], [1.0, 0.5], "edges must be strictly increasing"),
        ([0.0, 2.0, 1.0], [1.0, 0.5], "edges must be strictly increasing"),
        ([0.0, 1.0], [math.nan], "edges and values must be finite"),
        ([0.0, 1.0], [math.inf], "edges and values must be finite"),
        ([0.0, 1.0], [1.0, 0.5], "need len(edges) == len(values) + 1"),
        # with two faults, the first in this order is named
        ([1.0, 2.0], [math.nan], "edges must start at 0"),
        ([0.0, 2.0, 1.0], [math.inf, 0.5], "edges and values must be finite"),
    ])
    def test_each_invalid_class_names_its_cause(self, edges, values, cause):
        with pytest.raises(ContractError) as info:
            StepFunction(edges, values)
        assert str(info.value) == cause

    def test_every_fault_is_found_past_the_first_entry(self):
        # the checks count over the whole arrays: one fault at the far end of
        # a long function is refused with its cause, as at the front
        edges = np.arange(1001, dtype=float)
        values = np.full(1000, 0.5)

        def changed(a, i, x):
            a = a.copy()
            a[i] = x
            return a

        for e, v, cause in [
            (changed(edges, 999, math.nan), values, "edges and values must be finite"),
            (changed(edges, 1000, math.inf), values, "edges and values must be finite"),
            (changed(edges, 1000, 999.0), values, "edges must be strictly increasing"),
            (changed(edges, 600, 599.0), values, "edges must be strictly increasing"),
            (edges, changed(values, 999, math.nan), "edges and values must be finite"),
            (edges, changed(values, 999, -math.inf), "edges and values must be finite"),
            ([0.0, math.inf], [1.0], "edges and values must be finite"),
        ]:
            with pytest.raises(ContractError) as info:
                StepFunction(e, v)
            assert str(info.value) == cause

    def test_zero_and_one_piece_functions_construct(self):
        for f in (StepFunction([0.0], []), StepFunction.zero(),
                  StepFunction([0.0, 2.0], [0.0]), StepFunction([0.0, 1.0, 3.0], [0.0, 0.0])):
            assert f.edges.tolist() == [0.0] and f.values.size == 0
        one = StepFunction([0.0, 2.0], [0.5])
        assert one.edges.tolist() == [0.0, 2.0] and one.values.tolist() == [0.5]
        merged = StepFunction([0.0, 1.0, 2.0], [0.5, 0.5])
        assert merged == one

    def test_constant_up_to_a_nonpositive_end_is_zero(self):
        for end in (0.0, -1.0):
            assert StepFunction.constant(0.5, end) == StepFunction.zero()

    def test_count_checks_match_all_and_any(self):
        rng = np.random.default_rng(4)
        arrays = [np.zeros(0, dtype=bool), np.ones(7, dtype=bool), np.zeros(7, dtype=bool)]
        arrays += [rng.random(size) < p for size in (1, 5, 64) for p in (0.1, 0.5, 0.99)]
        for x in arrays:
            assert core._all(x) == x.all() and core._any(x) == x.any()

    def test_canonical_roundtrip_random(self):
        # merging equal adjacent values must not change any evaluation: the
        # read is right-continuous and 0 outside [0, support end), at every
        # edge, one ulp below it, at +-inf and at NaN, for negative values too
        for seed in range(30):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 12))
            edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, k))])
            values = rng.choice([0.0, 0.25, 0.5, 0.75, -0.5, -1.0], size=k)
            f = StepFunction(edges, values)
            ts = np.concatenate([rng.uniform(-0.5, edges[-1] + 0.5, 1000), edges,
                                 np.nextafter(edges, -np.inf), [-1.0, edges[-1] + 1.0, 1e300,
                                                               np.inf, -np.inf, np.nan]])
            want = np.array([brute_eval(edges, values, t) for t in ts])
            got = f(ts)
            assert np.array_equal(got, want)
            assert [f(t) for t in ts] == want.tolist()

    def test_integrals_match_brute_force(self):
        rng = np.random.default_rng(3)
        edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 6))])
        values = rng.uniform(0.0, 1.0, 6)
        f = StepFunction(edges, values)
        w = np.diff(edges)
        assert f.integral() == pytest.approx(float(np.dot(values, w)), rel=1e-14)
        mids = 0.5 * (edges[:-1] + edges[1:])
        # the first moment is the fractional completion time of a unit volume
        moment = fractional_completion_time(JobSet.of([(1.0, 1.0)]), Schedule([f]))[1]
        assert moment == pytest.approx(float(np.dot(values * w, mids)), rel=1e-12)
        C = float(edges[3]) + 0.3 * float(w[3])
        want = float(np.dot(values[:3], w[:3]) + values[3] * 0.3 * w[3])
        assert volume_before(f, C) == pytest.approx(want, rel=1e-12)

    def test_narrow_intervals_kept_with_their_integral(self):
        edges, values = [0.0, 1.0, 1.0 + 1e-15, 2.0], [0.5, 0.9, 0.25]
        f = StepFunction(edges, values)
        assert np.array_equal(f.edges, edges)
        assert np.array_equal(f.values, values)
        assert f.integral() == float(np.dot(values, np.diff(edges)))
        # a trailing narrow interval is kept too
        g = StepFunction([0.0, 1.0, 1.0 + 1e-15], [0.5, 0.9])
        assert np.array_equal(g.edges, [0.0, 1.0, 1.0 + 1e-15])
        assert np.array_equal(g.values, [0.5, 0.9])
        # equal neighbours still merge, however narrow
        h = StepFunction([0.0, 1.0, 1.0 + 1e-15, 2.0], [0.5, 0.5, 0.25])
        assert np.array_equal(h.edges, [0.0, 1.0 + 1e-15, 2.0])
        assert np.array_equal(h.values, [0.5, 0.25])

    def test_zero_tail_trimmed_and_support_end_interval_kept(self):
        # a far zero tail is trimmed and leaves the intervals before it alone
        f = StepFunction([0.0, 1.0, 2.0, 1e13], [1.0, 0.5, 0.0])
        assert np.array_equal(f.edges, [0.0, 1.0, 2.0])
        assert f.integral() == 1.5
        # a narrow interval at the support end is kept, and the zero tail
        # after it is trimmed
        g = StepFunction([0.0, 1.0, 1.0 + 1e-15, 5.0], [0.5, 0.25, 0.0])
        assert np.array_equal(g.edges, [0.0, 1.0, 1.0 + 1e-15])
        assert np.array_equal(g.values, [0.5, 0.25])

    def test_sum_steps(self):
        a = StepFunction([0.0, 2.0], [0.5])
        b = StepFunction([0.0, 1.0, 3.0], [0.25, 0.5])
        s = sum_steps([a, b])
        for t, want in [(0.5, 0.75), (1.5, 1.0), (2.5, 0.5), (3.5, 0.0)]:
            assert s(t) == pytest.approx(want)
        # the sum is f + g at each left end of the union grid
        left = np.array([0.0, 1.0, 2.0])
        assert core._union_grid([a, b]).tolist() == [0.0, 1.0, 2.0, 3.0]
        assert np.array_equal(s(left), a(left) + b(left))

    def test_sum_steps_matches_left_end_evaluation(self):
        # operands share edges, or miss each other by 1e-15 or by one ulp,
        # and carry zero values and equal neighbours
        rng = np.random.default_rng(11)
        for _ in range(400):
            base = np.cumsum(rng.uniform(0.01, 2.0, 10))
            fns = []
            for _ in range(int(rng.integers(1, 6))):
                ends = np.sort(rng.choice(base, int(rng.integers(1, 9)), replace=False))
                shift = rng.integers(0, 4, ends.size)
                ends = np.where(shift == 1, ends + 1e-15, ends)
                ends = np.where(shift == 2, np.nextafter(ends, np.inf), ends)
                vals = rng.choice([0.0, 0.25, 0.5, 1.0 / 3.0, rng.uniform()], ends.size)
                same = rng.random(ends.size) < 0.3
                for k in range(1, ends.size):
                    if same[k]:
                        vals[k] = vals[k - 1]
                fns.append(StepFunction(np.append(0.0, ends), vals))
            got, want = sum_steps(fns), left_end_sum(fns)
            assert np.array_equal(got.edges, want.edges)
            assert np.array_equal(got.values, want.values)

    def test_sum_steps_matches_left_end_sum_on_greedy_folds(self, monkeypatch):
        # every (usage, assignment) pair that greedy adds, bit for bit
        pairs = []
        real = core.sum_steps
        monkeypatch.setattr(core, "sum_steps", lambda fns: pairs.append(fns) or real(fns))
        for jobs in [random_instance(seed, 30) for seed in range(20)] + [adversarial_instance(120)]:
            greedy(jobs)
        assert len(pairs) > 120
        for fns in pairs:
            got, want = real(fns), left_end_sum(fns)
            assert got.edges.tobytes() == want.edges.tobytes()
            assert got.values.tobytes() == want.values.tobytes()

    def test_total_usage_adds_the_rates_in_job_order(self):
        # every algorithm's schedules, bit for bit against sum_steps
        for n in (1, 2, 3, 5):
            for seed in range(4):
                jobs = generate_random(n, seed)
                for sched in (greedy(jobs), waterfill_online(jobs).final_schedule(),
                              ls_exact(jobs)[0], lsapprox_report(jobs, LsApproxParams(0.5))[0]):
                    got, want = sched.total_usage(), sum_steps(sched.assignments)
                    assert got.edges.tobytes() == want.edges.tobytes()
                    assert got.values.tobytes() == want.values.tobytes()
        # nine rates on one interval: numpy would sum that one column pairwise
        for seed in range(10):
            rates = np.random.default_rng(seed).uniform(0.0, 0.2, 9)
            sched = Schedule(StepFunction.constant(x, 1.0) for x in rates)
            assert sched.total_usage() == sum_steps(sched.assignments)
        # subnormal rates are summed as they are, not halved away
        tiny = Schedule([StepFunction.constant(5e-324, 1.0)])
        assert tiny.total_usage().values.tolist() == [5e-324]
        assert upper_resource_distribution(tiny, 1.0, 0.0) == 5e-324
        sched = Schedule([StepFunction.constant(3e-308, 1.0), StepFunction.constant(1e-320, 2.0)])
        assert sched.total_usage().values.tolist() == [3.000000000001e-308, 1e-320]
        # a partial sum past the float range, but not the sum: no clip before the end
        sched = Schedule(StepFunction.constant(x, 1.0) for x in (1.7e308, 1.7e308, -1.7e308))
        assert sched.total_usage().values.tolist() == [1.7e308]


class TestValidation:
    def test_greedy_three_jobs_is_feasible(self, three_jobs):
        report = validate_schedule(three_jobs, greedy(three_jobs))
        assert report.feasible and not report.violations

    def test_overuse_detected(self):
        jobs = JobSet.of([(0.6, 0.7), (0.6, 0.7)])
        sched = Schedule([StepFunction.constant(0.6, 1.0)] * 2)
        report = validate_schedule(jobs, sched)
        kinds = {v.kind for v in report.violations}
        assert "overuse" in kinds
        over = [v for v in report.violations if v.kind == "overuse"][0]
        assert over.magnitude == pytest.approx(0.2)

    def test_overuse_on_a_sliver_interval_detected(self):
        # job 0 ends 4.7e-15 after job 1 starts; the summed usage keeps that
        # sliver, so the overlap on it shows
        end = 1.0 + 4.7e-15
        jobs = JobSet.of([(0.66 * end, 0.7), (0.65, 0.7)])
        sched = Schedule([StepFunction.constant(0.66, end),
                          StepFunction([0.0, 1.0, 2.0], [0.0, 0.65])])
        assert sched.total_usage().values.max() == pytest.approx(1.31)
        over = [v for v in validate_schedule(jobs, sched).violations if v.kind == "overuse"]
        assert len(over) == 1 and over[0].magnitude == pytest.approx(0.31)
        assert over[0].interval == (1.0, end)

    def test_overflowing_usage_is_overuse(self):
        # each row is a valid step function, but their sum passes the float
        # range; the overuse is read from the halved rates, capped at the
        # largest float, on the interval where the usage peaks
        jobs = JobSet.of([(1, 1), (1, 1), (1, 1)])
        sched = Schedule([StepFunction.constant(1e308, 1.0),
                          StepFunction([0.0, 2.0, 3.0], [1.7e308, 0.5]),
                          StepFunction.constant(0.25, 4.0)])
        report = validate_schedule(jobs, sched)
        assert not report.feasible
        over = [v for v in report.violations if v.kind == "overuse"]
        assert len(over) == 1 and over[0].interval == (0.0, 1.0)
        assert over[0].magnitude == np.finfo(float).max
        # one overflowing interval after a feasible one
        fine = Schedule([StepFunction([0.0, 1.0, 2.0], [0.5, 1e308]),
                         StepFunction([0.0, 1.0, 2.0], [0.5, 1e308]),
                         StepFunction.zero()])
        over = [v for v in validate_schedule(jobs, fine).violations if v.kind == "overuse"]
        assert [(v.interval, v.magnitude) for v in over] == [((1.0, 2.0), np.finfo(float).max)]

    def test_negative_rate_detected(self):
        # job 1's rate -1 on [0, 1) hides the overuse of jobs 0 and 2 there,
        # and its volume is met
        jobs = JobSet.of([(1, 1), (1, 1), (1, 1)])
        sched = Schedule([StepFunction.constant(1.0, 1.0),
                          StepFunction([0.0, 1.0, 3.0], [-1.0, 1.0]),
                          StepFunction.constant(1.0, 1.0)])
        assert validate_schedule(jobs, sched).violations == (
            core.Violation("negative-rate", 1.0, job=1, interval=(0.0, 1.0)),)
        # the least rate names its piece; a rate of -tol or above passes
        jobs = JobSet.of([(1, 0.5)])
        sched = Schedule([StepFunction([0.0, 1.0, 2.0, 3.0], [-1e-10, -0.25, 0.8])])
        assert [(v.kind, v.job, v.interval) for v in validate_schedule(jobs, sched).violations] == [
            ("requirement-exceeded", 0, (2.0, 3.0)), ("negative-rate", 0, (1.0, 2.0)),
            ("volume-deficit", 0, None)]
        assert validate_schedule(jobs, sched).violations[1].magnitude == 0.25
        # a usage below minus the float range reads as minus the largest float
        jobs = JobSet.of([(1, 1), (1, 1)])
        sched = Schedule([StepFunction.constant(-1e308, 1.0), StepFunction.constant(-1.7e308, 1.0)])
        assert sched.total_usage().values.tolist() == [-np.finfo(float).max]
        assert [(v.kind, v.job, v.magnitude) for v in validate_schedule(jobs, sched).violations] == [
            ("negative-rate", 0, 1e308), ("volume-deficit", 0, 1e308 + 1),
            ("negative-rate", 1, 1.7e308), ("volume-deficit", 1, 1.7e308 + 1)]

    def test_volume_deficit_detected(self):
        jobs = JobSet.of([(1.0, 1.0)])
        sched = Schedule([StepFunction.constant(1.0, 0.5)])
        report = validate_schedule(jobs, sched)
        assert not report.feasible
        v = report.violations[0]
        assert v.kind == "volume-deficit" and v.magnitude == pytest.approx(0.5)

    def test_requirement_cap_detected(self):
        jobs = JobSet.of([(1.0, 0.5)])
        sched = Schedule([StepFunction.constant(0.8, 1.25)])
        report = validate_schedule(jobs, sched)
        assert any(v.kind == "requirement-exceeded" for v in report.violations)

    def test_cardinality_mismatch_raises(self):
        with pytest.raises(ContractError):
            validate_schedule(JobSet.of([(1, 1)]), Schedule.empty(2))

    def test_negative_tol_raises(self):
        jobs = JobSet.of([(1.0, 1.0)])
        sched = Schedule([StepFunction.constant(1.0, 1.0)])
        assert validate_schedule(jobs, sched, tol=0.0).feasible
        with pytest.raises(ContractError, match="tol must be nonnegative"):
            validate_schedule(jobs, sched, tol=-1e-9)


class TestObjectives:
    def test_makespan_examples(self):
        assert makespan(Schedule.empty(0)) == 0.0
        assert makespan(Schedule([StepFunction.constant(0.5, 2.0)])) == 2.0
        assert makespan(worked_line_schedule()) == pytest.approx(11.625, abs=1e-12)

    def test_total_completion_examples(self, three_jobs):
        single = JobSet.of([(1, 1)])
        assert total_completion_time(single, Schedule([StepFunction.constant(1.0, 1.0)])) == 1.0
        assert total_completion_time(three_jobs, greedy(three_jobs)) == pytest.approx(133.0 / 6.0, rel=1e-12)
        assert total_completion_time(three_jobs, worked_line_schedule()) == pytest.approx(22.875, abs=1e-12)

    def test_fractional_completion_examples(self):
        jobs = JobSet.of([(1, 1)])
        per, tot = fractional_completion_time(jobs, Schedule([StepFunction.constant(1.0, 1.0)]))
        assert per[0] == pytest.approx(0.5) and tot == pytest.approx(0.5)
        jobs2 = JobSet.of([(1, 0.5)])
        _, tot2 = fractional_completion_time(jobs2, Schedule([StepFunction.constant(0.5, 2.0)]))
        assert tot2 == pytest.approx(1.0)
        # shift law: unit rate on [a, a+1)
        a = 2.75
        shifted = Schedule([StepFunction([0.0, a, a + 1.0], [0.0, 1.0])])
        per3, _ = fractional_completion_time(jobs, shifted)
        assert per3[0] == pytest.approx(a + 0.5, rel=1e-12)

    def test_fractional_below_completion(self):
        for seed in range(25):
            jobs = random_instance(seed, 6)
            sched = greedy(jobs)
            per, _ = fractional_completion_time(jobs, sched)
            ct = sched.completion_times()
            assert np.all(np.asarray(per) <= ct + 1e-9)


class TestUpperArea:
    def test_examples(self):
        sched = Schedule([StepFunction.constant(1.0, 1.0)])
        assert upper_resource_distribution(sched, 100.0, 0.0) == pytest.approx(1.0)
        assert upper_resource_distribution(sched, 100.0, 1.0) == 0.0
        assert upper_resource_distribution(sched, 100.0, 0.5) == pytest.approx(0.5)
        # an infinite horizon reads the whole area above the height
        half = Schedule([StepFunction.constant(0.5, 2.0)])
        assert upper_resource_distribution(half, math.inf, 0.2) == pytest.approx(0.6)
        assert upper_resource_distribution(half, math.inf, 0.2) == (
            upper_resource_distribution(half, 2.0, 0.2))
        assert upper_resource_distribution(Schedule.empty(1), math.inf, 0.2) == 0.0

    def test_monotonicity(self):
        for seed in range(10):
            jobs = random_instance(seed, 5)
            sched = greedy(jobs)
            end = makespan(sched)
            ys = np.linspace(0, 1, 7)
            cs = np.linspace(0, end * 1.2, 7)
            areas = np.array([[upper_resource_distribution(sched, C, y) for C in cs] for y in ys])
            assert np.all(np.diff(areas, axis=0) <= 1e-12)   # nonincreasing in y
            assert np.all(np.diff(areas, axis=1) >= -1e-12)  # nondecreasing in C
            vol = float(jobs.volumes().sum())
            assert upper_resource_distribution(sched, end + 1, 0.0) == pytest.approx(vol, rel=1e-9)


class TestFlatter:
    def test_examples(self):
        flat = Schedule([StepFunction.constant(0.5, 2.0)])
        tall = Schedule([StepFunction.constant(1.0, 1.0)])
        assert is_flatter(flat, flat)
        assert is_flatter(flat, tall)
        assert not is_flatter(tall, flat)
        assert is_flatter(Schedule.empty(0), tall)

    def test_transitive_on_random_triples(self):
        hits = 0
        for seed in range(60):
            a = greedy(random_instance(3 * seed, 4))
            b = greedy(random_instance(3 * seed + 1, 4))
            c = greedy(random_instance(3 * seed + 2, 4))
            if is_flatter(a, b) and is_flatter(b, c):
                hits += 1
                assert is_flatter(a, c)
        assert hits > 0


class TestJson:
    def test_instance_roundtrip_bytes(self, three_jobs):
        text = jobs_to_json(three_jobs)
        again = jobs_to_json(jobs_from_json(text))
        assert text == again
        data = json.loads(text)
        assert list(data) == ["jobs"]
        assert set(data["jobs"][0]) == {"v", "r"}

    def test_schedule_roundtrip_bytes(self, three_jobs):
        sched = greedy(three_jobs)
        text = schedule_to_json(sched)
        again = schedule_to_json(schedule_from_json(text))
        assert text == again
        data = json.loads(text)
        assert data["breakpoints"][0] == 0.0
        assert len(data["assignments"]) == 3
        assert len(data["assignments"][0]) == len(data["breakpoints"]) - 1
        assert data["completion_times"] == pytest.approx([4 / 3, 26 / 3, 73 / 6])

    def test_schedule_roundtrip_keeps_one_ulp_intervals(self):
        # the union grid ends with [1 + u, 1 + 2u), one ulp wide, whose
        # midpoint rounds onto its right end, past the second job's support
        u = np.finfo(float).eps
        sched = Schedule([StepFunction.constant(0.5, 1.0 + u),
                          StepFunction.constant(0.25, 1.0 + 2.0 * u)])
        back = schedule_from_json(schedule_to_json(sched))
        assert back == sched
        for empty in (Schedule.empty(0), Schedule.empty(2), Schedule.empty(3)):
            assert schedule_from_json(schedule_to_json(empty)) == empty
        # no jobs: the union grid is [0]
        assert json.loads(schedule_to_json(Schedule.empty(0)))["breakpoints"] == [0]

    def test_17_digit_floats(self):
        jobs = JobSet.of([(1 / 3, 2 / 3)])
        text = jobs_to_json(jobs)
        assert "0.33333333333333331" in text

    def test_malformed_inputs(self):
        with pytest.raises(ContractError):
            jobs_from_json('{"not_jobs": []}')
        with pytest.raises(ContractError):
            schedule_from_json('{"breakpoints": [1.0, 2.0], "assignments": [[0.5]]}')
        with pytest.raises(ContractError):
            schedule_from_json('{"breakpoints": [0.0, 1.0], "assignments": [[0.5, 0.5]]}')
        with pytest.raises(ContractError):
            jobs_from_json('{"jobs": [')
        with pytest.raises(ContractError):
            jobs_from_json('{"jobs": [{"v": "abc", "r": 0.5}]}')
        with pytest.raises(ContractError):
            schedule_from_json('{"breakpoints": [0.0, 1.0], "assignments": [0.5]}')

    @pytest.mark.parametrize("text,field", [
        ('{"jobs": [{"v": true, "r": 0.5}]}', '"v" must be a JSON number, got true'),
        ('{"jobs": [{"v": 1, "r": "0.5"}]}', '"r" must be a JSON number, got "0.5"'),
        ('{"jobs": [{"v": 1, "r": false}]}', '"r" must be a JSON number, got false'),
        ('{"jobs": [{"v": null, "r": 0.5}]}', '"v" must be a JSON number, got null'),
    ])
    def test_instance_fields_must_be_json_numbers(self, text, field):
        with pytest.raises(ContractError) as info:
            jobs_from_json(text)
        assert str(info.value) == f"malformed instance JSON: {field}"

    @pytest.mark.parametrize("text,field", [
        ('{"breakpoints": [0, true], "assignments": [[0.5]]}', '"breakpoints" must be a JSON number, got true'),
        ('{"breakpoints": ["0", 1], "assignments": [[0.5]]}', '"breakpoints" must be a JSON number, got "0"'),
        ('{"breakpoints": [0, 1], "assignments": [[true]]}', '"assignments" must be a JSON number, got true'),
        ('{"breakpoints": [0, 1], "assignments": [["0.5"]]}', '"assignments" must be a JSON number, got "0.5"'),
    ])
    def test_schedule_entries_must_be_json_numbers(self, text, field):
        with pytest.raises(ContractError) as info:
            schedule_from_json(text)
        assert str(info.value) == f"malformed schedule JSON: {field}"
        # the same numbers as JSON numbers read fine
        assert schedule_from_json('{"breakpoints": [0, 1], "assignments": [[0.5]]}').n_jobs == 1

    def test_integers_too_large_for_a_float_are_malformed(self):
        with pytest.raises(ContractError, match="malformed instance JSON"):
            jobs_from_json('{"jobs": [{"v": 1' + "0" * 400 + ', "r": 0.5}]}')


# -- byte-identity references ------------------------------------------------


def reference_step_call(f, t):
    """``StepFunction.__call__`` before it became the padded gather."""
    t = np.asarray(t, dtype=float)
    idx = np.searchsorted(f.edges, t, side="right") - 1
    ok = (idx >= 0) & (idx < f.values.size)
    safe = np.clip(idx, 0, max(f.values.size - 1, 0))
    vals = f.values[safe] if f.values.size else np.zeros_like(t)
    out = np.where(ok, vals, 0.0)
    return float(out) if out.ndim == 0 else out


def reference_linear_call(edges, starts, slopes, t):
    """One price of ``LineSchedule.prices`` on ``edges``, read through a
    clipped index instead of the padded gather."""
    t = np.asarray(t, dtype=float)
    idx = np.searchsorted(edges, t, side="right") - 1
    ok = (idx >= 0) & (idx < starts.size)
    safe = np.clip(idx, 0, max(starts.size - 1, 0))
    if starts.size:
        vals = starts[safe] + slopes[safe] * (t - edges[:-1][safe])
    else:
        vals = np.zeros_like(t)
    out = np.where(ok, vals, 0.0)
    return float(out) if out.ndim == 0 else out


# three jobs whose line schedule lends its other fields to the random prices
_THREE = build_line_schedule(JobSet.of([(1.0, 0.75), (4.0, 0.5), (6.0, 2.0 / 3.0)]), [1.0] * 3)


def _lookup_cases():
    """Random step functions and line-schedule prices on the same edges
    (empty ones and one-ulp intervals among them), each with the points to
    read them at."""
    rng = np.random.default_rng(11)
    for k in range(60):
        m = k % 7
        edges = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, m))))
        if m >= 2 and k % 3 == 0:       # a one-ulp interval
            edges[2] = np.nextafter(edges[1], np.inf)
        values = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform()], m)
        end = edges[-1]
        ts = np.concatenate([[-1.0, -0.0, np.nan, end, end + 1.0, 1e300, np.inf, -np.inf],
                             edges, edges[:-1] + 0.5 * np.diff(edges),
                             np.nextafter(edges, -np.inf), rng.uniform(-0.5, end + 1.0, 8)])
        gamma_start, gamma_slope = rng.normal(size=m), rng.normal(size=m)
        beta = np.random.default_rng(k).normal(size=(2, 3, m))
        yield (StepFunction(edges, values),
               dataclasses.replace(_THREE, grid=edges, gamma_start=gamma_start,
                                   gamma_slope=gamma_slope, beta_start=beta[0],
                                   beta_slope=beta[1]), ts)


def test_lookups_match_the_references_byte_for_byte():
    empty = np.array([-1.0, 0.0, 2.0, np.nan, np.inf])
    empties = [(StepFunction.zero(), build_line_schedule(JobSet(), []), empty),
               # every line at zero: three jobs on the grid [0]
               (StepFunction.zero(), build_line_schedule(_THREE.jobs, [0.0] * 3), empty)]
    for step, ls, ts in [*_lookup_cases(), *empties]:
        # gamma, then each beta_j
        prices = [(ls.gamma_start, ls.gamma_slope), *zip(ls.beta_start, ls.beta_slope)]
        for at in (ts, ts[: ts.size // 2 * 2].reshape(2, -1)):
            assert step(at).tobytes() == reference_step_call(step, at).tobytes()
            gamma, beta = ls.prices(at)
            assert beta.shape == (len(prices) - 1,) + at.shape
            for got, (starts, slopes) in zip([gamma, *beta], prices):
                assert got.tobytes() == reference_linear_call(ls.grid, starts, slopes, at).tobytes()
        for t in ts:
            got, want = step(t), reference_step_call(step, t)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            gamma, beta = ls.prices(t)
            assert type(gamma) is float and beta.shape == (len(prices) - 1,)
            for got, (starts, slopes) in zip([gamma, *beta], prices):
                want = reference_linear_call(ls.grid, starts, slopes, t)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_distinct_is_np_unique_for_finite_input():
    rng = np.random.default_rng(3)
    for k in range(30):
        x = rng.choice([-0.0, 0.0, 1.5, -2.0, rng.normal()], size=rng.integers(0, 40))
        x = np.concatenate((x, rng.normal(size=k)))
        for a in (x, x[: x.size - x.size % 2].reshape(-1, 2) if x.size > 1 else x,
                  np.round(x * 3).astype(np.int64)):
            assert core._distinct(a).tobytes() == np.unique(a).tobytes()
            assert core._distinct(a).dtype == np.unique(a).dtype


# -- step functions on a grid the package built ------------------------------


@pytest.fixture
def checked_on_grid(monkeypatch):
    """Patch ``StepFunction._on_grid`` to also build ``StepFunction(e, v)``,
    which checks everything: it must accept every input, and give the same
    bytes.  Yields the list of (edges, values) inputs seen."""
    seen = []
    real = StepFunction._on_grid.__func__

    def both(cls, edges, values):
        got = real(cls, edges, values)
        want = StepFunction(edges, values)
        assert edges.dtype == values.dtype == np.float64
        assert got.edges.tobytes() == want.edges.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        seen.append((edges, values))
        return got

    monkeypatch.setattr(StepFunction, "_on_grid", classmethod(both))
    yield seen


def test_on_grid_input_passes_every_check_online(checked_on_grid):
    streams = ([random_instance(seed, 60) for seed in range(25)] + [adversarial_instance(120)]
               + [generate_random(n, s, vmin=1e-6, vmax=1e6) for n in (10, 40) for s in range(5)]
               # greedy's one-ulp instances (tests/test_tct.py)
               + [JobSet.of(pairs) for pairs in (
                   [(1.0, 0.11547819846894582), (10.0, 1.0), (1.0, 0.11547819846894582),
                    (0.1, 0.01), (0.1, 0.74989420933245587)],
                   [(1000.0, 1.0), (1.0, 0.1), (1.0000000000230258, 0.1)],
                   [(1.0, 1.0), (1.0, 0.28902639100224503), (1.0, 0.28902639100224503)])])
    for jobs in streams:
        before = len(checked_on_grid)
        waterfill_online(jobs)
        greedy(jobs)
        # greedy alone builds each job's assignment and every fold but the
        # first, whose zero usage adds nothing
        assert len(checked_on_grid) - before >= 2 * len(jobs) - 1
    assert len(checked_on_grid) > 4000


def test_on_grid_input_passes_every_check_in_line_schedules(checked_on_grid):
    for n in range(1, 9):
        for seed in range(1, 4):
            before = len(checked_on_grid)
            ls_exact(generate_random(n, seed))
            assert len(checked_on_grid) - before >= n


def test_on_grid_keeps_the_refusal_messages():
    finite = "edges and values must be finite"
    # each operand is valid, and their sum overflows
    with np.errstate(over="ignore"), pytest.raises(ContractError, match=finite):
        sum_steps([StepFunction.constant(1e308, 1.0), StepFunction.constant(1.7e308, 1.0)])
    for edges, values in [([0.0, 1.0, math.inf], [1.0, 0.5]), ([0.0, math.inf], [1.0]),
                          ([0.0, math.nan], [1.0]), ([0.0, 1.0], [math.nan]),
                          ([0.0, 1.0, 2.0], [0.5, -math.inf])]:
        e, v = np.array(edges), np.array(values)
        with pytest.raises(ContractError) as info:
            StepFunction._on_grid(e, v)
        assert str(info.value) == finite
        with pytest.raises(ContractError) as info:
            StepFunction(e, v)
        assert str(info.value) == finite


def two_concatenate_canonical(e, v):
    """The canonical form as two concatenates and a trimming loop built it."""
    differ = v[1:] != v[:-1]
    if not differ.all():
        keep = np.concatenate(((True,), differ))
        e = np.concatenate((e[:-1][keep], e[-1:]))
        v = v[keep]
    while v.size and v[-1] == 0.0:
        v = v[:-1]
        e = e[:-1]
    if not v.size:
        return np.array([0.0]), np.array([], dtype=float)
    return e, v


def test_canonical_matches_the_two_concatenate_rule():
    rng = np.random.default_rng(7)
    for _ in range(600):
        k = int(rng.integers(0, 12))
        values = rng.choice([0.0, -0.0, 0.25, 1.0 / 3.0, rng.uniform()], size=k)
        for i in range(1, k):
            if rng.random() < 0.3:     # equal neighbours
                values[i] = values[i - 1]
        values = np.concatenate((values, np.zeros(int(rng.integers(0, 4)))))  # a zero tail
        edges = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 2.0, values.size))))
        got = core._canonical(edges, values)
        want = two_concatenate_canonical(edges, values)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_no_operand_sums_to_the_zero_function():
    zero = StepFunction.zero()
    for fns in ([], [zero], [zero, zero]):
        total = sum_steps(fns)
        assert total == zero and total.edges.tolist() == [0.0]
    assert zero + zero == zero
    assert zero.support_end == 0.0 and zero.integral() == 0.0


def test_a_jobset_holds_only_jobs():
    with pytest.raises(ContractError, match="expected Job, got object"):
        JobSet([object()])


@pytest.mark.parametrize("objective", [total_completion_time, fractional_completion_time])
def test_objectives_refuse_a_job_count_that_is_not_the_schedules(objective):
    jobs = JobSet.of([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ContractError, match="job/assignment count mismatch"):
        objective(jobs, Schedule([StepFunction.constant(1.0, 1.0)]))


def test_upper_area_refuses_a_height_or_horizon_out_of_range():
    sched = Schedule([StepFunction.constant(0.5, 2.0)])
    for y in (-0.1, 1.1, math.nan):
        with pytest.raises(ContractError, match=r"y must lie in \[0, 1\]"):
            upper_resource_distribution(sched, 1.0, y)
    for C in (-1.0, math.nan):
        with pytest.raises(ContractError, match="C must be nonnegative"):
            upper_resource_distribution(sched, C, 0.5)


def test_dump_writes_floats_and_leaves_the_rest_to_json():
    record = {"f": 0.1, "i": 3, "b": True, "n": None, "s": 'a"b', "l": [1.5, False], "t": (2.0,)}
    assert core._dump(record) == ('{"f": 0.10000000000000001, "i": 3, "b": true, "n": null, '
                                  '"s": "a\\"b", "l": [1.5, false], "t": [2]}')
    assert core._dump(np.float64(0.1)) == "0.10000000000000001"
    for value in (np.int64(1), np.bool_(True), np.zeros(2)):
        with pytest.raises(TypeError):
            core._dump(value)
