"""Property tests for greedy, online water-filling, exact line schedules,
``best_schedule``, the ``lsapprox`` pipeline and the slot LP.

The examples are derandomized and kept few, so the suite stays fast and
writes no example database.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharesched import (
    COMPETITIVE_RATIO,
    DEFAULT_TOL,
    DegenerateVolumesError,
    JobSet,
    LsApproxParams,
    PipelineError,
    best_schedule,
    build_discretized_lp,
    build_line_schedule,
    check_slackness,
    greedy,
    ls_exact,
    lsapprox_report,
    makespan,
    optimal_makespan,
    solve_alpha,
    solve_lp,
    total_completion_time,
    validate_schedule,
    waterfill_online,
)
from sharesched.cli import generate_random
from sharesched.linesched import _check_volume_gaps

from conftest import prefix_schedules

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)

volumes = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)
requirements = st.one_of(st.just(1.0), st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e))
instances = st.lists(st.tuples(volumes, requirements), min_size=1, max_size=12).map(JobSet.of)

# line-schedule instances: volumes 10^[-2, 2], requirements 10^[-2, 0] or exactly 1
ls_instances = st.lists(
    st.tuples(st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
              st.one_of(st.just(1.0), st.floats(-2.0, 0.0).map(lambda e: 10.0 ** e))),
    min_size=1, max_size=8).map(JobSet.of)


def volumes_apart(jobs: JobSet) -> bool:
    # the guard that solve_alpha and ls_exact apply at their default vol_tol;
    # it is wider than the guard at any larger vol_tol
    try:
        _check_volume_gaps(jobs.volumes(), DEFAULT_TOL)
    except DegenerateVolumesError:
        return False
    return True


solvable = ls_instances.filter(volumes_apart)

# volumes log-uniform over twelve decades
spread_instances = st.builds(lambda n, seed: generate_random(n, seed, vmin=1e-6, vmax=1e6),
                             st.integers(1, 8), st.integers(0, 2**32 - 1))


def doubled(jobs: JobSet) -> JobSet:
    return JobSet.of((2.0 * j.volume, j.requirement) for j in jobs)


@PROPERTY_SETTINGS
@given(instances)
def test_greedy_is_feasible_and_scales(jobs):
    sched = greedy(jobs)
    assert validate_schedule(jobs, sched).feasible
    twice = total_completion_time(doubled(jobs), greedy(doubled(jobs)))
    assert twice == pytest.approx(2.0 * total_completion_time(jobs, sched), rel=1e-12)


@PROPERTY_SETTINGS
@given(instances.filter(lambda jobs: np.unique(jobs.volumes()).size == len(jobs)), st.data())
def test_permuting_jobs_with_distinct_volumes_permutes_greedy(jobs, data):
    # greedy places jobs by ascending volume; only equal volumes see job order
    perm = data.draw(st.permutations(range(len(jobs))))
    sched = greedy(jobs)
    permuted = greedy(JobSet([jobs[i] for i in perm]))
    for got, i in zip(permuted.assignments, perm):
        assert np.array_equal(got.edges, sched.assignments[i].edges)
        assert np.array_equal(got.values, sched.assignments[i].values)


@PROPERTY_SETTINGS
@given(instances)
def test_waterfill_meets_every_prefix_target_and_scales(jobs):
    run = waterfill_online(jobs)
    assert run.ok
    assert validate_schedule(jobs, run.final_schedule()).feasible
    for k, sched in enumerate(prefix_schedules(run)):
        opt, _ = optimal_makespan(JobSet(jobs[:k + 1]))
        assert makespan(sched) <= COMPETITIVE_RATIO * opt * (1.0 + 1e-12)
    twice = waterfill_online(doubled(jobs))
    assert twice.ok
    assert makespan(twice.final_schedule()) == pytest.approx(
        2.0 * makespan(run.final_schedule()), rel=1e-12)


@PROPERTY_SETTINGS
@given(spread_instances)
def test_greedy_and_waterfill_are_valid_on_wide_volume_spreads(jobs):
    assert validate_schedule(jobs, greedy(jobs)).feasible
    run = waterfill_online(jobs)
    assert run.ok
    for k, sched in enumerate(prefix_schedules(run)):
        assert validate_schedule(JobSet(jobs[:k + 1]), sched).feasible
        assert makespan(sched) <= run.targets[k]


@PROPERTY_SETTINGS
@given(spread_instances)
def test_ls_exact_and_best_are_valid_on_wide_volume_spreads(jobs):
    try:
        sched, alpha, _ = ls_exact(jobs)
    except DegenerateVolumesError:
        return
    assert validate_schedule(jobs, sched).feasible
    slack = check_slackness(build_line_schedule(jobs, alpha))
    assert slack.max_violation() <= 1e-8 * max(1.0, alpha.max())
    assert validate_schedule(jobs, best_schedule(jobs)[0]).feasible


@PROPERTY_SETTINGS
@given(ls_instances)
def test_solve_alpha_meets_vol_tol_unless_volumes_near_tie(jobs):
    if not volumes_apart(jobs):
        with pytest.raises(DegenerateVolumesError):
            solve_alpha(jobs)
        return
    alpha = solve_alpha(jobs)
    vols = build_line_schedule(jobs, alpha).scheduled_volumes
    assert np.max(np.abs(vols - jobs.volumes())) <= 1e-8


def _near_tie(n: int, seed: int, exponent: float) -> JobSet:
    jobs = generate_random(n, seed)
    v = jobs.volumes()
    v[1] = v[0] * (1.0 + 10.0 ** exponent)
    return JobSet.of(zip(v, jobs.requirements()))


# job 1's volume a relative 10^[-15, -5] above job 0's
near_tied_instances = st.builds(_near_tie, st.integers(2, 8), st.integers(0, 2**32 - 1),
                                st.floats(-15.0, -5.0))


@PROPERTY_SETTINGS
@given(near_tied_instances)
def test_near_tied_volumes_raise_or_solve_and_best_stays_valid(jobs):
    try:
        alpha = solve_alpha(jobs)
    except DegenerateVolumesError:
        alpha = None
    else:
        vols = build_line_schedule(jobs, alpha).scheduled_volumes
        assert np.max(np.abs(vols - jobs.volumes())) <= DEFAULT_TOL
    sched, report = best_schedule(jobs)
    assert validate_schedule(jobs, sched, tol=1e-8).feasible
    assert (report.line_error is not None) == (alpha is None)


@PROPERTY_SETTINGS
@given(solvable)
def test_ls_exact_is_valid_and_meets_strong_duality(jobs):
    sched, _, q = ls_exact(jobs, vol_tol=1e-8)
    # volumes are met to vol_tol, so that is the tolerance validation can ask
    # for: near-tied volumes just outside the guard, such as 1 and
    # 1.000000137244776 beside 10, leave a deficit of 1.6e-9
    assert validate_schedule(jobs, sched, tol=1e-8).feasible
    assert q.volume_payoff == pytest.approx(
        q.primal_cost + q.requirement_penalty + q.capacity_penalty, rel=1e-6)
    assert q.primal_cost == pytest.approx(
        q.requirement_penalty + q.capacity_penalty, rel=1e-6)


@PROPERTY_SETTINGS
@given(solvable)
def test_best_schedule_is_valid_and_within_three_halves_of_its_bound(jobs):
    sched, report = best_schedule(jobs)
    assert validate_schedule(jobs, sched).feasible
    cost = total_completion_time(jobs, sched)
    assert cost == min(c for c in (report.greedy_cost, report.line_cost) if c is not None)
    assert cost <= 1.5 * report.bounds.best


@PROPERTY_SETTINGS
@given(ls_instances)
def test_lsapprox_is_valid_or_fails_at_the_scale_stage(jobs):
    # a long-heavy job that gets (almost) no volume from the LP intercepts
    # stops the pipeline at the scale stage; every other run validates
    try:
        sched, _ = lsapprox_report(jobs, LsApproxParams(0.5))
    except PipelineError as exc:
        assert exc.stage == "scale"
        return
    assert validate_schedule(jobs, sched).feasible


@PROPERTY_SETTINGS
@given(solvable)
def test_doubling_volumes_keeps_alpha_and_doubles_the_optimum(jobs):
    _, alpha, q = ls_exact(jobs)
    # the doubled volumes meet a doubled tolerance, so the near-tie guard
    # sees the same relative threshold
    _, alpha2, q2 = ls_exact(doubled(jobs), vol_tol=2.0 * DEFAULT_TOL)
    assert alpha2 == pytest.approx(alpha, rel=1e-6)
    assert q2.primal_cost == pytest.approx(2.0 * q.primal_cost, rel=1e-6)


@PROPERTY_SETTINGS
@given(solvable, st.data())
def test_permuting_jobs_permutes_alpha(jobs, data):
    perm = data.draw(st.permutations(range(len(jobs))))
    alpha = solve_alpha(jobs)
    permuted = solve_alpha(JobSet([jobs[i] for i in perm]))
    assert permuted == pytest.approx(alpha[perm], rel=1e-6)


@PROPERTY_SETTINGS
@given(solvable, st.data())
def test_permuting_jobs_keeps_the_fractional_optima(jobs, data):
    # the slot LP and the exact line schedule price jobs, not positions;
    # both moved by at most 4e-15 relative over 1000 examples
    perm = data.draw(st.permutations(range(len(jobs))))
    permuted = JobSet([jobs[i] for i in perm])
    horizon = len(jobs) * jobs.max_processing_time()
    lp_opt, ls_opt = [], []
    for js in (jobs, permuted):
        lp_opt.append(solve_lp(build_discretized_lp(js, horizon=horizon,
                                                    slot_width=horizon / 64)).objective)
        ls_opt.append(ls_exact(js, vol_tol=1e-8)[2].primal_cost)
    assert lp_opt[1] == pytest.approx(lp_opt[0], rel=1e-12)
    assert ls_opt[1] == pytest.approx(ls_opt[0], rel=1e-12)


def _min_horizon(v, r) -> float:
    """Shortest horizon the slot LP's demands fit in: every job subset S
    needs ``v(S) <= horizon * min(1, r(S))``."""
    n = v.size
    need = 0.0
    for mask in range(1, 2 ** n):
        s = np.array([(mask >> j) & 1 for j in range(n)], dtype=bool)
        need = max(need, v[s].sum() / min(1.0, r[s].sum()))
    return need


@st.composite
def slot_lps(draw):
    """Slot LPs of 1-6 jobs on 8-256 slots, from a tight horizon to 3x slack.

    Some volumes tie or nearly tie, which makes ``solve_alpha`` refuse the
    seed and ``solve_lp`` start from one block.
    """
    jobs = draw(st.lists(
        st.tuples(st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
                  st.one_of(st.just(1.0), st.floats(-1.0, 0.0).map(lambda e: 10.0 ** e))),
        min_size=1, max_size=6))
    v = np.array([a for a, _ in jobs])
    r = np.array([b for _, b in jobs])
    if v.size > 1 and draw(st.booleans()):
        v[1] = v[0] * (1.0 + draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9])))
    horizon = _min_horizon(v, r) * draw(st.floats(1.0, 3.0))
    slots = draw(st.integers(8, 256))
    return build_discretized_lp(JobSet.of(zip(v, r)), horizon, horizon / slots)


@PROPERTY_SETTINGS
@given(slot_lps())
def test_solve_lp_matches_linprog_and_certifies_itself(inst):
    linprog = pytest.importorskip("scipy.optimize").linprog
    n, m, d = inst.n_jobs, inst.n_slots, inst.slot_width
    v, r = inst.jobs.volumes(), inst.jobs.requirements()
    sol = solve_lp(inst)
    cost = (inst.slot_midpoints()[None, :] / v[:, None]).ravel()
    demand = -np.kron(np.eye(n), np.ones(m))
    capacity = np.kron(np.ones(n), np.eye(m))
    ref = linprog(cost, A_ub=np.vstack([demand, capacity]),
                  b_ub=np.concatenate([-v, np.full(m, d)]),
                  bounds=[(0.0, rj * d) for rj in r for _ in range(m)], method="highs")
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-12)
    assert sol.certificate_gap <= 1e-9 * max(1.0, abs(sol.objective))
    V = sol.volumes
    assert np.all(V >= -1e-12)
    assert np.all(V <= r[:, None] * d * (1.0 + 1e-9))
    assert np.all(V.sum(axis=0) <= d * (1.0 + 1e-9))
    assert np.all(V.sum(axis=1) >= v - 1e-9 * np.maximum(1.0, v))
