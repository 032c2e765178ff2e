"""The benchmark's checks accept the program's outputs and reject corrupted ones.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from sharesched import JobSet, lp, tct, waterfill  # noqa: E402
from workloads import MU, lhs_jobs  # noqa: E402


def _instance(seed, n=5):
    v, r = lhs_jobs(np.random.default_rng(seed), n)
    return v, r, JobSet.of(zip(v.tolist(), r.tolist()))


def _steps(sched):
    return [(a.edges, a.values) for a in sched.assignments]


# -- the program's outputs pass -------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_accepts_online_and_greedy(seed):
    v, r, jobs = _instance(seed, 12)
    run = waterfill.waterfill_online(jobs)
    assert run.ok
    online = _steps(run.final_schedule())
    assert checks.feasibility_errors(v, r, online) == []
    assert checks.online_deadline_errors(v, r, online) == []
    offline = _steps(tct.greedy(jobs))
    bound = checks.squashed_area_bound(v) + checks.total_length_bound(v, r)
    assert checks.feasibility_errors(v, r, offline) == []
    assert checks.cost_errors(v, r, offline, bound) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_accepts_best_schedule_and_its_fractional_optimum(seed):
    v, r, jobs = _instance(seed)
    sched, report = tct.best_schedule(jobs)
    steps = _steps(sched)
    frac = report.bounds.fractional_plus_half_length - 0.5 * report.bounds.total_length
    assert checks.feasibility_errors(v, r, steps) == []
    assert checks.cost_errors(v, r, steps, 1.5 * report.bounds.best) == []
    assert checks.fractional_lp_errors(v, r, frac) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_accepts_lsapprox_and_its_slot_lp(seed):
    v, r, jobs = _instance(seed, 3)
    v = np.append(v, 0.5)
    r = np.append(r, MU / 4 * 0.5)          # one light job
    jobs = JobSet.of(zip(v.tolist(), r.tolist()))
    sched, info = tct.lsapprox_report(jobs, tct.LsApproxParams(0.5))
    steps = _steps(sched)
    assert checks.feasibility_errors(v, r, steps, exact_volume=False) == []
    assert checks.lsapprox_errors(v, r, steps, MU) == []
    heavy = checks.long_heavy(v, r, MU)
    assert sorted(info.subdivision.long_heavy) == np.flatnonzero(heavy).tolist()
    heavy_jobs = JobSet(jobs[i] for i in np.flatnonzero(heavy))
    sol = lp.solve_lp(lp.build_discretized_lp(heavy_jobs, horizon=info.horizon,
                                              slot_width=info.slot_width))
    assert checks.slot_lp_match_errors(v[heavy], r[heavy], sol.objective,
                                       info.horizon, 1024) == []


# -- corrupted outputs fail -----------------------------------------------------

V = np.array([1.0, 2.0])
R = np.array([0.5, 1.0])


def _good():
    # job 0 at its cap 0.5 on [0, 2); job 1 at 0.5 on [0, 4)
    return [(np.array([0.0, 2.0]), np.array([0.5])),
            (np.array([0.0, 4.0]), np.array([0.5]))]


def test_hand_schedule_is_feasible():
    assert checks.feasibility_errors(V, R, _good()) == []


def test_rejects_rate_above_cap():
    steps = _good()
    steps[0] = (np.array([0.0, 1.0 / 0.6]), np.array([0.6]))
    assert any("above its cap" in e for e in checks.feasibility_errors(V, R, steps))


def test_rejects_overuse():
    steps = _good()
    steps[1] = (np.array([0.0, 1.0, 2.5]), np.array([0.8, 0.8]))
    assert any("overuse" in e for e in checks.feasibility_errors(V, R, steps))


def test_rejects_volume_deficit_and_surplus():
    short = _good()
    short[1] = (np.array([0.0, 3.9]), np.array([0.5]))
    assert any("deficit" in e for e in checks.feasibility_errors(V, R, short))
    long = _good()
    long[1] = (np.array([0.0, 4.1]), np.array([0.5]))
    assert any("surplus" in e for e in checks.feasibility_errors(V, R, long))
    assert checks.feasibility_errors(V, R, long, exact_volume=False) == []


def test_rejects_malformed_breakpoints():
    steps = _good()
    steps[0] = (np.array([0.0, 2.0, 2.0]), np.array([0.5, 0.5]))
    assert any("malformed" in e for e in checks.feasibility_errors(V, R, steps))


def test_rejects_job_after_online_deadline():
    # prefix optima are 2 and 3; job 0 may run until 2e/(e-1) = 3.16
    steps = _good()
    assert checks.online_deadline_errors(V, R, steps) == []
    steps[0] = (np.array([0.0, 4.0]), np.array([0.25]))
    errors = checks.online_deadline_errors(V, R, steps)
    assert len(errors) == 1 and errors[0].startswith("job 0 ")


def test_rejects_cost_below_lower_bound():
    # both jobs at full rate at once: completion total 1 + 2 = 3 is below the
    # total-length bound 2 + 2 = 4 (and the schedule is infeasible)
    steps = [(np.array([0.0, 1.0]), np.array([1.0])),
             (np.array([0.0, 2.0]), np.array([1.0]))]
    assert any("below the lower bound" in e for e in checks.cost_errors(V, R, steps))
    assert any("above the 3/2" in e for e in
               checks.cost_errors(V, R, _good(), 1.0, "3/2 certificate"))


def test_rejects_broken_lsapprox_split():
    v = np.array([1.0, 2.0, 0.5])
    r = np.array([0.5, 1.0, MU / 3 * 0.5])      # job 2 is light
    rate = r[2]
    steps = [(np.array([0.0, 2.0 / (1 - MU)]), np.array([0.5 * (1 - MU)])),
             (np.array([0.0, 4.0 / (1 - MU)]), np.array([0.5 * (1 - MU)])),
             (np.array([0.0, v[2] / rate]), np.array([rate]))]
    assert checks.lsapprox_errors(v, r, steps, MU) == []
    greedy_heavy = [(np.array([0.0, 2.0]), np.array([0.5]))] + steps[1:]
    assert any("share" in e for e in checks.lsapprox_errors(v, r, greedy_heavy, MU))
    late_light = steps[:2] + [(np.array([0.0, 1.0, 1.0 + v[2] / rate]), np.array([0.0, rate]))]
    assert any("constant rate" in e for e in checks.lsapprox_errors(v, r, late_light, MU))


def test_rejects_wrong_fractional_optimum_and_lp_objective():
    v, r, jobs = _instance(4)
    _, _, q = tct.ls_exact(jobs)
    assert checks.fractional_lp_errors(v, r, q.primal_cost) == []
    assert checks.fractional_lp_errors(v, r, 1.01 * q.primal_cost + 1.0) != []
    horizon = v.size * float((v / r).max())
    gap = v.size * horizon / 256 / 2          # the stated gap at 256 slots
    assert checks.fractional_lp_errors(v, r, q.primal_cost - 2 * gap) != []
    ref = checks.slot_lp_optimum(v, r, horizon, 64)
    assert checks.slot_lp_match_errors(v, r, ref, horizon, 64) == []
    assert checks.slot_lp_match_errors(v, r, ref * (1 + 1e-4), horizon, 64) != []


def test_bounds_closed_forms():
    assert checks.squashed_area_bound([2.0, 1.0]) == 4.0
    assert checks.total_length_bound(V, R) == 4.0
    assert checks.makespan_optimum(V, R) == 3.0
    assert checks.prefix_optima(V, R).tolist() == [2.0, 3.0]
    assert math.isclose(checks.E_RATIO, math.e / (math.e - 1))


def test_cli_output_check_accepts_runs_and_rejects_a_wrong_record(tmp_path):
    from sharesched import cli
    from workloads import CLI_ALGOS, _check_cli_output, _write_instance

    v, r, _ = _instance(5, 4)
    inst = str(tmp_path / "inst.json")
    _write_instance(inst, v, r)
    record, schedule = str(tmp_path / "record.json"), str(tmp_path / "schedule.json")
    for algo in CLI_ALGOS:
        assert cli.main(["run", algo, "--input", inst, "--record", record,
                         "--schedule-out", schedule]) == 0
        steps, errors = _check_cli_output(v, r, algo, record, schedule)
        assert errors == [] and len(steps) == v.size
    text = open(record).read()
    with open(record, "w") as fh:
        fh.write(text.replace('"total_completion_time": ', '"total_completion_time": 1'))
    _, errors = _check_cli_output(v, r, "best", record, schedule)
    assert any("record's total completion time" in e for e in errors)
