"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes.  Shared fixtures cache the 200-instance line-schedule pool so
the timed criteria measure algorithm work, not fixture rebuilds.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import sharesched as ss

from conftest import prefix_schedules, random_instance

RATIO = ss.COMPETITIVE_RATIO
THREE_JOBS = ss.JobSet.of([(1.0, 0.75), (4.0, 0.5), (6.0, 2.0 / 3.0)])
ALPHA_EXPECTED = np.array([51.0 / 16.0, 39.0 / 16.0, 31.0 / 16.0])


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@dataclass
class PoolEntry:
    jobs: ss.JobSet
    alpha: np.ndarray
    solved: ss.LineSchedule
    randomized: ss.LineSchedule


@pytest.fixture(scope="module")
def pool():
    """Solved and random-intercept line schedules for seeds 0..199, n <= 8."""
    entries = []
    t0 = time.perf_counter()
    for seed in range(200):
        jobs = random_instance(seed, 8)
        assert np.unique(jobs.volumes()).size == len(jobs)
        alpha = ss.solve_alpha(jobs, vol_tol=1e-8)
        solved = ss.build_line_schedule(jobs, alpha)
        rng = np.random.default_rng(seed + 20_000)
        rand_alpha = rng.uniform(0.0, 1.5 / jobs.requirements().min(), len(jobs))
        randomized = ss.build_line_schedule(jobs, rand_alpha)
        entries.append(PoolEntry(jobs, alpha, solved, randomized))
    build_seconds = time.perf_counter() - t0
    return entries, build_seconds


def test_criterion_1_worked_example_line_schedule():
    t0 = time.perf_counter()
    ls = ss.build_line_schedule(THREE_JOBS, ALPHA_EXPECTED)
    elapsed = time.perf_counter() - t0
    breaks_ok = all(np.min(np.abs(ls.grid - t)) <= 1e-9 for t in (1.0, 1.5, 6.0))
    vols_ok = np.max(np.abs(ls.scheduled_volumes - [1.0, 4.0, 6.0])) <= 1e-9
    _report(1, "worked-example breakpoints 1, 3/2, 6 and volumes (1, 4, 6)",
            breaks_ok and vols_ok and elapsed < 1.0,
            f"elapsed {elapsed * 1e3:.1f} ms")


def test_criterion_2_fixed_point_recovery():
    t0 = time.perf_counter()
    alpha = ss.solve_alpha(THREE_JOBS, vol_tol=1e-8)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(alpha - ALPHA_EXPECTED)))
    _report(2, "intercepts recovered to 1e-6 from volume targets",
            err <= 1e-6 and elapsed < 1.0,
            f"max error {err:.2e}, elapsed {elapsed * 1e3:.1f} ms")


def test_criterion_3_duality_and_slackness_suite(pool):
    entries, build_seconds = pool
    t0 = time.perf_counter()
    worst_strong = worst_balance = worst_slack = 0.0
    for entry in entries:
        for ls in (entry.solved, entry.randomized):
            q = ss.duality_quantities(ls)
            if q.volume_payoff > 0:
                lhs = abs(q.volume_payoff
                          - (q.primal_cost + q.requirement_penalty + q.capacity_penalty))
                worst_strong = max(worst_strong, lhs / q.volume_payoff)
            if q.primal_cost > 0:
                lhs = abs(q.primal_cost - (q.requirement_penalty + q.capacity_penalty))
                worst_balance = max(worst_balance, lhs / q.primal_cost)
            worst_slack = max(worst_slack,
                              ss.check_slackness(ls).max_violation())
    elapsed = build_seconds + (time.perf_counter() - t0)
    ok = worst_strong <= 1e-6 and worst_balance <= 1e-6 and worst_slack <= 1e-7
    _report(3, "strong duality, balancedness, and slackness on 200 instances",
            ok and elapsed < 30.0,
            f"duality {worst_strong:.2e}, balance {worst_balance:.2e}, "
            f"slackness {worst_slack:.2e}, elapsed {elapsed:.1f} s")


def test_criterion_4_fractionality_gap(pool):
    entries, _ = pool
    ok = True
    worst_gap = 0.0
    for entry in entries:
        sched = entry.solved.schedule
        cost = ss.total_completion_time(entry.jobs, sched)
        q = ss.duality_quantities(entry.solved)
        if cost > 2.0 * q.primal_cost * (1.0 + 1e-6):
            ok = False
        worst_gap = max(worst_gap, cost / q.primal_cost if q.primal_cost else 0.0)
        ct = sched.completion_times()
        if not np.all(ct <= entry.alpha * entry.jobs.volumes() + 1e-8):
            ok = False
    _report(4, "completion cost within twice the fractional cost, "
               "completions below the line zeros", ok,
            f"worst cost ratio {worst_gap:.4f}")


def test_criterion_5_greedy_bound():
    worst = 0.0
    ok = True
    for seed in range(500):
        jobs = random_instance(seed, 12)
        cost = ss.total_completion_time(jobs, ss.greedy(jobs))
        b = ss.lower_bounds(jobs)
        cap = b.squashed_area + b.total_length
        worst = max(worst, cost / cap)
        if cost > cap * (1.0 + 1e-9):
            ok = False
    cost3 = ss.total_completion_time(THREE_JOBS, ss.greedy(THREE_JOBS))
    b3 = ss.lower_bounds(THREE_JOBS)
    exact = (abs(cost3 - 133.0 / 6.0) <= 1e-12 * (133.0 / 6.0)
             and b3.squashed_area == 17.0
             and abs(b3.total_length - 55.0 / 3.0) <= 1e-12 * (55.0 / 3.0))
    _report(5, "greedy cost within squashed-area + length bound on 500 instances",
            ok and exact, f"worst cost/(C_A + C_L) {worst:.4f}")


def test_criterion_6_combined_approximation_chain(pool):
    entries, _ = pool
    ok = True
    worst = 0.0
    for entry in entries:
        greedy_cost = ss.total_completion_time(entry.jobs, ss.greedy(entry.jobs))
        line_cost = ss.total_completion_time(entry.jobs, entry.solved.schedule)
        q = ss.duality_quantities(entry.solved)
        b = ss.lower_bounds(entry.jobs, fractional_opt=q.primal_cost)
        bound = max(b.squashed_area, b.total_length, b.fractional_plus_half_length)
        ratio = min(greedy_cost, line_cost) / bound
        worst = max(worst, ratio)
        if min(greedy_cost, line_cost) > 1.5 * bound * (1.0 + 1e-6):
            ok = False
    _report(6, "best of greedy and line schedule within 1.5x the best bound",
            ok, f"worst measured ratio {worst:.4f}")


def test_criterion_7_online_competitiveness_and_flatness():
    ok = True
    worst_ratio = 0.0
    for seed in range(200):
        jobs = random_instance(seed, 20)
        run = ss.waterfill_online(jobs)
        if not run.ok:
            ok = False
            break
        volume = 0.0
        for k, sched in enumerate(prefix_schedules(run)):
            volume += jobs[k].volume
            ratio_k = ss.makespan(sched) / run.prefix_optima[k]
            worst_ratio = max(worst_ratio, ratio_k)
            if ss.makespan(sched) > RATIO * run.prefix_optima[k] + 1e-9:
                ok = False
            if not ss.flatter_than_universal(sched, volume):
                ok = False
    _report(7, "every online prefix meets the target ratio and stays flatter "
               "than the universal shape", ok,
            f"worst prefix ratio {worst_ratio:.6f} vs {RATIO:.6f}")


def test_criterion_8_ratio_threshold_on_adversarial_family():
    t0 = time.perf_counter()
    low = ss.waterfill_online(ss.adversarial_instance(500), ratio=1.55)
    exact = ss.waterfill_online(ss.adversarial_instance(500))
    elapsed = time.perf_counter() - t0
    _report(8, "ratio 1.55 fails on the 500-job family, e/(e-1) succeeds",
            low.failure_index is not None and exact.ok and elapsed < 10.0,
            f"failure at job {low.failure_index}, elapsed {elapsed:.1f} s")


def test_criterion_9_lp_oracle_agreement():
    ok = True
    worst_rel = 0.0
    worst_shrink = math.inf
    worst_duality = 0.0
    for seed in range(20):
        jobs = random_instance(9_000 + seed, 4)
        _, _, q = ss.ls_exact(jobs)
        fractional = q.primal_cost
        horizon = len(jobs) * jobs.max_processing_time()
        gaps = {}
        for slots in (2048, 4096):
            inst = ss.build_discretized_lp(jobs, horizon=horizon,
                                           slot_width=horizon / slots)
            sol = ss.solve_lp(inst)
            gaps[slots] = abs(sol.objective - fractional)
            if sol.objective > 0:
                worst_duality = max(
                    worst_duality,
                    abs(sol.objective - sol.dual_objective) / sol.objective)
        rel = gaps[2048] / fractional
        worst_rel = max(worst_rel, rel)
        if rel > 0.02:
            ok = False
        if gaps[4096] > 1e-12 * max(1.0, fractional):
            shrink = gaps[2048] / gaps[4096]
            worst_shrink = min(worst_shrink, shrink)
            if shrink < 1.8:
                ok = False
    if worst_duality > 1e-7:
        ok = False
    _report(9, "slot LP tracks the fractional optimum and halving the width "
               "shrinks the gap 1.8x", ok,
            f"worst rel gap {worst_rel:.2e}, worst shrink {worst_shrink:.2f}, "
            f"duality {worst_duality:.2e}")


def test_criterion_10_approximation_pipeline_end_to_end():
    ok = True
    for seed in range(50):
        jobs = random_instance(10_000 + seed, 6, r_floor=0.002)
        n = len(jobs)
        horizon = n * jobs.max_processing_time()
        params = ss.LsApproxParams(0.5, slot_width=horizon / 512)
        sched, info = ss.lsapprox_report(jobs, params)
        if not ss.validate_schedule(jobs, sched).feasible:
            ok = False
        if not np.all(sched.volumes() >= jobs.volumes() * (1.0 - 1e-6)):
            ok = False
        for idx in sorted(info.subdivision.light | info.subdivision.short_heavy):
            a = sched.assignments[idx]
            want = min(info.mu / n, jobs[idx].requirement)
            if a.values.size != 1 or abs(a.values[0] - want) > 1e-12 or a.edges[0] != 0.0:
                ok = False
        heavy = [sched.assignments[i] for i in sorted(info.subdivision.long_heavy)]
        usage = ss.sum_steps(heavy)
        if usage.values.size and usage.values.max() > 1.0 - info.mu + 1e-12:
            ok = False
    _report(10, "pipeline schedules are feasible, complete volumes, and "
                "respect the reserved share on 50 instances", ok)


def test_criterion_11_cost_rate_monotone(pool):
    entries, _ = pool
    ok = True
    worst = -math.inf
    schedules = [ss.build_line_schedule(THREE_JOBS, ALPHA_EXPECTED)]
    for entry in entries:
        schedules.extend([entry.solved, entry.randomized])
    for ls in schedules:
        rates = ss.cost_rates_on_grid(ls)
        if rates.size > 1:
            step = float(np.max(np.diff(rates)))
            worst = max(worst, step)
            if step > 1e-9:
                ok = False
    _report(11, "cost rate is non-increasing on every produced line schedule",
            ok, f"largest increase {worst:.2e}")
