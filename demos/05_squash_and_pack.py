#!/usr/bin/env python3
"""The squash-and-pack approximation pipeline, stage by stage.

For a (3/2 + eps)-approximation in polynomial time, the exact fixed point is
replaced by LP duals: split off jobs that are cheap to finish, solve the slot
LP for the rest, rebuild a line schedule from the LP intercepts, stretch it
until every volume completes, squash it into a 1 - mu share of the resource,
and park the cheap jobs on the reserved mu share from time zero.
"""

import pathlib

import numpy as np

import sharesched as ss
from sharesched.cli import render_svg

OUT = pathlib.Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

jobs = ss.JobSet.of([
    (0.4, 0.004),    # tiny requirement: light
    (6.0, 2 / 3),
    (4.0, 0.5),
    (1.0, 0.75),
])
params = ss.LsApproxParams(epsilon=0.5)
print(f"requested eps = {params.epsilon}, effective mu = {params.mu} "
      f"(rounded down so 1/mu is an integer)")

sub = ss.subdivide(jobs, params.mu)
n = len(jobs)
print(f"\nstage 1 - subdivision at thresholds mu/n = {params.mu / n:.5f} and "
      f"(mu/n)^2 * p_max = {(params.mu / n) ** 2 * jobs.max_processing_time():.2e}:")
print(f"  light {sorted(sub.light)}, short-heavy {sorted(sub.short_heavy)}, "
      f"long-heavy {sorted(sub.long_heavy)}")

sched, info = ss.lsapprox_report(jobs, params)
print(f"\nstage 2 - slot LP on the long-heavy jobs: horizon {info.horizon:.2f}, "
      f"slot width {info.slot_width:.4f}")
print(f"  (guarantee-grade width would be {info.guarantee_slot_width:.3e}; the")
print("   analysis needs it, the construction works at any width)")
print(f"  LP solved in {info.lp_rounds} refinement rounds, {info.lp_pivots} pivots, "
      f"{info.lp_blocks} blocks")

print(f"\nstage 3+4 - line schedule from LP intercepts, stretched by "
      f"s = {info.scale_factor:.6f} so every volume completes")
print(f"stage 5 - squashed vertically to a {1 - info.mu:.3f} resource share")
print(f"stage 6 - light/short-heavy parked at min(mu/n, r_j) from time 0")

report = ss.validate_schedule(jobs, sched)
usage = sched.total_usage()
heavy_usage = ss.sum_steps([sched.assignments[i] for i in sorted(sub.long_heavy)])
print("\nresult:")
print(f"  feasible: {report.feasible}")
print(f"  volumes scheduled: {np.round(sched.volumes(), 6).tolist()}")
print(f"  long-heavy usage peak: {heavy_usage.values.max():.4f} "
      f"(reserved cap {1 - info.mu:.4f})")
print(f"  total usage peak: {usage.values.max():.4f}")
print(f"  light job runs at {sched.assignments[0].values[0]:.5f} from t=0 "
      f"until {sched.assignments[0].support_end:.1f}")

cost = ss.total_completion_time(jobs, sched)
greedy_cost = ss.total_completion_time(jobs, ss.greedy(jobs))
_, _, q = ss.ls_exact(jobs)
print(f"\n  pipeline completion total: {cost:.3f}")
print(f"  greedy completion total:   {greedy_cost:.3f}")
print(f"  fractional floor:          {q.primal_cost:.3f}")
best, rep = ss.best_schedule(jobs, params)
print(f"  best-of-both picks {rep.chosen!r} -> "
      f"{ss.total_completion_time(jobs, best):.3f}")

svg = render_svg(jobs, sched)
(OUT / "squash_and_pack.svg").write_text(svg)
print(f"\nstacked picture -> {OUT / 'squash_and_pack.svg'}")
