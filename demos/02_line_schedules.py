#!/usr/bin/env python3
"""Priority-line schedules and their primal-dual structure.

Give every job a line d_j(t) = alpha_j - t / v_j and, at each instant, pack
jobs whose line is above zero greedily in descending line height.  The line
intercepts that make every job schedule exactly its volume turn the schedule
into an optimal solution of the fractional completion-time program, and the
construction hands back the dual prices for free.
"""

import pathlib

import numpy as np

import sharesched as ss
from sharesched.cli import render_svg

OUT = pathlib.Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

jobs = ss.JobSet.of([(1.0, 0.75), (4.0, 0.5), (6.0, 2.0 / 3.0)])
print("three jobs: (v, r) =", [(j.volume, j.requirement) for j in jobs])

print()
print("solving for intercepts that schedule the volumes exactly...")
alpha = ss.solve_alpha(jobs)
print("  alpha =", alpha, " (exact values: 51/16, 39/16, 31/16)")

ls = ss.build_line_schedule(jobs, alpha)
print("  breakpoints:", np.round(ls.grid, 6).tolist())
print("  scheduled volumes:", ls.scheduled_volumes.tolist())
print("  completions:", ls.schedule.completion_times().tolist(),
      " (each equals alpha_j * v_j or earlier)")

print()
print("the same object carries the dual prices:")
gamma, beta = ls.prices(0.5)
print("  capacity price gamma at t=0.5:", round(gamma, 6))
print("  cap price beta_2 at t=0.5:", round(float(beta[1]), 6))
q = ss.duality_quantities(ls)
print(f"  primal cost            P = {q.primal_cost}")
print(f"  volume payoff          A = {q.volume_payoff}")
print(f"  requirement penalty    B = {q.requirement_penalty}")
print(f"  capacity penalty       G = {q.capacity_penalty}")
print(f"  strong duality  A = P + B + G: "
      f"{abs(q.volume_payoff - (q.primal_cost + q.requirement_penalty + q.capacity_penalty)):.2e}")
print(f"  balancedness    P = B + G:     "
      f"{abs(q.primal_cost - (q.requirement_penalty + q.capacity_penalty)):.2e}")
print("  (so the completion total is at most A = 2P, twice the fractional optimum)")

report = ss.check_slackness(ls)
print(f"  max slackness violation: {report.max_violation():.2e}")

print()
print("the cost rate sum_j R_j(t)/v_j only ever decreases:")
rates = ss.cost_rates_on_grid(ls)
print("  per-interval cost rates:", np.round(rates, 5).tolist())

svg = render_svg(jobs, ls.schedule, alpha=alpha)
(OUT / "line_schedule.svg").write_text(svg)
print(f"\nschedule with the priority lines overlaid -> {OUT / 'line_schedule.svg'}")

print()
print("arbitrary nonnegative intercepts still form a primal-dual pair, just")
print("for different scheduled volumes:")
rng = np.random.default_rng(4)
wild = rng.uniform(0.2, 4.0, 3)
ls2 = ss.build_line_schedule(jobs, wild)
q2 = ss.duality_quantities(ls2)
print("  alpha =", np.round(wild, 4).tolist(),
      "-> volumes", np.round(ls2.scheduled_volumes, 4).tolist())
print(f"  A - (P+B+G) = "
      f"{q2.volume_payoff - (q2.primal_cost + q2.requirement_penalty + q2.capacity_penalty):.2e}")
