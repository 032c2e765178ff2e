#!/usr/bin/env python3
"""The slot LP: discretizing the fractional problem and reading its duals.

Cutting time into equal slots turns the continuous program into an LP over
per-slot volumes, priced at slot midpoints.  Its optimum converges linearly
to the fractional optimum as slots shrink, and the demand duals converge to
the line-schedule intercepts, which is exactly how the approximation
pipeline obtains intercepts in polynomial time.
"""

import numpy as np

import sharesched as ss

jobs = ss.JobSet.of([(1.0, 0.75), (4.0, 0.5), (6.0, 2.0 / 3.0)])
alpha_star = ss.solve_alpha(jobs)
_, _, q = ss.ls_exact(jobs)
print(f"fractional optimum (exact line schedule): {q.primal_cost}")
print(f"exact intercepts: {np.round(alpha_star, 6).tolist()}")

horizon = len(jobs) * jobs.max_processing_time()
print(f"\nhorizon n * p_max = {horizon}; shrinking the slot width:")
print(f"  {'slots':>6} {'objective':>12} {'gap':>10} {'alpha error':>12} {'duality gap':>12}")
prev_gap = None
for slots in (64, 128, 256, 512, 1024, 2048):
    inst = ss.build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / slots)
    sol = ss.solve_lp(inst)
    gap = sol.objective - q.primal_cost
    aerr = float(np.max(np.abs(sol.alpha - alpha_star)))
    dual = abs(sol.objective - sol.dual_objective)
    note = f" ({prev_gap / gap:.2f}x smaller)" if prev_gap and gap > 0 else ""
    print(f"  {slots:>6} {sol.objective:>12.6f} {gap:>10.2e} {aerr:>12.2e} "
          f"{dual:>12.2e}{note}")
    prev_gap = gap

print("\nthe realized slot schedule is feasible and its exact fractional")
print("cost equals the LP objective (midpoint pricing is exact for")
print("slot-constant rates):")
inst = ss.build_discretized_lp(jobs, horizon=horizon, slot_width=horizon / 512)
sol = ss.solve_lp(inst)
sched = ss.lp_schedule(sol)
_, realized = ss.fractional_completion_time(jobs, sched)
print(f"  LP objective {sol.objective:.8f} vs realized {realized:.8f}")
print(f"  feasible: {ss.validate_schedule(jobs, sched).feasible}")

print("\nfor very small instances the plain-text dump is handy for")
print("cross-checking with any external solver:")
tiny = ss.build_discretized_lp(ss.JobSet.of([(1.0, 0.5)]), horizon=2.0, slot_width=1.0)
print("  " + "\n  ".join(ss.dump_lp(tiny).strip().split("\n")))
