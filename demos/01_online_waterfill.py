#!/usr/bin/env python3
"""Online makespan with water-filling.

Jobs arrive one at a time; each must receive its whole future resource
profile immediately.  Pouring every arrival at the lowest water level that
meets a deadline of e/(e-1) times the current offline optimum is optimal:
no deterministic online rule can guarantee a smaller factor.

This script shows (1) the pour on a small arrival sequence, (2) measured
prefix ratios on random sequences, and (3) what happens to a ratio below
e/(e-1) on the hard instance family that pins the constant.
"""

import pathlib

import numpy as np

import sharesched as ss
from sharesched.cli import render_svg

OUT = pathlib.Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

print("=" * 72)
print("1. A small arrival sequence, poured step by step")
print("=" * 72)
jobs = ss.JobSet.of([(1.0, 1.0), (2.0, 0.4), (0.5, 0.9), (3.0, 0.35)])
run = ss.waterfill_online(jobs)
final = run.final_schedule()
for k, (job, level, target, opt) in enumerate(
        zip(jobs, run.levels, run.targets, run.prefix_optima)):
    # each assignment is fixed on arrival: prefix k is the first k + 1
    sched = ss.Schedule(final.assignments[:k + 1])
    print(f"  job {k}: v={job.volume:<4} r={job.requirement:<5} "
          f"deadline={target:7.3f}  water level={level:.3f}  "
          f"makespan={ss.makespan(sched):7.3f}  offline opt={opt:.3f}")
print(f"  final makespan {ss.makespan(final):.3f} vs offline optimum "
      f"{run.prefix_optima[-1]:.3f} "
      f"(ratio {ss.makespan(final) / run.prefix_optima[-1]:.4f}, "
      f"guarantee {ss.COMPETITIVE_RATIO:.4f})")
svg = render_svg(jobs, final)
(OUT / "waterfill_pour.svg").write_text(svg)
print(f"  stacked-area picture -> {OUT / 'waterfill_pour.svg'}")

print()
print("=" * 72)
print("2. Prefix competitive ratios over 100 random arrival sequences")
print("=" * 72)
worst = 0.0
for seed in range(100):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 16))
    v = np.exp(rng.uniform(np.log(0.1), np.log(10), n))
    r = 1.0 - rng.uniform(0.0, 0.95, n)
    run = ss.waterfill_online(ss.JobSet.of(zip(v, r)))
    assert run.ok
    final = run.final_schedule()
    for k in range(final.n_jobs):
        prefix = ss.Schedule(final.assignments[:k + 1])
        worst = max(worst, ss.makespan(prefix) / run.prefix_optima[k])
print(f"  worst prefix ratio observed: {worst:.6f}")
print(f"  theoretical guarantee:       {ss.COMPETITIVE_RATIO:.6f}")

print()
print("=" * 72)
print("3. Why the constant is exactly e/(e-1)")
print("=" * 72)
print("  the hard family: n jobs, each of volume 1/n, with requirements")
print("  1, 1/2, 1/3, ...; the j-th prefix optimum is j/n")
n = 500
for ratio in (1.40, 1.50, 1.55, 1.57, ss.COMPETITIVE_RATIO):
    run = ss.waterfill_online(ss.adversarial_instance(n), ratio=ratio)
    where = "succeeds" if run.ok else f"fails at job {run.failure_index}"
    print(f"  target ratio {ratio:.6f}: {where}")
print("  every target below e/(e-1) eventually fails; at e/(e-1) the pour")
print("  always fits, because each prefix stays flatter than the universal")
print("  reference shape of the same volume:")
final = ss.waterfill_online(ss.adversarial_instance(40)).final_schedule()
volume = 0.0
flat = []
for k in range(final.n_jobs):
    volume += 1.0 / 40
    flat.append(ss.flatter_than_universal(ss.Schedule(final.assignments[:k + 1]), volume))
print(f"  prefixes flatter than the reference on n=40: {all(flat)}")

u = ss.UniversalSchedule(1.0)
print(f"  reference shape for volume 1: full resource until "
      f"{u.plateau_end:.4f}, log roll-off until {u.support_end:.4f}")
print(f"  area above height y: (e^(1-y) - 1)/(e-1), e.g. y=0.5 -> "
      f"{u.upper_area(0.5):.4f}")
