"""Command-line harness: generate instances, run algorithms, verify,
compare, and plot.

Commands: ``gen | run | verify | compare | plot``.  Exit codes: 0 success,
2 usage error, 3 algorithm failure, 4 validation failure.  All numeric flag
values are echoed (after rounding) in the emitted records so runs are
reproducible from their outputs alone.

The argument parser is built once per process, so ``main(argv)`` may be
called repeatedly in-process; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import glob as globmod
import sys
import time

import numpy as np

from . import core, linesched, lp, tct, waterfill as mk
from .core import JobSet, Schedule

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ALGO = 3
EXIT_INVALID = 4

CSV_HEADER = "instance,algo,n,makespan,tct,ftct,c_a,c_l,lb3,ratio_best,wall_ms,seed"

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
]


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# -- gen ---------------------------------------------------------------------


def generate_random(n: int, seed: int, vmin: float = 0.1, vmax: float = 10.0,
                    rmin: float = 0.05, rmax: float = 1.0) -> JobSet:
    """Log-uniform volumes in [vmin, vmax], requirements in (rmin, rmax].

    Deterministic per seed.
    """
    if min(n, seed) < 0:
        raise core.ContractError(f"n and seed must be nonnegative, got {n}, {seed}")
    if not (min(vmin, vmax) > 0.0 and np.isfinite([vmin, vmax]).all()):
        raise core.ContractError(f"vmin and vmax must be positive and finite, got {vmin}, {vmax}")
    rng = np.random.default_rng(seed)
    v = np.exp(rng.uniform(np.log(vmin), np.log(vmax), n))
    r = rmax - rng.uniform(0.0, rmax - rmin, n)
    return JobSet.of(zip(v, r))


def _cmd_gen(args) -> int:
    if args.kind == "adversarial":
        jobs = mk.adversarial_instance(args.n)
    elif args.kind == "random":
        jobs = generate_random(args.n, args.seed, args.vmin, args.vmax,
                               args.rmin, args.rmax)
    else:  # file: re-emit canonically
        if not args.path:
            print("gen file requires --path", file=sys.stderr)
            return EXIT_USAGE
        jobs = core.jobs_from_json(_read(args.path))
    _write(args.out, core.jobs_to_json(jobs))
    return EXIT_OK


# -- run ---------------------------------------------------------------------


def _ratio(objective: float, bound: float | None):
    if bound is None or bound <= 0.0:
        return None
    return objective / bound


def run_algorithm(algo: str, jobs: JobSet, *, ratio: float, eps: float,
                  slot_width: float | None, vol_tol: float, use_exact_ls: bool):
    """Execute one algorithm; returns (schedule, extras dict).

    Raises RuntimeError subclasses on algorithm failure (water-fill failure
    index is reported through AlgorithmFailure).
    """
    extras: dict = {}
    if algo == "waterfill":
        run = mk.waterfill_online(jobs, ratio=ratio)
        extras["ratio"] = ratio
        extras["prefix_optima"] = list(run.prefix_optima)
        if not run.ok:
            raise AlgorithmFailure(
                f"water-fill failed at job {run.failure_index}",
                {"failure_index": run.failure_index,
                 "deficit": run.failure_deficit, "ratio": ratio},
            )
        sched = run.final_schedule()
    elif algo == "greedy":
        sched = tct.greedy(jobs)
    elif algo == "ls":
        sched, alpha, quantities = tct.ls_exact(jobs, vol_tol=vol_tol)
        extras["alpha"] = [float(a) for a in alpha]
        extras["fractional_optimum"] = quantities.primal_cost
        extras["vol_tol"] = vol_tol
    elif algo == "lsapprox":
        params = tct.LsApproxParams(eps, slot_width=slot_width)
        sched, info = tct.lsapprox_report(jobs, params)
        extras["epsilon"] = eps
        extras["mu"] = info.mu
        extras["horizon"] = info.horizon
        extras["slot_width"] = info.slot_width
        extras["guarantee_slot_width"] = info.guarantee_slot_width
        extras["scale_factor"] = info.scale_factor
        extras["lp_rounds"] = info.lp_rounds
        extras["lp_pivots"] = info.lp_pivots
        extras["lp_blocks"] = info.lp_blocks
    elif algo == "best":
        params = tct.LsApproxParams(eps, slot_width=slot_width)
        sched, report = tct.best_schedule(jobs, params, use_exact_ls=use_exact_ls)
        extras["chosen"] = report.chosen
        extras["greedy_cost"] = report.greedy_cost
        extras["line_cost"] = report.line_cost
        if report.line_error:
            extras["line_error"] = report.line_error
        if report.fractional_optimum is not None:
            extras["fractional_optimum"] = report.fractional_optimum
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return sched, extras


class AlgorithmFailure(RuntimeError):
    def __init__(self, message: str, data: dict):
        self.data = data
        super().__init__(message)


#: failures of an algorithm on valid input; any other ContractError is a usage error
ALGORITHM_ERRORS = (RuntimeError, linesched.DegenerateVolumesError)


def _measure(jobs: JobSet, sched: Schedule, extras: dict):
    """(makespan, tct, ftct, lower bounds, tct over the best bound)."""
    cost = core.total_completion_time(jobs, sched)
    _, ftct = core.fractional_completion_time(jobs, sched)
    bounds = tct.lower_bounds(jobs, fractional_opt=extras.get("fractional_optimum"))
    return core.makespan(sched), cost, ftct, bounds, _ratio(cost, bounds.best)


def _record(instance: str, algo: str, jobs: JobSet, sched: Schedule,
            extras: dict, wall_ms: float, seed, tol: float) -> dict:
    report = core.validate_schedule(jobs, sched, tol=tol)
    span, cost, ftct, bounds, ratio = _measure(jobs, sched, extras)
    return {
        "instance": instance,
        "algorithm": algo,
        "n": len(jobs),
        "makespan": span,
        "total_completion_time": cost,
        "fractional_completion_time": ftct,
        "bounds": {
            "squashed_area": bounds.squashed_area,
            "total_length": bounds.total_length,
            "fractional_plus_half_length": bounds.fractional_plus_half_length,
        },
        "ratios": {
            "tct_over_squashed_area": _ratio(cost, bounds.squashed_area),
            "tct_over_total_length": _ratio(cost, bounds.total_length),
            "tct_over_best_bound": ratio,
        },
        "validation": {
            "feasible": report.feasible,
            "max_violation": report.max_magnitude(),
        },
        "wall_ms": wall_ms,
        "seed": seed,
        "parameters": extras,
    }


def _cmd_run(args) -> int:
    jobs = core.jobs_from_json(_read(args.input))
    t0 = time.perf_counter()
    try:
        sched, extras = run_algorithm(
            args.algo, jobs, ratio=args.c, eps=args.eps,
            slot_width=args.delta, vol_tol=args.vol_tol,
            use_exact_ls=not args.lp_ls,
        )
    except ALGORITHM_ERRORS as exc:
        err = {"error": str(exc), "algorithm": args.algo, "instance": args.input}
        if isinstance(exc, AlgorithmFailure):
            err.update(exc.data)
        _write(args.record, core._dump(err) + "\n")
        return EXIT_ALGO
    wall_ms = (time.perf_counter() - t0) * 1e3
    rec = _record(args.input, args.algo, jobs, sched, extras, wall_ms,
                  args.seed, args.tol)
    _write(args.record, core._dump(rec) + "\n")
    if args.schedule_out:
        _write(args.schedule_out, core.schedule_to_json(sched))
    if not rec["validation"]["feasible"]:
        return EXIT_INVALID
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _cmd_verify(args) -> int:
    jobs = core.jobs_from_json(_read(args.instance))
    sched = core.schedule_from_json(_read(args.schedule))
    report = core.validate_schedule(jobs, sched, tol=args.tol)
    payload = {
        "feasible": report.feasible,
        "violations": [
            {"kind": v.kind, "magnitude": v.magnitude, "job": v.job,
             "interval": list(v.interval) if v.interval else None}
            for v in report.violations
        ],
    }
    if args.ratio is not None:
        payload["extendable"] = mk.extendability_check(sched, jobs, args.ratio, tol=args.tol)
    _write(args.out, core._dump(payload) + "\n")
    return EXIT_OK if report.feasible else EXIT_INVALID


# -- compare -----------------------------------------------------------------


def _csv_num(x) -> str:
    return "" if x is None else core._fmt(x)


def _cmd_compare(args) -> int:
    paths = sorted(globmod.glob(args.inputs))
    if not paths:
        print(f"no instances match {args.inputs!r}", file=sys.stderr)
        return EXIT_USAGE
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        print("no algorithms given", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    max_ratio: dict[str, float] = {}
    for path in paths:
        try:
            jobs = core.jobs_from_json(_read(path))
        except core.ContractError:
            for algo in algos:
                rows.append(f"{path},{algo},,,,,,,,error,,")
            continue
        for algo in algos:
            t0 = time.perf_counter()
            try:
                sched, extras = run_algorithm(
                    algo, jobs, ratio=args.c, eps=args.eps,
                    slot_width=args.delta, vol_tol=args.vol_tol,
                    use_exact_ls=not args.lp_ls,
                )
            # one --delta may divide some instances' horizons n * p_max and
            # not others, so a slot width that does not is an error row
            except ALGORITHM_ERRORS + (lp.SlotWidthError,):
                rows.append(f"{path},{algo},{len(jobs)},,,,,,,error,,")
                continue
            wall = (time.perf_counter() - t0) * 1e3 if args.timing else 0.0
            span, cost, ftct, bounds, ratio = _measure(jobs, sched, extras)
            if ratio is not None:
                max_ratio[algo] = max(max_ratio.get(algo, 0.0), ratio)
            rows.append(",".join([path, algo, str(len(jobs)), *map(_csv_num, (
                span, cost, ftct, bounds.squashed_area, bounds.total_length,
                bounds.fractional_plus_half_length, ratio, wall)), ""]))
    for algo in algos:
        rows.append(",".join([
            "summary:max_ratio", algo, "", "", "", "", "", "", "",
            _csv_num(max_ratio.get(algo)), "", "",
        ]))
    _write(args.out, CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    return EXIT_OK


# -- plot --------------------------------------------------------------------


def render_svg(jobs: JobSet, sched: Schedule, width: int = 720, height: int = 400,
               alpha=None, show_duals: bool = False) -> str:
    """Stacked-area SVG of a schedule; optional priority-line overlay.

    Jobs stack in index order; each area's height at time t is the job's
    rate, so areas are proportional to volumes.  With ``show_duals`` the
    lines alpha_j - t / v_j and the capacity price are drawn against a
    right-hand priority axis.
    """
    ml, mr, mt, mb = 50, 50 if show_duals else 20, 16, 34
    pw, ph = width - ml - mr, height - mt - mb
    end = core.makespan(sched)
    grid = (np.unique(np.concatenate([a.edges for a in sched.assignments]))
            if sched.n_jobs else np.array([0.0]))
    if alpha is not None and len(jobs):
        zeros = [a * j.volume for a, j in zip(alpha, jobs)]
        end = max(end, max(zeros, default=0.0))
        grid = np.unique(np.concatenate([grid, np.asarray(zeros, dtype=float)]))
    end = max(end, 1e-9)

    def X(t):
        return ml + pw * t / end

    def Y(res):
        return mt + ph * (1.0 - res)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # stacked areas on the refined grid, each rate read at its interval's
    # left end: the midpoint of a one-ulp interval rounds onto an edge
    if sched.n_jobs and grid.size > 1:
        left = grid[:-1]
        rates = np.vstack([a(left) for a in sched.assignments])
        cum = np.vstack([np.zeros(left.size), np.cumsum(rates, axis=0)])
        for j in range(sched.n_jobs):
            lo, hi = cum[j], cum[j + 1]
            if not np.any(hi - lo > 0):
                continue
            pts = []
            for k in range(left.size):
                pts.append((grid[k], lo[k]))
                pts.append((grid[k + 1], lo[k]))
            for k in reversed(range(left.size)):
                pts.append((grid[k + 1], hi[k]))
                pts.append((grid[k], hi[k]))
            path = " ".join(f"{X(t):.2f},{Y(v):.2f}" for t, v in pts)
            color = PALETTE[j % len(PALETTE)]
            out.append(f'<polygon points="{path}" fill="{color}" fill-opacity="0.85" '
                       f'stroke="{color}"/>')
    # axes and the unit-resource line
    out.append(f'<line x1="{ml}" y1="{Y(0)}" x2="{ml + pw}" y2="{Y(0)}" stroke="black"/>')
    out.append(f'<line x1="{ml}" y1="{Y(0)}" x2="{ml}" y2="{mt}" stroke="black"/>')
    out.append(f'<line x1="{ml}" y1="{Y(1)}" x2="{ml + pw}" y2="{Y(1)}" '
               'stroke="black" stroke-dasharray="4 3"/>')
    out.append(f'<text x="{ml - 8}" y="{Y(1) + 4}" font-size="11" text-anchor="end">1</text>')
    out.append(f'<text x="{ml - 8}" y="{Y(0) + 4}" font-size="11" text-anchor="end">0</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = frac * end
        out.append(f'<line x1="{X(t):.2f}" y1="{Y(0)}" x2="{X(t):.2f}" y2="{Y(0) + 4}" stroke="black"/>')
        out.append(f'<text x="{X(t):.2f}" y="{Y(0) + 16}" font-size="11" '
                   f'text-anchor="middle">{t:.3g}</text>')
    if show_duals and alpha is not None and len(jobs):
        amax = max(float(a) for a in alpha)
        amax = max(amax, 1e-9)

        def Yp(p):
            return mt + ph * (1.0 - p / amax)

        for j, (a, job) in enumerate(zip(alpha, jobs)):
            color = PALETTE[j % len(PALETTE)]
            out.append(
                f'<line x1="{X(0):.2f}" y1="{Yp(a):.2f}" '
                f'x2="{X(a * job.volume):.2f}" y2="{Yp(0):.2f}" '
                f'stroke="{color}" stroke-width="1.5" stroke-dasharray="6 3"/>'
            )
        ls = linesched.build_line_schedule(jobs, np.asarray(alpha, dtype=float))
        g = ls.gamma
        gpts = []
        for t0, t1, start, slope in zip(g.edges[:-1], g.edges[1:], g.starts, g.slopes):
            gpts += [(t0, start), (t1, start + slope * (t1 - t0))]
        if gpts:
            path = " ".join(f"{X(t):.2f},{Yp(v):.2f}" for t, v in gpts)
            out.append(f'<polyline points="{path}" fill="none" stroke="black" stroke-width="2"/>')
        out.append(f'<text x="{ml + pw + 6}" y="{Yp(amax) + 4}" font-size="11">{amax:.3g}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _cmd_plot(args) -> int:
    sched = core.schedule_from_json(_read(args.schedule))
    jobs = core.jobs_from_json(_read(args.instance)) if args.instance else JobSet()
    alpha = None
    if args.alpha:
        if not args.instance:
            print("--alpha requires --instance", file=sys.stderr)
            return EXIT_USAGE
        try:
            alpha = [float(x) for x in args.alpha.split(",")]
            if not np.isfinite(alpha).all():
                raise ValueError
        except ValueError:
            print(f"--alpha needs comma-separated finite numbers, got {args.alpha!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        if len(alpha) != len(jobs):
            print(f"--alpha gives {len(alpha)} intercepts for {len(jobs)} jobs",
                  file=sys.stderr)
            return EXIT_USAGE
    if args.duals and alpha is None:
        print("--duals requires --alpha", file=sys.stderr)
        return EXIT_USAGE
    svg = render_svg(jobs, sched, alpha=alpha, show_duals=args.duals)
    _write(args.out, svg)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sharesched",
                                description="shared-resource scheduling toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    # algorithm options shared by run and compare
    algo_opts = argparse.ArgumentParser(add_help=False)
    algo_opts.add_argument("--c", type=float, default=mk.COMPETITIVE_RATIO,
                           help="water-fill competitive target ratio")
    algo_opts.add_argument("--eps", type=float, default=0.5)
    algo_opts.add_argument("--delta", type=float, default=None, help="LP slot width")
    algo_opts.add_argument("--vol-tol", type=float, default=core.DEFAULT_TOL)
    algo_opts.add_argument("--lp-ls", action="store_true",
                           help="best: use the LP-based approximation pipeline")

    g = sub.add_parser("gen", help="generate an instance JSON")
    g.add_argument("kind", choices=["random", "adversarial", "file"])
    g.add_argument("--n", type=int, default=5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--vmin", type=float, default=0.1)
    g.add_argument("--vmax", type=float, default=10.0)
    g.add_argument("--rmin", type=float, default=0.05)
    g.add_argument("--rmax", type=float, default=1.0)
    g.add_argument("--path", help="source instance for kind=file")
    g.add_argument("--out", default="-")
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("run", parents=[algo_opts], help="run one algorithm on an instance")
    r.add_argument("algo", choices=["waterfill", "greedy", "ls", "lsapprox", "best"])
    r.add_argument("--input", required=True)
    r.add_argument("--record", default="-", help="run-record JSON output path")
    r.add_argument("--schedule-out", help="schedule JSON output path")
    r.add_argument("--tol", type=float, default=core.DEFAULT_TOL)
    r.add_argument("--seed", type=int, default=None, help="echoed into the record")
    r.set_defaults(func=_cmd_run)

    v = sub.add_parser("verify", help="validate a schedule against an instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--schedule", required=True)
    v.add_argument("--tol", type=float, default=core.DEFAULT_TOL)
    v.add_argument("--ratio", type=float, default=None,
                   help="also check extendability at this competitive ratio")
    v.add_argument("--out", default="-")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("compare", parents=[algo_opts],
                       help="run algorithms over instances into a CSV")
    c.add_argument("--inputs", required=True, help="glob of instance JSON files")
    c.add_argument("--algos", default="greedy,ls")
    c.add_argument("--out", default="-")
    c.add_argument("--timing", action="store_true",
                   help="record wall times (breaks byte-for-byte reproducibility)")
    c.set_defaults(func=_cmd_compare)

    pl = sub.add_parser("plot", help="render a schedule as a stacked-area SVG")
    pl.add_argument("--schedule", required=True)
    pl.add_argument("--instance")
    pl.add_argument("--alpha", help="comma-separated intercepts for the dual overlay")
    pl.add_argument("--duals", action="store_true")
    pl.add_argument("--out", default="-")
    pl.set_defaults(func=_cmd_plot)
    return p


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and kept; argparse gives every
    parse a fresh namespace, so repeated in-process calls share no options.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except core.ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
