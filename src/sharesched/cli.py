"""Command-line harness: generate instances, run algorithms, verify,
compare, and plot.

Commands: ``gen | run | verify | compare | plot``.  Exit codes: 0 success,
2 usage error, 3 algorithm failure, 4 validation failure.  ``FAILURE_KINDS``
maps each kind of error (its base class in ``core``) to the exit code and to
whether ``compare`` stops or writes the instance's ``error`` row; no other
exception is caught, so a bug shows its traceback.  All numeric
flag values are echoed (after rounding) in the emitted records so runs are
reproducible from their outputs alone.

The argument parser is built once per process, so ``main(argv)`` may be
called repeatedly in-process; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import glob as globmod
import math
import os
import stat
import sys
import time

import numpy as np

from . import core, linesched, tct, waterfill as mk
from .core import JobSet, Schedule

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ALGO = 3
EXIT_INVALID = 4
#: each kind of error, read along an exception's MRO: run's exit code, and
#: whether compare writes the instance's error row (else it stops, and exits
#: with that code)
FAILURE_KINDS = {
    OSError: (EXIT_USAGE, False),               # it names its path
    core.ContractError: (EXIT_USAGE, False),    # usage: bad for every instance
    core.InstanceError: (EXIT_USAGE, True),     # options this instance cannot take
    core.AlgorithmError: (EXIT_ALGO, True),     # a failure on valid input
}
#: the algorithms that ``run`` and ``compare`` accept
ALGORITHMS = ("waterfill", "greedy", "ls", "lsapprox", "best")

CSV_HEADER = "instance,algo,n,makespan,tct,ftct,c_a,c_l,lb3,ratio_best,wall_ms,seed"
#: the ``_measure`` keys of the CSV columns makespan to ratio_best
CSV_MEASURES = ("makespan", "total_completion_time", "fractional_completion_time",
                "squashed_area", "total_length", "fractional_plus_half_length",
                "tct_over_best_bound")

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
]
#: size of a ``plot`` SVG in pixels
SVG_WIDTH, SVG_HEIGHT = 720, 400


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    # no O_TRUNC: ext4 (auto_da_alloc) starts writeback of a file truncated to
    # zero at its close, and the next truncating open of it waits for that
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):   # not a pipe or /dev/null
            fh.truncate()


def _read(path: str) -> bytes:
    # bytes: json.loads decodes them, so undecodable ones are malformed JSON
    with open(path, "rb") as fh:
        return fh.read()


# -- gen ---------------------------------------------------------------------


def generate_random(n: int, seed: int, vmin: float = 0.1, vmax: float = 10.0,
                    rmin: float = 0.05, rmax: float = 1.0) -> JobSet:
    """Log-uniform volumes in [vmin, vmax], requirements in (rmin, rmax].

    Deterministic per seed.  Requires 0 < vmin <= vmax < inf and
    0 <= rmin <= rmax <= 1 (``Job`` rejects the zero requirements of rmax = 0).
    """
    if min(n, seed) < 0:
        raise core.ContractError(f"n and seed must be nonnegative, got {n}, {seed}")
    if not 0.0 < vmin <= vmax < np.inf:
        raise core.ContractError(f"vmin and vmax must be positive and finite with vmin <= vmax, "
                                 f"got {vmin}, {vmax}")
    if not 0.0 <= rmin <= rmax <= 1.0:
        raise core.ContractError(f"rmin and rmax must satisfy 0 <= rmin <= rmax <= 1, "
                                 f"got {rmin}, {rmax}")
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


def run_algorithm(algo: str, jobs: JobSet, opts):
    """Execute one algorithm; returns (schedule, extras dict).

    ``opts`` holds the options that ``run`` and ``compare`` share (``c``,
    ``eps``, ``delta``, ``vol_tol``, ``lp_ls``).  ``best`` checks ``eps`` and
    ``delta`` with or without ``lp_ls``, but runs the approximation branch
    only under it.  Raises an AlgorithmError on algorithm failure (the
    water-fill failure index is reported through AlgorithmFailure).
    """
    extras: dict = {}
    if algo in ("lsapprox", "best"):
        params = tct.LsApproxParams(opts.eps, slot_width=opts.delta)
    if algo == "waterfill":
        run = mk.waterfill_online(jobs, ratio=opts.c)
        extras["ratio"] = opts.c
        extras["prefix_optima"] = list(run.prefix_optima)
        if not run.ok:
            raise AlgorithmFailure(
                f"water-fill failed at job {run.failure_index}",
                {"failure_index": run.failure_index,
                 "deficit": run.failure_deficit, "ratio": opts.c},
            )
        sched = run.final_schedule()
    elif algo == "greedy":
        sched = tct.greedy(jobs)
    elif algo == "ls":
        sched, alpha, quantities = tct.ls_exact(jobs, vol_tol=opts.vol_tol)
        extras["alpha"] = [float(a) for a in alpha]
        extras["fractional_optimum"] = quantities.primal_cost
        extras["vol_tol"] = opts.vol_tol
    elif algo == "lsapprox":
        sched, info = tct.lsapprox_report(jobs, params)
        extras["epsilon"] = opts.eps
        extras.update((k, x) for k, x in vars(info).items() if k != "subdivision")
    elif algo == "best":
        sched, report = tct.best_schedule(jobs, params if opts.lp_ls else None)
        if opts.lp_ls:
            extras.update(epsilon=opts.eps, slot_width=opts.delta)
        extras["chosen"] = report.chosen
        extras["line_branch"] = report.line_branch
        extras["greedy_cost"] = report.greedy_cost
        extras["line_cost"] = report.line_cost
        if report.line_error:
            extras["line_error"] = report.line_error
        if report.fractional_optimum is not None:
            extras["fractional_optimum"] = report.fractional_optimum
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return sched, extras


class AlgorithmFailure(core.AlgorithmError):
    def __init__(self, message: str, data: dict):
        self.data = data
        super().__init__(message)


def _kind(exc: Exception) -> tuple[int, bool]:
    """The ``FAILURE_KINDS`` row of the nearest class of ``exc`` that it lists."""
    return next(FAILURE_KINDS[cls] for cls in type(exc).__mro__ if cls in FAILURE_KINDS)


def _measure(jobs: JobSet, sched: Schedule, extras: dict) -> dict:
    """The measures, lower bounds and ratios of a record, by its key names.

    Raises InstanceError naming the first that is not finite: the instance
    overflows the float range, and JSON has no inf or NaN.
    """
    cost = core.total_completion_time(jobs, sched)
    bounds = tct.lower_bounds(jobs, fractional_opt=extras.get("fractional_optimum"))
    measures = {
        "makespan": core.makespan(sched),
        "total_completion_time": cost,
        "fractional_completion_time": core.fractional_completion_time(jobs, sched)[1],
        "squashed_area": bounds.squashed_area,
        "total_length": bounds.total_length,
        "fractional_plus_half_length": bounds.fractional_plus_half_length,
        "tct_over_squashed_area": _ratio(cost, bounds.squashed_area),
        "tct_over_total_length": _ratio(cost, bounds.total_length),
        "tct_over_best_bound": _ratio(cost, bounds.best),
    }
    for name, x in measures.items():
        if x is not None and not math.isfinite(x):
            raise core.InstanceError(f"{name} overflows the float range: got {x}")
    return measures


def _record(instance: str, algo: str, jobs: JobSet, sched: Schedule,
            extras: dict, wall_ms: float, seed, tol: float) -> dict:
    report = core.validate_schedule(jobs, sched, tol=tol)
    m = _measure(jobs, sched, extras)
    return {
        "instance": instance,
        "algorithm": algo,
        "n": len(jobs),
        "makespan": m["makespan"],
        "total_completion_time": m["total_completion_time"],
        "fractional_completion_time": m["fractional_completion_time"],
        "bounds": {key: m[key] for key in (
            "squashed_area", "total_length", "fractional_plus_half_length")},
        "ratios": {key: m[key] for key in (
            "tct_over_squashed_area", "tct_over_total_length", "tct_over_best_bound")},
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
        sched, extras = run_algorithm(args.algo, jobs, args)
    except tuple(FAILURE_KINDS) as exc:
        code, _ = _kind(exc)
        if code != EXIT_ALGO:
            raise       # main reports it on stderr
        err = {"error": str(exc), "algorithm": args.algo, "instance": args.input}
        if isinstance(exc, AlgorithmFailure):
            err.update(exc.data)
        _write(args.record, core._dump(err) + "\n")
        return code
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
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        print(f"unknown algorithm {unknown[0]!r} (choose from "
              f"{', '.join(map(repr, ALGORITHMS))})", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    max_ratio: dict[str, float] = {}
    for path in paths:
        try:
            jobs = core.jobs_from_json(_read(path))
        except tuple(FAILURE_KINDS):    # an instance that cannot be read gets error rows
            for algo in algos:
                rows.append(f"{path},{algo},,,,,,,,error,,")
            continue
        for algo in algos:
            t0 = time.perf_counter()
            try:
                sched, extras = run_algorithm(algo, jobs, args)
                wall = (time.perf_counter() - t0) * 1e3 if args.timing else 0.0
                m = _measure(jobs, sched, extras)
            except tuple(FAILURE_KINDS) as exc:
                if not _kind(exc)[1]:
                    raise   # a usage error stops compare
                rows.append(f"{path},{algo},{len(jobs)},,,,,,,error,,")
                continue
            ratio = m["tct_over_best_bound"]
            if ratio is not None:
                max_ratio[algo] = max(max_ratio.get(algo, 0.0), ratio)
            rows.append(",".join([path, algo, str(len(jobs)),
                                  *(_csv_num(m[key]) for key in CSV_MEASURES), _csv_num(wall), ""]))
    for algo in algos:
        rows.append(",".join([
            "summary:max_ratio", algo, "", "", "", "", "", "", "",
            _csv_num(max_ratio.get(algo)), "", "",
        ]))
    _write(args.out, CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    return EXIT_OK


# -- plot --------------------------------------------------------------------


def render_svg(jobs: JobSet, sched: Schedule, alpha=None) -> str:
    """Stacked-area SVG of a schedule; optional priority-line overlay.

    Jobs stack in index order; each area's height at time t is the job's
    rate, so areas are proportional to volumes.  With ``alpha`` the time
    axis runs out to the last line zero, and the lines alpha_j - t / v_j and
    the capacity price are drawn against a right-hand priority axis.
    """
    overlay = alpha is not None and len(jobs) > 0
    ml, mr, mt, mb = 50, 50 if overlay else 20, 16, 34
    pw, ph = SVG_WIDTH - ml - mr, SVG_HEIGHT - mt - mb
    end = core.makespan(sched)
    grid = core._union_grid(sched.assignments)
    if overlay:
        zeros = [a * j.volume for a, j in zip(alpha, jobs)]
        end = max(end, max(zeros))
        grid = core._distinct(np.concatenate([grid, np.asarray(zeros, dtype=float)]))
    end = max(end, 1e-9)

    def X(t):
        return ml + pw * t / end

    def Y(res):
        return mt + ph * (1.0 - res)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    # stacked areas on the refined grid, each rate read at its interval's
    # left end: the midpoint of a one-ulp interval rounds onto an edge
    left = grid[:-1]
    rates = core._rows_at(sched.assignments, left)
    cum = np.vstack([np.zeros(left.size), np.cumsum(rates, axis=0)])
    for j in range(sched.n_jobs):
        lo, hi = cum[j], cum[j + 1]
        if not np.any(hi - lo > 0):
            continue
        # the bottom edge left to right, then the top edge back
        ts = np.repeat(grid, 2)[1:-1]
        ts = np.concatenate((ts, ts[::-1]))
        vs = np.concatenate((np.repeat(lo, 2), np.repeat(hi, 2)[::-1]))
        path = " ".join(f"{X(t):.2f},{Y(v):.2f}" for t, v in zip(ts, vs))
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
    if overlay:
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
        gpts = []
        for t0, t1, start, slope in zip(ls.grid[:-1], ls.grid[1:], ls.gamma_start, ls.gamma_slope):
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
    if args.instance and len(jobs) != sched.n_jobs:
        raise core.ContractError(f"{len(jobs)} jobs but {sched.n_jobs} assignments")
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
        linesched._check_inputs(jobs, alpha)    # a ContractError is a usage error
    svg = render_svg(jobs, sched, alpha=alpha)
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
    algo_opts.add_argument("--vol-tol", type=float, default=core.DEFAULT_TOL,
                           help="ls only: volume tolerance of the fixed point "
                                "(best's exact branch keeps the default)")
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
    r.add_argument("algo", choices=ALGORITHMS)
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
    except tuple(FAILURE_KINDS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _kind(exc)[0]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
