"""Benchmark of sharesched on a fixed, seeded batch per workload.

Run from the repository root:

    python3 perfbench/run.py --workload tct-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in a fresh process

One run is one process, one op at a time, on one BLAS thread.  It builds the
workload's batch from ``--seed``, makes one untimed warm-up op, then times
every op of the batch in whole passes (``--seconds`` / 20 s of them, at least
one) and checks every output with ``checks``, apart from the program.  Times
are reported in reference seconds (see ``slowdown``).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
every op once untraced and once traced and prints the per-layer metrics, with
the tracing overhead.  The last line of standard output is one JSON object;
``BENCH_<workload>.json`` (or ``.traced.json`` and ``.spans.json``) next to
this directory keeps every op.
"""

import os

# pin every BLAS pool to one thread before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: a pass over each batch takes about this long on the reference machine
PASS_SECONDS = 20
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 3
#: seconds the reference loop takes on the reference machine when it is quiet
REFERENCE_S = 1.4e-3


def spec() -> dict:
    """BENCHMARK.json: the workloads and the name and unit of every metric."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()[kind]}


def load_program():
    """Import sharesched from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sharesched
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import sharesched from {src}: {exc}")
    if Path(sharesched.__file__).resolve().parent != (src / "sharesched").resolve():
        raise SystemExit(f"perfbench: sharesched was imported from {sharesched.__file__}, not {src}")


def slowdown() -> float:
    """How many times slower than the reference machine this one runs now.

    The cores are shared, and their speed swings by up to 2x over seconds.
    A fixed loop of interpreter and small-array numpy work, the two kinds of
    work sharesched does, is timed three times and the fastest is kept, so a
    single preemption does not count.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 48)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(40):
            g = np.unique(np.concatenate([a, a[::-1] * 0.5 + 0.01 * i]))
            acc += float(np.dot(np.minimum(g[1:], 0.3), np.diff(g)))
            for k in range(120):
                acc += (k * 0.5) % 7.0
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S


def setup_seconds(args) -> float:
    """Median time of fresh processes that set up the workload and stop
    before its first timed op: interpreter start, imports, instance
    generation, instance files and the warm-up op.  Each is divided by the
    slowdown measured around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        before = slowdown()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=150)
        wall = time.perf_counter() - t0
        samples.append(wall / (0.5 * (before + slowdown())))
    return statistics.median(samples)


def _execute(case, i: int, tr):
    """One timed execution; ``tr`` traces it when given."""
    from workloads import Outcome

    exc = out = None
    t0 = time.perf_counter()
    try:
        out = tr.run_op(i, case.call) if tr else case.call()
    except Exception as e:  # a raising op counts as failed; the batch goes on
        exc = e
    dt = time.perf_counter() - t0
    try:
        outcome = Outcome(failure=f"{type(exc).__name__}: {exc}") if exc else case.inspect(out)
    except Exception as e:  # an output the checks cannot read is wrong
        outcome = Outcome(errors=[f"unreadable output: {type(e).__name__}: {e}"])
    return outcome, dt


def measure(args, wl) -> tuple[dict, dict]:
    """Time every op in whole passes and check every output.

    A traced run makes one pass in which every op runs once untraced and once
    traced, back to back and in alternating order, so that the overhead is
    measured under the same machine load.
    """
    import checks
    import tracer as tracer_mod

    passes = 1 if args.trace else max(1, round(args.seconds / PASS_SECONDS))
    tr = tracer_mod.Tracer() if args.trace else None
    walls = [0.0] * passes               # reference seconds
    untraced_wall = traced_wall = 0.0    # wall seconds, for the tracing overhead
    op_times: list[float] = []           # reference seconds
    fingerprints: list[set] = [set() for _ in wl.cases]
    errors: list[str] = []
    failed = 0
    deferred = []
    tct_ratios: list[float] = []
    mk_ratios: list[float] = []
    entries: list[dict] = []
    for p in range(passes):
        gc.collect()
        slow = slowdown()
        for i, case in enumerate(wl.cases):
            for traced in ((i % 2 == 1, i % 2 == 0) if tr else (False,)):
                if traced:
                    tr.install()
                    outcome, dt = _execute(case, i, tr)
                    tr.uninstall()
                    traced_wall += dt
                else:
                    outcome, dt = _execute(case, i, None)
                    after = slowdown()
                    scaled = dt / (0.5 * (slow + after))
                    slow = after
                    untraced_wall += dt
                    walls[p] += scaled
                    op_times.append(scaled)
                fingerprints[i].add(outcome.fingerprint())
                if p or traced:
                    continue
                failed += outcome.failure is not None
                if outcome.failure:
                    print(f"FAILED {case.name}: {outcome.failure}", file=sys.stderr)
                errors += [f"{case.name}: {e}" for e in outcome.errors]
                deferred += [(case.name, d) for d in outcome.deferred]
                for steps in outcome.schedules:
                    done = checks.completion_times(steps)
                    tct_ratios.append(float(done.sum()) / checks.tct_lower_bound(case.v, case.r))
                    mk_ratios.append(float(done.max()) / checks.makespan_optimum(case.v, case.r))
                entries.append({"layer": case.entry, "case": case.name, "n": int(case.v.size),
                                "wall_s": dt, "reference_s": scaled,
                                "counters": dict(outcome.counters)})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors += [f"{case.name}: outputs differ between executions"
               for case, fps in zip(wl.cases, fingerprints) if len(fps) > 1]
    for name, check in deferred:
        errors += [f"{name}: {e}" for e in check()]

    result = {"correct": not errors, "attempted": len(wl.cases) * passes, "failed": failed}
    bench = {"entries": entries, "errors": errors[:50]}
    if tr:
        layers = tr.summary()
        layers["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
        for (op, name), (calls, ms) in tr.self_ms().items():
            if name != "op":
                entries[op]["counters"][name] = {"calls": calls, "self_ms": ms}
        result["metrics"] = {k: {"value": layers[k], "unit": u}
                             for k, u in metric_units("per_layer").items()}
        bench["layers"] = layers
        bench["absent"] = tr.absent
        bench["spans"] = tr.span_records()
    else:
        if not tct_ratios:
            raise SystemExit("perfbench: no op produced a schedule")
        e2e = {
            "setup_s": setup_seconds(args),
            "wall_s": statistics.median(walls),
            "solve_p50_ms": statistics.median(op_times) * 1e3,
            "tct_ratio_gmean": math.exp(math.fsum(map(math.log, tct_ratios)) / len(tct_ratios)),
            "makespan_ratio_max": max(mk_ratios),
            "peak_rss_mb": peak_rss_mb,
        }
        result["metrics"] = {k: {"value": e2e[k], "unit": u}
                             for k, u in metric_units("end_to_end").items()}
    return result, bench


def write_bench(args, result: dict, bench: dict) -> None:
    import numpy

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **result,
    }
    spans = bench.pop("spans", None)
    stem = f"BENCH_{args.workload}" + (".traced" if args.trace else "")
    with open(ROOT / f"{stem}.json", "w") as fh:
        json.dump({**meta, **bench}, fh, indent=1)
    if spans is not None:
        with open(ROOT / f"BENCH_{args.workload}.spans.json", "w") as fh:
            json.dump(spans, fh)


def run_one(args) -> int:
    load_program()
    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    wl = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warmup()
        if args.setup_only:
            return 0
        result, bench = measure(args, wl)
    finally:
        if wl is not None:
            wl.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)
    for e in bench["errors"][:10]:
        print(f"CHECK {e}", file=sys.stderr)
    for a in bench.get("absent", []):
        print(f"absent from the program: {a}", file=sys.stderr)
    write_bench(args, result, bench)
    print(f"{args.workload}  seed {args.seed}  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    status = 0
    for name in (w["name"] for w in spec()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or result["failed"] or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec()["workloads"]] + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=PASS_SECONDS,
                   help="measuring budget; sets the number of whole passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop before the first timed op (used to time set-up)")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
