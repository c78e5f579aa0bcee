"""ergopde benchmark: one workload per invocation, metrics as JSON on the last line.

    python3 perfbench/run.py --workload ergodic-1d --seed 1 --seconds 22 --trace 0

Run from the repository root; the package is imported from ./src and from
nowhere else.  With --trace 0 the run reports the end-to-end metrics
(wall_s, setup_s, peak_rss_mb); with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics, and writes every span to
perfbench/out/spans-<workload>.npz.  Human-readable lines (environment,
per-pass times, failed_frac, flagged_frac, the checked errors) come first;
the last line of standard output is the JSON result.  See README.md for
the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pass(wl, rec=None):
    """Run every task once; returns (times, outputs, flagged).

    times maps a task id to its seconds: the durations of its calls of the
    workload's `unit` function, in call order, followed by the rest of the
    task; a workload without a unit (and every traced pass) has one entry
    per task.  An output is the task's return value or the exception it
    raised.  flagged holds the ids of tasks that returned although a
    `solve_dirichlet` call inside them raised.
    """
    from spans import raise_counter, unit_timer

    times, outputs, flagged = {}, {}, set()
    for tid, fn in wl.tasks():
        units, raised = [], []
        timer = contextlib.nullcontext()
        if rec is not None:
            rec.set_task(f"{wl.name}/{tid}")
        elif wl.unit is not None:
            module, attr = wl.unit
            timer = unit_timer(getattr(wl.ep, module), attr, units)
        t0 = time.perf_counter()
        with timer, raise_counter(wl.ep.solver, "solve_dirichlet", raised):
            try:
                outputs[tid] = fn()
            except Exception as exc:  # a failed task is counted, not fatal
                outputs[tid] = exc
        total = time.perf_counter() - t0
        times[tid] = units + [total - sum(units)]
        if isinstance(outputs[tid], Exception):
            traceback.print_exception(outputs[tid], file=sys.stderr)
        elif raised:
            flagged.add(tid)
    return times, outputs, flagged


def check_pass(wl, outputs):
    """(ids of failed tasks, checks) for one pass."""
    failed = {tid for tid, out in outputs.items() if isinstance(out, Exception)}
    if failed:
        return failed, []
    try:
        checks = wl.check(outputs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return set(outputs), []
    return {c.task for c in checks if not c.ok}, checks


def pass_seconds(passes):
    """Time of one pass: the sum over its timed pieces of each piece's median time.

    The pieces are the tasks, split into their unit calls where the
    workload names a unit function.  Every pass does the same work, so a
    piece's spread over passes is the host's, not the program's.  The host
    runs slower than its best most of the time and fast only in rare
    moments, so a median follows it far more steadily than a minimum
    (README.md, "Steadiness").  Pieces are matched by position, which needs
    the same number of unit calls in every pass; otherwise a task counts whole.
    """
    total = 0.0
    for tid in passes[0]:
        runs = [p[tid] for p in passes]
        if len({len(r) for r in runs}) == 1:
            total += sum(statistics.median(piece) for piece in zip(*runs))
        else:
            total += statistics.median(sum(r) for r in runs)
    return total


def _pass_total(times) -> float:
    return sum(sum(pieces) for pieces in times.values())


def measure(wl, seconds, rec=None):
    """Passes until `seconds` are used; traced passes alternate when rec is given.

    Another pass starts only while half a typical pass still fits.  An
    untraced run makes at least MIN_PASSES passes, so each piece's median
    has three or more times to choose from; a traced run makes at least
    one untraced and one traced pass.
    """
    from spans import instrument, layer_metrics

    passes = {False: [], True: []}
    per_layer = []
    attempted = failed = flagged = 0
    checks = []
    t_start = time.perf_counter()
    traced = False
    while True:
        if traced:
            lo = len(rec)
            with instrument(rec):
                times, outputs, flags = run_pass(wl, rec)
            per_layer.append(layer_metrics(rec, lo, len(rec)))
        else:
            times, outputs, flags = run_pass(wl)
        passes[traced].append(times)
        bad, pass_checks = check_pass(wl, outputs)
        attempted += len(outputs)
        failed += len(bad)
        flagged += len(flags - bad)
        checks += pass_checks
        print(f"# pass {len(passes[False]) + len(passes[True])}"
              f"{' traced' if traced else ''}: {_pass_total(times):.4f} s, "
              f"{len(bad)} failed", flush=True)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(_pass_total(p) for p in passes[False] + passes[True])
        if rec is None:
            needed = len(passes[False]) < MIN_PASSES
        else:
            needed = not passes[True]
        if not needed and elapsed + 0.5 * typical > seconds:
            break
        if rec is not None:
            traced = not traced
    return passes, per_layer, attempted, failed, flagged, checks


def import_seconds(src: Path) -> float:
    """Seconds a fresh interpreter takes to import the package from `src`."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ergopde, ergopde.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-B", "-c", code, str(src)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def mean_metrics(per_layer):
    keys = per_layer[0].keys()
    return {k: sum(m[k] for m in per_layer) / len(per_layer) for k in keys}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # single-threaded BLAS: nothing here is parallel
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    try:
        ergopde = workloads.import_ergopde(ROOT / "src")
    except (RuntimeError, ImportError) as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    OUT.mkdir(exist_ok=True)
    env = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    wl = workloads.WORKLOADS[args.workload](ergopde, args.seed, OUT)
    imports = [import_seconds(ROOT / "src") for _ in range(SETUP_REPEATS)]
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            wl.warm_up()
            setups.append(time.perf_counter() - t0)
        wl.prepare_references()
        rec = None
        if args.trace:
            from spans import SpanRecorder

            rec = SpanRecorder()
        passes, per_layer, attempted, failed, flagged, checks = measure(wl, args.seconds, rec)
    finally:
        wl.close()
    setup_s = statistics.median(imports) + statistics.median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = failed == 0 and bool(checks)
    print(f"failed_frac = {failed / attempted:.4g} ({failed}/{attempted} tasks)")
    # passed their checks, but only after a solve inside them raised (README.md,
    # "Known defects"): spurious "below" verdicts and polish fallbacks
    print(f"flagged_frac = {flagged / attempted:.4g} ({flagged}/{attempted} tasks "
          "returned after a solve_dirichlet call raised)")
    worst_ratio = math.inf
    if checks:
        for what in sorted({c.what for c in checks}):
            errs = [c.err for c in checks if c.what == what]
            print(f"{what} = {max(errs):.6g} (worst of {len(errs)} checks)")
        worst_ratio = max(c.ratio for c in checks)
    print(f"check.worst_err_over_tol = {worst_ratio:.6g}")

    if args.trace:
        layer = mean_metrics(per_layer)
        # whole-pass medians on both sides: traced passes are not split into units
        typical = {t: statistics.median(_pass_total(p) for p in passes[t]) for t in (False, True)}
        layer["trace.overhead_frac"] = typical[True] / typical[False] - 1.0
        # -1 marks a run in which some task left no output to check
        layer["check.worst_err_over_tol"] = worst_ratio if math.isfinite(worst_ratio) else -1.0
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
        rec.write(OUT / f"spans-{args.workload}.npz",
                  {"workload": args.workload, "seed": args.seed, "env": env})
    else:
        metrics = {
            "wall_s": {"value": pass_seconds(passes[False]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".count", ".failed", "_rounds", "_iters", ".spans")):
        return "count"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_frac", "_per_linear_solve", "_per_constant", "_over_tol")):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
