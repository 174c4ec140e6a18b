"""penninggate benchmark: one closed-loop client, one workload per process.

    python3 benchmarks/run.py --workload pipeline-fig4 --seed 1 --seconds 30 --trace 0

Set-up is the imports, the inputs built from ``--seed`` (repeated
SETUP_REPEATS times, median taken) and one untimed warm-up operation.
Operations then run back to back until their summed wall time reaches
``--seconds``; each output is checked outside the timed region.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` wraps the
package's public functions, traces every other operation, reports the
per-layer metrics and writes the spans to
``.bench_work/spans-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# one BLAS / OpenMP thread, fixed before numpy is first imported
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WALL_LIMIT_S = 150.0  # stop issuing operations well before the 180 s run limit

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "ops_ok_frac": "1",
    "peak_rss_mb": "MB",
}


def git_commit():
    """Commit id read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(workload):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "n_ions": workload.n_ions,
        "modes": 3 * workload.n_ions,
    }


def run(workload, seed, seconds, trace, workdir, import_s):
    """Set up, run the timed closed loop, and return (result, report lines)."""
    import tracing

    # Input generation is repeated and its median taken.  Imports and the
    # warm-up run once: they carry the one-time costs (module loading, BLAS
    # start-up, lazily filled caches) that a repeat would no longer see.
    inputs_s = []
    for repeat in range(SETUP_REPEATS):
        start = perf_counter()
        ctx = workload.prepare(seed, workdir / f"setup{repeat}")
        inputs_s.append(perf_counter() - start)
    start = perf_counter()
    output = workload.operation(ctx, 0)
    warmup_s = perf_counter() - start
    failures, _ = workload.check(ctx, output)
    if failures:
        raise RuntimeError("warm-up operation failed: " + "; ".join(failures))
    setup_s = import_s + statistics.median(inputs_s) + warmup_s

    tracer = tracing.Tracer()
    if trace:
        tracing.install_package_tracing(tracer)
    durations = {True: [], False: []}
    timed = 0.0
    attempted = failed = 0
    guards = None
    min_ops = 2 if trace else 1  # a traced run needs an untraced operation too
    loop_start = perf_counter()
    try:
        while attempted < min_ops or (timed < seconds
                                      and perf_counter() - loop_start < WALL_LIMIT_S):
            index = attempted + 1
            traced = trace and attempted % 2 == 0
            if traced:
                tracer.begin_op(index)
            start = perf_counter()
            try:
                output = workload.operation(ctx, index)
                error = None
            except Exception:  # a raising operation is a failed operation
                error = traceback.format_exc()
            elapsed = perf_counter() - start
            if traced:
                tracer.end_op()
            attempted += 1
            timed += elapsed
            if error is None:
                failures, op_guards = workload.check(ctx, output)
                guards = op_guards if guards is None else guards
            else:
                failures = [error]
            if failures:
                failed += 1
                print(f"operation {index} failed: " + "; ".join(failures), file=sys.stderr)
            else:
                durations[traced].append(elapsed)
    finally:
        tracer.uninstall()
    if trace:
        spans_file = workdir.parent / f"spans-{workload.name}-seed{seed}.json"
        tracer.write(spans_file)

    ok = durations[True] + durations[False]
    lines = [
        f"workload {workload.name}: seed {seed}, N = {workload.n_ions}, "
        f"{3 * workload.n_ions} modes, {attempted} operations in {timed:.3f} s timed",
        f"  set-up: inputs {['%.4f' % t for t in inputs_s]} s, "
        f"warm-up {warmup_s:.4f} s, imports {import_s:.4f} s",
        f"  ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted})",
        f"  operation wall times {['%.4f' % t for t in ok]} s",
    ]
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(ok) if ok else float("nan"),
            "ops_per_s": len(ok) / timed,
            "ops_ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        lines.append(f"  op_s.p50 over {len(ok)} samples")
    else:
        metrics = tracing.traced_metrics(tracer) if durations[True] else {}
        metrics.update(guards or {})
        untraced = statistics.median(durations[False]) if durations[False] else float("nan")
        metrics.update({
            "setup.import_s": import_s,
            "setup.inputs_s": statistics.median(inputs_s),
            "setup.warmup_s": warmup_s,
            "trace.overhead_frac": metrics.get("op.traced_s", float("nan")) / untraced - 1.0,
        })
        units = tracing.PER_LAYER
        lines.append(f"  {len(durations[True])} traced and {len(durations[False])} "
                     f"untraced operations; spans in {spans_file.relative_to(ROOT)}")
    for name, unit in units.items():
        lines.append(f"  {name:32s} {metrics.get(name, float('nan')):.6g} {unit}")
    reported = {name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
                if name in metrics and math.isfinite(metrics[name])}
    result = {
        "correct": failed == 0 and len(reported) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "penninggate" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import penninggate
    import workloads
    import_s = perf_counter() - start
    if Path(penninggate.__file__).resolve().parent != SRC / "penninggate":
        print(f"error: imported {penninggate.__file__}, not the checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        result, lines = run(workload, args.seed, args.seconds, bool(args.trace),
                            workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # still holds span files or another run's directory
            pass
    print("\n".join(lines))
    print("environment " + json.dumps(environment(workload), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
