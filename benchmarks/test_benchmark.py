"""Tests of the benchmark harness itself: traced counts repeat exactly for a
fixed seed, tracing leaves the package unwrapped afterwards, and the harness
refuses to run without the package sources."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_counts(name, seed, workdir):
    workload = workloads.WORKLOADS[name]
    ctx = workload.prepare(seed, workdir)
    tracer = tracing.Tracer()
    tracing.install_package_tracing(tracer)
    try:
        tracer.begin_op(1)
        output = workload.operation(ctx, 1)
        tracer.end_op()
    finally:
        tracer.uninstall()
    failures, _ = workload.check(ctx, output)
    assert failures == []
    metrics = tracing.op_metrics(tracer.layer_totals(1))
    return {key: metrics[key] for key in tracing.COUNT_METRICS}


@pytest.mark.parametrize("name", ["pipeline-fig4", "spectrum-n100"])
def test_traced_counts_repeat_for_a_fixed_seed(name, tmp_path):
    first = traced_counts(name, 5, tmp_path / "first")
    second = traced_counts(name, 5, tmp_path / "second")
    assert first == second
    assert first["gate.residual_calls"] > 0 and first["quadrature.grids_built"] > 0


def test_uninstall_restores_the_package_functions():
    from penninggate import bench, gate
    import numpy as np

    originals = (gate.phase_kernel, bench.find_equilibrium, np.linalg.cholesky,
                 gate.two_qubit_phase)
    tracer = tracing.Tracer()
    tracing.install_package_tracing(tracer)
    assert gate.phase_kernel is not originals[0]
    tracer.uninstall()
    assert (gate.phase_kernel, bench.find_equilibrium, np.linalg.cholesky,
            gate.two_qubit_phase) == originals


def test_run_fails_without_package_sources(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    shutil.copytree(Path(__file__).parent, bench_dir,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "spectrum-n100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
