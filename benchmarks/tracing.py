"""In-memory span tracing of the package's public functions, from outside.

A traced run wraps each public function on every package module that binds
it, so callers that imported the name into their own namespace (``bench``,
``gate``, ``crystal``, ``cli``) call the wrapper too.  A span records its
name, start, end, parent and operation id; spans exist only inside an
operation and are kept in memory until the run ends.  A span's self time is
its duration minus the durations of its child spans.  Counts are taken from
the arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "info")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.info = defaultdict(float)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._restore = []

    # -- recording ---------------------------------------------------------
    def begin_op(self, op_id):
        self._op = op_id
        self._open("op")

    def end_op(self):
        self._close()
        self._op = None

    def _open(self, name):
        span = Span(name, self._op, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self):
        self._stack.pop().end = perf_counter()

    def wrap(self, name, fn, note=None):
        """Span-recording wrapper; ``note(info, args, kwargs, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if note is not None:
                note(span.info, args, kwargs, result)
            return result

        return traced

    def counter(self, key, fn):
        """Wrapper that only counts calls, on the innermost open span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._op is not None:
                tracer._stack[-1].info[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------
    def install(self, owner, attr, wrapper_factory):
        """Replace ``owner.attr`` and every package-module binding of the same
        object with one wrapper."""
        original = getattr(owner, attr)
        wrapped = wrapper_factory(original)
        sites = [owner] + [
            module for name, module in list(sys.modules.items())
            if name.split(".")[0] == "penninggate" and module is not owner
        ]
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    setattr(site, key, wrapped)
                    self._restore.append((site, key, original))

    def uninstall(self):
        for site, key, original in reversed(self._restore):
            setattr(site, key, original)
        self._restore.clear()

    def write(self, path):
        """Write every span as JSON: parent is an index into the list."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [{"name": span.name, "op": span.op, "parent": index.get(id(span.parent)),
                 "start": span.start, "end": span.end, "counts": dict(span.info)}
                for span in self.spans]
        path.write_text(json.dumps(rows) + "\n")

    # -- analysis ----------------------------------------------------------
    def op_ids(self):
        return sorted({span.op for span in self.spans if span.name == "op"})

    def layer_totals(self, op_id):
        """Per span name: self time, inclusive time, calls and summed counts."""
        spans = [span for span in self.spans if span.op == op_id]
        child_time = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.duration
        totals = defaultdict(lambda: defaultdict(float))
        for span in spans:
            row = totals[span.name]
            row["self"] += span.duration - child_time[id(span)]
            row["total"] += span.duration
            row["calls"] += 1
            for key, value in span.info.items():
                row[key] += value
        # grids are built for the kernel or residual evaluation that encloses them
        for span in spans:
            if span.name == "quadrature.grid_for_frequencies" and span.parent is not None:
                modes = span.parent.info.get("modes", 0.0)
                totals[span.name]["node_modes"] += span.info["nodes"] * modes
        return totals


def _schedule_steps(info, args, kwargs, result):
    schedule = args[2] if len(args) > 2 else kwargs["schedule"]
    info["steps"] += schedule.cycles * schedule.steps_per_cycle


def _refine_iterations(info, args, kwargs, result):
    info["iterations"] += result.refine_iterations or 0


def _spectrum_modes(info, args, kwargs, result):
    info["modes"] = float(args[1].n_modes)


def _grid_nodes(info, args, kwargs, result):
    info["nodes"] += result.flat_times.size


def _hessian_dim(info, args, kwargs, result):
    info["dim"] = float(result.matrix.shape[0])


def _segments(info, args, kwargs, result):
    info["segments"] += len(result.segments)


def install_package_tracing(tracer):
    """Wrap the layers' public functions (and numpy's Cholesky, to count the
    factorization attempts of the Newton refinement)."""
    from penninggate import beams, bench, cli, crystal, gate, modes, quadrature

    targets = [
        (cli, "main", "cli.main", None),
        (bench, "run_experiment", "bench.run_experiment", None),
        (bench, "load_state", "bench.load_state", None),
        (crystal, "find_equilibrium", "crystal.find_equilibrium", None),
        (crystal, "anneal", "crystal.anneal", _schedule_steps),
        (crystal, "newton_refine", "crystal.newton_refine", _refine_iterations),
        (modes, "build_hessian", "modes.build_hessian", _hessian_dim),
        (modes, "williamson", "modes.williamson", None),
        (modes, "classify_bands", "modes.classify_bands", None),
        (gate, "calibrate_amplitude", "gate.calibrate_amplitude", None),
        (gate, "two_qubit_phase", "gate.two_qubit_phase", None),
        (gate, "phase_kernel", "gate.phase_kernel", _spectrum_modes),
        (gate, "residual_displacement", "gate.residual_displacement", _spectrum_modes),
        (gate, "fidelity_curve", "gate.fidelity_curve", None),
        (quadrature, "grid_for_frequencies", "quadrature.grid_for_frequencies", _grid_nodes),
        (beams, "build_pulse_sequence", "beams.build_pulse_sequence", _segments),
        (beams, "verify_conditions", "beams.verify_conditions", None),
        (beams.PulseSequence, "sample_envelope", "beams.sample_envelope", None),
    ]
    for owner, attr, name, note in targets:
        tracer.install(owner, attr, functools.partial(tracer.wrap, name, note=note))
    tracer.install(np.linalg, "cholesky", functools.partial(tracer.counter, "cholesky"))


# Per-layer metrics, in output order: name -> unit.  Counts come from the
# first traced operation, times and shares are medians over traced operations,
# guards come from the output checks and run metrics from the harness.
COUNT_METRICS = {
    "crystal.anneal_steps": "count",
    "crystal.refine_calls": "count",
    "crystal.newton_iters": "count",
    "crystal.cholesky_calls": "count",
    "crystal.newton_step_yield": "1",
    "modes.dim": "count",
    "gate.residual_calls": "count",
    "gate.kernel_calls": "count",
    "quadrature.grids_built": "count",
    "quadrature.node_mode_products": "count",
    "quadrature.bytes_computed": "B",
    "beams.segments": "count",
}
MEDIAN_METRICS = {
    "crystal.anneal_s": "s",
    "crystal.anneal_us_per_step": "us",
    "crystal.refine_s": "s",
    "crystal.find_equilibrium_s": "s",
    "crystal.ptheta_s": "s",
    "modes.hessian_s": "s",
    "modes.williamson_s": "s",
    "modes.bands_s": "s",
    "gate.calibrate_s": "s",
    "gate.phase_s": "s",
    "gate.kernel_s": "s",
    "gate.fidelity_s": "s",
    "gate.residual_s": "s",
    "quadrature.grid_s": "s",
    "beams.pulse_s": "s",
    "bench.run_experiment_s": "s",
    "bench.self_s": "s",
    "bench.load_state_s": "s",
    "cli.self_s": "s",
    "op.traced_s": "s",
    "op.crystal_frac": "1",
    "op.modes_frac": "1",
    "op.williamson_frac": "1",
    "op.gate_quadrature_frac": "1",
}
GUARD_METRICS = {
    "crystal.e_red": "E_s",
    "modes.symplectic_residual": "1",
    "modes.axial_oracle_err": "1",
    "gate.theta_err": "rad",
    "gate.infidelity_1mK": "1",
    "bench.bytes_written": "B",
}
RUN_METRICS = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_frac": "1",
}
PER_LAYER = {**MEDIAN_METRICS, **COUNT_METRICS, **GUARD_METRICS, **RUN_METRICS}


def op_metrics(totals):
    """Per-layer times and counts of one traced operation."""
    def get(name, key):
        return totals[name][key] if name in totals else 0.0

    anneal_s = get("crystal.anneal", "self")
    steps = get("crystal.anneal", "steps")
    iters = get("crystal.newton_refine", "iterations")
    cholesky = get("crystal.newton_refine", "cholesky")
    node_modes = get("quadrature.grid_for_frequencies", "node_modes")
    op_s = get("op", "total")
    crystal_s = sum(get(name, "self") for name in
                    ("crystal.find_equilibrium", "crystal.anneal", "crystal.newton_refine"))
    modes_s = sum(get(name, "self") for name in
                  ("modes.build_hessian", "modes.williamson", "modes.classify_bands"))
    gate_s = sum(get(name, "self") for name in
                 ("gate.calibrate_amplitude", "gate.two_qubit_phase", "gate.phase_kernel",
                  "gate.residual_displacement", "gate.fidelity_curve",
                  "quadrature.grid_for_frequencies"))
    return {
        "crystal.anneal_s": anneal_s,
        "crystal.anneal_us_per_step": 1e6 * anneal_s / steps if steps else 0.0,
        "crystal.refine_s": get("crystal.newton_refine", "self"),
        "crystal.find_equilibrium_s": get("crystal.find_equilibrium", "total"),
        "crystal.ptheta_s": get("crystal.find_equilibrium", "self"),
        "modes.hessian_s": get("modes.build_hessian", "self"),
        "modes.williamson_s": get("modes.williamson", "self"),
        "modes.bands_s": get("modes.classify_bands", "self"),
        "gate.calibrate_s": get("gate.calibrate_amplitude", "self"),
        "gate.phase_s": get("gate.two_qubit_phase", "self"),
        "gate.kernel_s": get("gate.phase_kernel", "self"),
        "gate.fidelity_s": get("gate.fidelity_curve", "self"),
        "gate.residual_s": get("gate.residual_displacement", "self"),
        "quadrature.grid_s": get("quadrature.grid_for_frequencies", "self"),
        "beams.pulse_s": sum(get(name, "self") for name in
                             ("beams.build_pulse_sequence", "beams.verify_conditions",
                              "beams.sample_envelope")),
        "bench.run_experiment_s": get("bench.run_experiment", "total"),
        "bench.self_s": get("bench.run_experiment", "self"),
        "bench.load_state_s": get("bench.load_state", "self"),
        "cli.self_s": get("cli.main", "self"),
        "op.traced_s": op_s,
        "op.crystal_frac": crystal_s / op_s,
        "op.modes_frac": modes_s / op_s,
        "op.williamson_frac": get("modes.williamson", "self") / op_s,
        "op.gate_quadrature_frac": gate_s / op_s,
        "crystal.anneal_steps": steps,
        "crystal.refine_calls": get("crystal.newton_refine", "calls"),
        "crystal.newton_iters": iters,
        "crystal.cholesky_calls": cholesky,
        "crystal.newton_step_yield": iters / cholesky if cholesky else 0.0,
        "modes.dim": get("modes.build_hessian", "dim"),
        "gate.residual_calls": get("gate.residual_displacement", "calls"),
        "gate.kernel_calls": get("gate.phase_kernel", "calls"),
        "quadrature.grids_built": get("quadrature.grid_for_frequencies", "calls"),
        "quadrature.node_mode_products": node_modes,
        # one complex128 modes x nodes phase matrix per grid evaluation
        "quadrature.bytes_computed": 16.0 * node_modes,
        "beams.segments": get("beams.build_pulse_sequence", "segments"),
    }


def traced_metrics(tracer):
    """Times and shares: medians over the traced operations.  Counts: the
    first traced operation, whose inputs depend only on the seed, so they
    repeat exactly."""
    per_op = [op_metrics(tracer.layer_totals(op_id)) for op_id in tracer.op_ids()]
    out = {name: statistics.median(row[name] for row in per_op) for name in MEDIAN_METRICS}
    out.update({name: per_op[0][name] for name in COUNT_METRICS})
    return out
