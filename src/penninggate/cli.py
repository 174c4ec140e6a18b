"""Command-line entry points.

Verbs: ``equilibrium``, ``modes``, ``gate``, ``sweep``, ``pulse-design``.
The first four read the key = value experiment config; pulse design takes
its beam parameters as flags.  The exit code is zero only when every
requested stage completed within its tolerances.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.constants as const

from .beams import Scheme, build_pulse_sequence, verify_conditions
from .bench import (
    _CONFIG_PARSERS,
    _FMT,
    _SWEEP_PARAMETERS,
    ExperimentConfig,
    _csv,
    parse_config,
    run_experiment,
    sweep,
)
from .scales import BOHR_MAGNETON


def _load(args) -> ExperimentConfig:
    overrides = {"seed": args.seed, "out_dir": args.out}
    return replace(parse_config(args.config),
                   **{key: val for key, val in overrides.items() if val is not None})


def _cmd_run(args):
    """The equilibrium, modes and gate verbs: the stages up to the verb's own,
    then its summary."""
    run = run_experiment(_load(args), args.verb)
    state, gate = run.state, run.gate
    if args.verb == "equilibrium":
        print(f"equilibrium: N={state.n_ions} omega_r/omega_c={state.rotation_frequency:.6f} "
              f"beta={state.anisotropy:.3e} grad={state.gradient_norm:.2e}")
    elif args.verb == "modes":
        gaps = ", ".join(f"({a:.4g}, {b:.4g})" for a, b, *_ in run.bands.gaps)
        print(f"modes: {run.spectrum.n_modes} frequencies, gaps: {gaps or 'none'}")
    else:
        worst = max(1.0 - f for _, f, _ in gate.fidelity_curve)
        print(f"gate: amplitude={gate.spec.amplitude:.4g} "
              f"nu={gate.spec.carrier_frequency / (2 * math.pi):.4g} Hz "
              f"worst infidelity={worst:.3e}")
        print(f"artifacts in {run.out_dir}")
    return 0


_GRID_FORMS = "v1,v2,... (a list), lo:hi:n (n linear steps) or log:lo:hi:n (n geometric steps)"


def _parse_grid(spec: str, parse):  # each value read by its field's config parser
    spaced = np.geomspace if spec.startswith("log:") else np.linspace
    try:
        if ":" in spec:
            lo, hi, num = spec.removeprefix("log:").split(":")
            values = [parse(_FMT.format(v)) for v in spaced(float(lo), float(hi), int(num))]
        else:
            values = [parse(tok) for tok in spec.split(",")]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"--grid {spec!r}: expected {_GRID_FORMS}")
    return values


def _cmd_sweep(args):
    config = _load(args)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = _parse_grid(args.grid, _CONFIG_PARSERS[args.parameter])
    path = out / f"sweep_{args.parameter}.csv"
    text = sweep(config, args.parameter, grid, out_path=path)
    bad = sum(1 for line in text.splitlines()[1:] if not line.endswith(",ok"))
    print(f"sweep: {len(grid)} points -> {path} ({bad} rows not ok)")
    return 0 if bad == 0 else 1


def _cmd_pulse_design(args):
    scheme = Scheme(args.scheme)
    b_rate = BOHR_MAGNETON * args.b_field / const.hbar
    seq = build_pulse_sequence(
        scheme,
        nu=2.0 * math.pi * args.nu_hz,
        n_periods=args.periods,
        delta_1=2.0 * math.pi * args.delta_d1_hz,
        delta_2=2.0 * math.pi * args.delta_d2_hz,
        b_rate=b_rate,
    )
    report = verify_conditions(seq)
    out = Path(args.out or "pulse")
    out.mkdir(parents=True, exist_ok=True)
    columns = ("t_start", "duration", "line", "polarization", "detuning_Hz", "intensity_rel",
               "ratio_branch")
    rows = [(seg.start, seg.duration, seg.line.value, seg.polarization.value,
             seg.detuning / (2 * math.pi), seg.peak_intensity, seg.ratio_branch)
            for seg in seq.segments]
    (out / "pulse_sequence.csv").write_text(_csv(columns, rows))
    worst = max(report.opposition_residual, *report.mean_residual.values())
    print(
        f"pulse-design: {len(seq.segments)} segments, opposition residual "
        f"{report.opposition_residual:.2e}, mean residuals "
        f"{report.mean_residual['0']:.2e}/{report.mean_residual['1']:.2e}"
    )
    return 0 if worst < 1e-8 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="penninggate", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="key = value experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        return p

    common("equilibrium", _cmd_run, "solve the crystal equilibrium")
    common("modes", _cmd_run, "equilibrium plus normal-mode spectrum")
    common("gate", _cmd_run, "full gate pipeline with fidelity sweep")
    p_sweep = common("sweep", _cmd_sweep, "sweep one config field through the gate stage")
    p_sweep.add_argument("--parameter", required=True, choices=_SWEEP_PARAMETERS)
    p_sweep.add_argument("--grid", required=True, help=_GRID_FORMS)

    p_pulse = sub.add_parser("pulse-design", help="state-dependent force pulse train")
    p_pulse.set_defaults(handler=_cmd_pulse_design)
    p_pulse.add_argument("--scheme", required=True,
                         choices=[s.value for s in Scheme])
    p_pulse.add_argument("--nu-hz", type=float, required=True)
    p_pulse.add_argument("--periods", type=int, default=8)
    p_pulse.add_argument("--delta-d1-hz", type=float, required=True)
    p_pulse.add_argument("--delta-d2-hz", type=float, required=True)
    p_pulse.add_argument("--b-field", type=float, required=True, help="tesla")
    p_pulse.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError) as exc:  # StageError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
