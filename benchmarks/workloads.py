"""The three benchmark workloads and their output checks.

Each workload has the same three steps:

* ``prepare(seed, workdir)`` builds every input from the workload seed (this
  is the "inputs" part of set-up);
* ``operation(ctx, index)`` is one closed-loop operation, the only timed code;
  ``index`` 0 is the untimed warm-up, timed operations count from 1;
* ``check(ctx, output)`` runs outside the timed region and returns
  ``(failures, guards)``: a list of failed checks (empty when the output is
  correct) and the accuracy values reported by the traced run.

The package is driven only through its public functions and the CLI entry
point, always looked up on the package modules at call time so that the
traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from penninggate import bench, beams, cli, crystal, gate, modes, scales

NU_C_HZ = 7.608e6
ALPHA_Z = 0.02
FIG4_P_THETA = 1.3e5
N100_P_THETA = 1.2e6          # beta ~ 0.035 < beta_c(100) = 0.0665: planar
TAU_RATIO = 0.006
SWEEP_RATIOS = tuple(np.geomspace(0.006, 0.2, 8))
TEMPERATURES = tuple(np.geomspace(1e-4, 1e-2, 20))  # the config default grid
PROFILE_SAMPLES_PER_PERIOD = 80

GRAD_TOL = 1e-10
SYMPLECTIC_TOL = 1e-10
ORACLE_RTOL = 1e-10
THETA_TOL = 1e-6
PULSE_TOL = 1e-8
PTHETA_RTOL = 1e-10

FIG4_CONFIG = f"""\
species = Be+
nu_c_hz = {NU_C_HZ!r}
alpha_z = {ALPHA_Z!r}
n_ions = 30
p_theta = {FIG4_P_THETA!r}
tau_ratio = {TAU_RATIO!r}
nu_hz = auto-gap
"""
ARTIFACTS = ("equilibrium.txt", "spectrum.csv", "fidelity.csv", "phase.json", "manifest.txt")


def trap(n_ions):
    record = scales.get_species("Be+")
    return scales.TrapSetup(record.species, 2.0 * math.pi * NU_C_HZ, ALPHA_Z, n_ions)


def jittered_hex(n_ions, p_theta, seed):
    """Seeded warm start: a hexagonal lattice sized so that its rigid-rotor
    angular momentum at slow rotation, sum r^2 / 2, matches P_theta, with a
    5 % Gaussian jitter on every coordinate."""
    rng = np.random.default_rng(seed)
    lattice = crystal.hex_lattice(n_ions)
    spacing = math.sqrt(2.0 * p_theta / float(np.sum(lattice**2)))
    positions = np.zeros((n_ions, 3))
    positions[:, :2] = spacing * lattice
    return positions + 0.05 * spacing * rng.standard_normal((n_ions, 3))


def crystal_failures(state, p_theta):
    """Equilibrium checks: internal consistency, convergence, planarity and
    the requested angular momentum."""
    failures = []
    try:
        state.validate()
    except ValueError as exc:
        failures.append(f"crystal: {exc}")
    if not state.converged:
        failures.append("crystal: not converged")
    if not state.gradient_norm <= GRAD_TOL:
        failures.append(f"crystal: gradient {state.gradient_norm:.3e} > {GRAD_TOL:g}")
    beta_c = scales.beta_critical(state.n_ions)
    if not 0.0 < state.anisotropy < beta_c:
        failures.append(f"crystal: beta {state.anisotropy:.4g} outside (0, beta_c = {beta_c:.4g})")
    if not abs(state.angular_momentum - p_theta) <= PTHETA_RTOL * max(1.0, p_theta):
        failures.append(f"crystal: P_theta {state.angular_momentum!r} != {p_theta!r}")
    return failures


def axial_oracle_error(state, axial_frequencies):
    """Largest relative distance between the axial-band frequencies and the
    independent oracle sqrt(eigvalsh) of the N x N z-curvature block."""
    hess = crystal.effective_potential_hessian(
        state.positions, state.rotation_frequency, state.axial_ratio
    )
    reference = np.sqrt(np.linalg.eigvalsh(hess[2::3, 2::3]))
    axial = np.sort(np.asarray(axial_frequencies, dtype=float))
    if axial.shape != reference.shape:
        return math.inf
    return float(np.max(np.abs(axial - reference) / reference))


def symplectic_residual(spectrum):
    """max |S J S^T - J|, with S J formed by column swaps (J is 2x2 block diagonal)."""
    s = spectrum.symplectic
    sj = np.empty_like(s)
    sj[:, 0::2] = -s[:, 1::2]
    sj[:, 1::2] = s[:, 0::2]
    return float(np.abs(sj @ s.T - modes.symplectic_form(s.shape[0] // 2)).max())


def axial_band(spectrum, bands):
    return [f for f, label in zip(spectrum.frequencies, bands.labels) if label == "axial"]


def spectrum_checks(state, spectrum, axial_frequencies):
    resid = symplectic_residual(spectrum)
    oracle = axial_oracle_error(state, axial_frequencies)
    failures = []
    if not resid <= SYMPLECTIC_TOL:
        failures.append(f"modes: symplectic residual {resid:.3e} > {SYMPLECTIC_TOL:g}")
    if not oracle <= ORACLE_RTOL:
        failures.append(f"modes: axial oracle error {oracle:.3e} > {ORACLE_RTOL:g}")
    return failures, {"modes.symplectic_residual": resid, "modes.axial_oracle_err": oracle}


def fidelity_failures(fidelities, allow_zero=False):
    """0 < F <= 1 on every row; ``allow_zero`` accepts F that underflowed to 0."""
    bad = [f for f in fidelities if not ((0.0 <= f if allow_zero else 0.0 < f) and f <= 1.0)]
    return [f"gate: fidelity {bad[0]!r} outside the allowed range"] if bad else []


def infidelity_at(temperatures, fidelities, temperature=1e-3):
    """1 - F at ``temperature``, interpolating -ln F linearly in log T."""
    if min(fidelities) <= 0.0:
        return 1.0
    exponent = np.interp(math.log(temperature), np.log(temperatures),
                         [-math.log(f) for f in fidelities])
    return float(-math.expm1(-exponent))


def theta_error(theta):
    return abs(abs(theta) - math.pi)


def setup_failed(failures, what):
    if failures:
        raise RuntimeError(f"{what} failed its checks: " + "; ".join(failures))


@dataclass
class Fig4Context:
    config: Path
    seeds: list
    workdir: Path


class PipelineFig4:
    """Headline user run: the README fig4 ``penninggate gate`` at N = 30."""

    name = "pipeline-fig4"
    n_ions = 30

    def prepare(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        config = workdir / "fig4.cfg"
        config.write_text(FIG4_CONFIG)
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=4096)]
        return Fig4Context(config=config, seeds=seeds, workdir=workdir)

    def operation(self, ctx, index):
        out = ctx.workdir / f"op{index}"
        if out.exists():
            shutil.rmtree(out)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(["gate", "--config", str(ctx.config),
                             "--seed", str(ctx.seeds[index]), "--out", str(out)])
        return {"code": code, "out": out, "log": captured.getvalue()}

    def check(self, ctx, output):
        out = output["out"]
        if output["code"] != 0:
            return [f"cli: exit code {output['code']}: {output['log'].strip()}"], {}
        missing = [name for name in ARTIFACTS if not (out / name).is_file()]
        if missing or (out / "FAILED").exists():
            return [f"cli: missing artifacts {missing} or FAILED marker"], {}
        state = bench.load_state(out / "equilibrium.txt")
        failures = crystal_failures(state, FIG4_P_THETA)
        # the symplectic residual needs S, which the CLI does not write: re-solve
        # the written crystal and require the identical spectrum
        spectrum = modes.williamson(modes.build_hessian(state))
        rows = [line.split(",") for line in (out / "spectrum.csv").read_text().splitlines()[1:]]
        if not np.array_equal([float(row[1]) for row in rows], spectrum.frequencies):
            failures.append("modes: spectrum.csv differs from the re-solved spectrum")
        more, guards = spectrum_checks(state, spectrum,
                                       [float(row[1]) for row in rows if row[3] == "axial"])
        failures += more
        theta = json.loads((out / "phase.json").read_text())["theta"]
        if not theta_error(theta) <= THETA_TOL:
            failures.append(f"gate: |theta| - pi = {theta_error(theta):.3e}")
        table = [line.split(",") for line in (out / "fidelity.csv").read_text().splitlines()[1:]]
        temps = [float(row[0]) for row in table]
        fids = [float(row[1]) for row in table]
        if len(fids) != len(TEMPERATURES):
            failures.append(f"gate: {len(fids)} fidelity rows, expected {len(TEMPERATURES)}")
        failures += fidelity_failures(fids)
        guards.update({
            "crystal.e_red": crystal.reduced_energy(state.positions, FIG4_P_THETA, ALPHA_Z),
            "gate.theta_err": theta_error(theta),
            "gate.infidelity_1mK": infidelity_at(temps, fids),
            "bench.bytes_written": float(sum(p.stat().st_size for p in out.iterdir())),
        })
        shutil.rmtree(out)
        return failures, guards


@dataclass
class SpectrumContext:
    setup: object
    path: Path


class SpectrumN100:
    """Dense 6N = 600 Williamson solve on a warm-started planar N = 100 crystal."""

    name = "spectrum-n100"
    n_ions = 100

    def prepare(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        setup = trap(self.n_ions)
        start = jittered_hex(self.n_ions, N100_P_THETA, seed)
        state = crystal.find_equilibrium(setup, N100_P_THETA, initial_positions=start)
        setup_failed(crystal_failures(state, N100_P_THETA), "N = 100 equilibrium")
        path = workdir / "equilibrium.txt"
        bench.save_state(state, path)
        return SpectrumContext(setup=setup, path=path)

    def operation(self, ctx, index):
        setup = ctx.setup
        wc = setup.cyclotron_frequency
        state = bench.load_state(ctx.path)
        spectrum = modes.williamson(modes.build_hessian(state))
        bands = modes.classify_bands(spectrum, setup)
        nu = bench.resolve_carrier(bands) * wc
        tau_g = TAU_RATIO * 2.0 * math.pi / (state.rotation_frequency * wc)
        sequence = beams.build_pulse_sequence(
            beams.Scheme.SAME_SIGMA_PLUS, nu=nu,
            n_periods=max(int(nu * tau_g / (2.0 * math.pi)), 1),
            delta_1=-2e11, delta_2=3e11, b_rate=3e9,
        )
        report = beams.verify_conditions(sequence)
        times, force, _ = sequence.sample_envelope(samples_per_period=PROFILE_SAMPLES_PER_PERIOD)
        spec = gate.GateSpec(target_pair=bench.select_pair(state), carrier_frequency=nu,
                             gate_time=float(times[-1]),
                             profile=(times, force / np.abs(force).max()))
        amplitude = gate.calibrate_amplitude(spec, spectrum, state, setup)
        rows = gate.fidelity_curve(spec, spectrum, state, setup, TEMPERATURES,
                                   amplitude=amplitude)
        return {"state": state, "spectrum": spectrum, "bands": bands, "report": report,
                "spec": replace(spec, amplitude=amplitude), "rows": rows}

    def check(self, ctx, output):
        state, spectrum = output["state"], output["spectrum"]
        failures = crystal_failures(state, N100_P_THETA)
        more, guards = spectrum_checks(state, spectrum, axial_band(spectrum, output["bands"]))
        failures += more
        report = output["report"]
        worst = max(report.opposition_residual, *report.mean_residual.values())
        if not worst <= PULSE_TOL:
            failures.append(f"beams: pulse residual {worst:.3e} > {PULSE_TOL:g}")
        theta = gate.two_qubit_phase(output["spec"], spectrum, state, ctx.setup).theta
        if not theta_error(theta) <= THETA_TOL:
            failures.append(f"gate: |theta| - pi = {theta_error(theta):.3e}")
        fids = [row[1] for row in output["rows"]]
        # the unwindowed sin^2 train leaves large residual displacements on
        # the low ExB modes, so F underflows to 0 here; 0 is a valid value
        failures += fidelity_failures(fids, allow_zero=True)
        guards.update({
            "crystal.e_red": crystal.reduced_energy(state.positions, N100_P_THETA, ALPHA_Z),
            "gate.theta_err": theta_error(theta),
            "gate.infidelity_1mK": infidelity_at(TEMPERATURES, fids),
            "bench.bytes_written": 0.0,
        })
        return failures, guards


@dataclass
class SweepContext:
    setup: object
    state: object
    spectrum: object
    pair: tuple
    nu: float
    tau_r: float
    guards: dict


class TauSweepN30:
    """Gate-time sweep with the analytic Gaussian carrier on a fixed spectrum."""

    name = "tau-sweep-n30"
    n_ions = 30

    def prepare(self, seed, workdir):
        setup = trap(self.n_ions)
        start = jittered_hex(self.n_ions, FIG4_P_THETA, seed)
        state = crystal.find_equilibrium(setup, FIG4_P_THETA, initial_positions=start)
        spectrum = modes.williamson(modes.build_hessian(state))
        bands = modes.classify_bands(spectrum, setup)
        failures, guards = spectrum_checks(state, spectrum, axial_band(spectrum, bands))
        setup_failed(crystal_failures(state, FIG4_P_THETA) + failures, "N = 30 crystal")
        guards["crystal.e_red"] = crystal.reduced_energy(state.positions, FIG4_P_THETA, ALPHA_Z)
        wc = setup.cyclotron_frequency
        return SweepContext(
            setup=setup, state=state, spectrum=spectrum, pair=bench.select_pair(state),
            nu=bench.resolve_carrier(bands) * wc,
            tau_r=2.0 * math.pi / (state.rotation_frequency * wc), guards=guards,
        )

    def operation(self, ctx, index):
        points = []
        for ratio in SWEEP_RATIOS:
            spec = gate.GateSpec(ctx.pair, ctx.nu, ratio * ctx.tau_r)
            amplitude = gate.calibrate_amplitude(spec, ctx.spectrum, ctx.state, ctx.setup)
            phase = gate.two_qubit_phase(replace(spec, amplitude=amplitude), ctx.spectrum,
                                         ctx.state, ctx.setup)
            rows = gate.fidelity_curve(spec, ctx.spectrum, ctx.state, ctx.setup, TEMPERATURES,
                                       amplitude=amplitude)
            points.append((phase.theta, [row[1] for row in rows]))
        return points

    def check(self, ctx, output):
        failures = []
        for theta, fids in output:
            if not theta_error(theta) <= THETA_TOL:
                failures.append(f"gate: |theta| - pi = {theta_error(theta):.3e}")
            failures += fidelity_failures(fids)
        guards = dict(ctx.guards)
        guards.update({
            "gate.theta_err": max(theta_error(theta) for theta, _ in output),
            "gate.infidelity_1mK": max(infidelity_at(TEMPERATURES, f) for _, f in output),
            "bench.bytes_written": 0.0,
        })
        return failures, guards


WORKLOADS = {w.name: w for w in (PipelineFig4(), SpectrumN100(), TauSweepN30())}
