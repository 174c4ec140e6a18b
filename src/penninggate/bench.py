"""Experiment orchestration and persistence.

Wires the pipeline equilibrium -> Hessian -> symplectic modes -> band gaps ->
carrier choice -> amplitude calibration -> fidelity sweep, and writes the
run artifacts (equilibrium file, spectrum CSV, fidelity CSV, phase report,
manifest).  Runs are deterministic for a fixed seed, independent of how many
worker threads execute a sweep.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

try:
    from importlib.metadata import version as _pkg_version

    __version__ = _pkg_version("penninggate")
except Exception:  # not installed: manifest still gets written
    __version__ = "unknown"

from .crystal import (
    AnnealSchedule,
    CrystalState,
    beta_from_ratio,
    default_schedule,
    effective_potential,
    effective_potential_gradient,
    find_equilibrium,
    reduced_energy,
)
from .gate import (
    GateResult,
    GateSpec,
    calibrate_amplitude,
    calibrated_phase,
    fidelity,
    fidelity_curve,
    residual_displacement,
)
from .modes import build_hessian, classify_bands, williamson
from .scales import TrapSetup, beta_critical, get_species

_FMT = "{:.17g}"


class StageError(RuntimeError):
    """Pipeline failure carrying the stage label."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of one experiment run."""

    species: str
    nu_c_hz: float
    alpha_z: float
    n_ions: int
    p_theta: float = 0.0
    pair_rule: str = "innermost"
    nu_hz: object = "auto-gap"      # float or "auto-gap"
    tau_ratio: float | None = None  # tau_g / tau_r
    tau_g_s: float | None = None
    temperatures_k: tuple = tuple(np.geomspace(1e-4, 1e-2, 20))
    sigma_fraction: float | None = None
    carrier_cycles: float = 9.0
    tune_carrier: bool = False
    anneal_cycles: int | None = None   # search starts
    anneal_steps: int | None = None    # L-BFGS iteration cap per start
    seed: int = 0
    out_dir: str = "runs"

    def validate(self):
        temps = list(self.temperatures_k)
        if not temps or any(t <= 0 for t in temps) or any(
            b <= a for a, b in zip(temps, temps[1:])
        ):
            raise ValueError("temperature grid must be strictly increasing and positive")
        if self.tau_ratio is None and self.tau_g_s is None:
            raise ValueError("either tau_ratio or tau_g_s must be set")
        return self

    def setup(self) -> TrapSetup:
        record = get_species(self.species)
        return TrapSetup(
            species=record.species,
            cyclotron_frequency=2.0 * math.pi * self.nu_c_hz,
            axial_ratio=self.alpha_z,
            ion_count=self.n_ions,
        )

    def schedule(self) -> AnnealSchedule:
        base = default_schedule(self.setup(), self.p_theta, seed=self.seed)
        overrides = {}
        if self.anneal_cycles is not None:
            overrides["cycles"] = self.anneal_cycles
        if self.anneal_steps is not None:
            overrides["steps_per_cycle"] = self.anneal_steps
        return replace(base, **overrides) if overrides else base


_CONFIG_TYPES = {
    "species": str,
    "nu_c_hz": float,
    "alpha_z": float,
    "n_ions": int,
    "p_theta": float,
    "pair_rule": str,
    "nu_hz": "nu",
    "tau_ratio": float,
    "tau_g_s": float,
    "temperatures_k": "floats",
    "sigma_fraction": float,
    "carrier_cycles": float,
    "tune_carrier": "bool",
    "anneal_cycles": int,
    "anneal_steps": int,
    "seed": int,
    "out_dir": str,
}


def parse_config(path) -> ExperimentConfig:
    """Read the simple ``key = value`` config format (# starts a comment)."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _CONFIG_TYPES[key]
        if kind == "floats":
            values[key] = tuple(float(tok) for tok in val.split(","))
        elif kind == "bool":
            values[key] = val.lower() in ("1", "true", "yes", "on")
        elif kind == "nu":
            values[key] = val if val == "auto-gap" else float(val)
        else:
            values[key] = kind(val)
    required = ("species", "nu_c_hz", "alpha_z", "n_ions")
    missing = [key for key in required if key not in values]
    if missing:
        raise ValueError(f"{path}: missing required key(s): {', '.join(missing)}")
    return ExperimentConfig(**values).validate()


def config_lines(config: ExperimentConfig):
    out = []
    for key in _CONFIG_TYPES:
        val = getattr(config, key)
        if val is None:
            continue
        if key == "temperatures_k":
            val = ",".join(_FMT.format(t) for t in val)
        elif isinstance(val, float):
            val = _FMT.format(val)
        out.append(f"{key} = {val}")
    return out


def save_state(state: CrystalState, path):
    """Write an equilibrium file; 17 significant digits round-trip exactly."""
    lines = [
        f"N = {state.n_ions}",
        f"alpha_z = {_FMT.format(state.axial_ratio)}",
        f"P_theta = {_FMT.format(state.angular_momentum)}",
        f"omega_r_over_omega_c = {_FMT.format(state.rotation_frequency)}",
        f"energy = {_FMT.format(state.energy)}",
    ]
    for row in state.positions:
        lines.append(" ".join(_FMT.format(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_state(path, grad_tol=1e-10) -> CrystalState:
    """Read an equilibrium file back, checking that the recorded energy and
    P_theta are those of the positions."""
    text = Path(path).read_text().splitlines()
    header = {"N": None, "alpha_z": None, "P_theta": None,
              "omega_r_over_omega_c": None, "energy": None}
    rows = []
    n_expected = None
    for lineno, raw in enumerate(text, start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in header:
                raise ValueError(f"{path}:{lineno}: unexpected header {key!r}")
            header[key] = val.strip()
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'x y z'")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed coordinate") from None
    missing = [k for k, v in header.items() if v is None]
    if missing:
        raise ValueError(f"{path}: missing header line(s): {', '.join(missing)}")
    n_expected = int(header["N"])
    if len(rows) != n_expected:
        raise ValueError(
            f"{path}:{len(text)}: expected {n_expected} position rows, found {len(rows)}"
        )
    positions = np.array(rows, dtype=float)
    alpha_z = float(header["alpha_z"])
    alpha_r = float(header["omega_r_over_omega_c"])
    energy = float(header["energy"])
    recomputed = effective_potential(positions, alpha_r, alpha_z)
    if abs(recomputed - energy) > 1e-12 * max(abs(energy), 1.0):
        raise ValueError(f"{path}: recorded energy inconsistent with positions")
    grad = effective_potential_gradient(positions, alpha_r, alpha_z)
    gnorm = float(np.linalg.norm(grad))
    state = CrystalState(
        positions=positions,
        axial_ratio=alpha_z,
        rotation_frequency=alpha_r,
        angular_momentum=float(header["P_theta"]),
        anisotropy=beta_from_ratio(alpha_r, alpha_z),
        energy=energy,
        converged=gnorm < grad_tol,
        gradient_norm=gnorm,
    )
    try:
        state.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return state


def _require_planar(state: CrystalState) -> CrystalState:
    """The mode, gate and sweep stages assume a single-plane crystal, which
    needs beta < beta_c(N); a lone ion always qualifies."""
    beta_c = beta_critical(state.n_ions)
    if state.n_ions > 1 and state.anisotropy >= beta_c:
        raise ValueError(f"crystal is not planar: beta = {state.anisotropy:.6g} >= "
                         f"beta_c = {beta_c:.6g} at N = {state.n_ions}")
    return state


def select_pair(state: CrystalState, rule="innermost"):
    """Driven ion pair: the innermost ion and its nearest neighbour, or
    explicit ``indices:i,j``."""
    if rule.startswith("indices:"):
        i, j = (int(tok) for tok in rule.split(":", 1)[1].split(","))
        if not (0 <= i < state.n_ions and 0 <= j < state.n_ions) or i == j:
            raise ValueError(f"pair rule {rule!r} invalid for {state.n_ions} ions")
        return (i, j)
    if state.n_ions < 2:
        raise ValueError("no pair available: need at least two ions")
    radii = np.hypot(state.positions[:, 0], state.positions[:, 1])
    inner = int(np.argmin(radii))
    dist = np.linalg.norm(state.positions - state.positions[inner], axis=1)
    dist[inner] = np.inf
    return (inner, int(np.argmin(dist)))


def resolve_carrier(bands, rule="mid-widest"):
    """Carrier frequency (omega_c units) from the band gaps.

    The widest gap is chosen and the carrier sits at its arithmetic middle,
    far from both adjacent bands.
    """
    if not bands.gaps:
        raise ValueError("no band gap available for the carrier")
    lo, hi, *_ = max(bands.gaps, key=lambda g: g[1] - g[0])
    return 0.5 * (lo + hi)


def tune_carrier(candidates, evaluate):
    """Pick the candidate carrier minimizing the evaluated infidelity."""
    scored = [(evaluate(nu), nu) for nu in candidates]
    return min(scored)[1]


@dataclass(frozen=True)
class RunArtifacts:
    out_dir: Path
    equilibrium_file: Path
    spectrum_file: Path
    fidelity_file: Path
    phase_file: Path
    manifest_file: Path
    state: CrystalState
    gate: GateResult | None


def _write_spectrum(path, spectrum, bands, setup):
    n = spectrum.reference.n_ions
    nu_c = setup.cyclotron_frequency / (2.0 * math.pi)
    a_pos = spectrum.position_coefficients()
    weights = np.abs(a_pos) ** 2
    weights = weights.reshape(len(weights), n, 3).sum(axis=2)
    weights = weights / weights.sum(axis=1, keepdims=True)
    header = "mode,omega_over_omega_c,nu_hz,band,regularized," + ",".join(
        f"w_ion{j}" for j in range(n)
    )
    lines = [header]
    for k in range(spectrum.n_modes):
        reg = 1 if k == spectrum.regularized_mode else 0
        row = [
            str(k),
            _FMT.format(spectrum.frequencies[k]),
            _FMT.format(spectrum.frequencies[k] * nu_c),
            bands.labels[k],
            str(reg),
        ] + [_FMT.format(w) for w in weights[k]]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_fidelity(path, rows):
    lines = ["T_K,F,infidelity,branch"]
    for temp, value, branch in rows:
        lines.append(
            ",".join([_FMT.format(temp), _FMT.format(value), _FMT.format(1.0 - value), branch])
        )
    Path(path).write_text("\n".join(lines) + "\n")


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunArtifacts:
    """Execute the full pipeline and write all artifacts.

    Stage failures are raised as StageError after flushing the artifacts
    produced so far together with a FAILED marker.
    """
    config.validate()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "equilibrium": out / "equilibrium.txt",
        "spectrum": out / "spectrum.csv",
        "fidelity": out / "fidelity.csv",
        "phase": out / "phase.json",
        "manifest": out / "manifest.txt",
    }
    started = time.time()
    setup = config.setup()
    stage = "equilibrium"
    gate_result = None
    state = spectrum = None
    try:
        state = find_equilibrium(setup, config.p_theta, config.schedule())
        save_state(state, paths["equilibrium"])
        _require_planar(state)

        stage = "modes"
        spectrum = williamson(build_hessian(state))
        bands = classify_bands(spectrum, setup)
        _write_spectrum(paths["spectrum"], spectrum, bands, setup)

        stage = "gate"
        pair = select_pair(state, config.pair_rule)
        tau_r = 2.0 * math.pi / (state.rotation_frequency * setup.cyclotron_frequency)
        tau_g = config.tau_g_s if config.tau_g_s is not None else config.tau_ratio * tau_r

        if config.nu_hz == "auto-gap":
            nu_tilde = resolve_carrier(bands)
            if config.tune_carrier:
                lo, hi, *_ = max(bands.gaps, key=lambda g: g[1] - g[0])
                span = hi - lo
                grid = np.linspace(lo + 0.2 * span, hi - 0.2 * span, 13)

                def evaluate(nu_try):
                    spec_try = _gate_spec(config, pair, nu_try * setup.cyclotron_frequency, tau_g)
                    amp_try = calibrate_amplitude(spec_try, spectrum, state, setup)
                    rows_try = fidelity_curve(
                        spec_try, spectrum, state, setup,
                        [min(config.temperatures_k)], amplitude=amp_try,
                    )
                    return 1.0 - rows_try[0][1]

                nu_tilde = tune_carrier(grid, evaluate)
            nu = nu_tilde * setup.cyclotron_frequency
        else:
            nu = 2.0 * math.pi * float(config.nu_hz)

        gspec = _gate_spec(config, pair, nu, tau_g)
        amplitude, phase = calibrated_phase(gspec, spectrum, state, setup)
        if abs(abs(phase.theta) - math.pi) > 1e-6:
            raise RuntimeError(f"calibration failed: |theta| = {abs(phase.theta)}")

        stage = "fidelity"
        residuals = {
            j: residual_displacement(gspec, spectrum, state, setup, j, amplitude=1.0)
            for j in pair
        }
        rows = [
            (float(temp), *fidelity(residuals[pair[0]], residuals[pair[1]], amplitude,
                                    spectrum, temp, setup))
            for temp in config.temperatures_k
        ]
        _write_fidelity(paths["fidelity"], rows)
        gate_result = GateResult(
            amplitude=amplitude,
            theta=phase.theta,
            theta_by_state=phase.by_state,
            residuals=residuals,
            fidelity_curve=rows,
            carrier_frequency=nu,
            gate_time=tau_g,
        )
        report = {
            "theta": phase.theta,
            "theta_by_state": phase.by_state,
            "amplitude": amplitude,
            "nu_hz": nu / (2.0 * math.pi),
            "tau_g_s": tau_g,
            "tau_g_over_tau_r": tau_g / tau_r,
            "pair": list(pair),
        }
        paths["phase"].write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    except Exception as exc:
        (out / "FAILED").write_text(f"{stage}: {exc}\n")
        _write_manifest(paths["manifest"], config, started, state, failed=stage)
        raise StageError(stage, str(exc)) from exc

    _write_manifest(paths["manifest"], config, started, state)
    return RunArtifacts(
        out_dir=out,
        equilibrium_file=paths["equilibrium"],
        spectrum_file=paths["spectrum"],
        fidelity_file=paths["fidelity"],
        phase_file=paths["phase"],
        manifest_file=paths["manifest"],
        state=state,
        gate=gate_result,
    )


def _gate_spec(config: ExperimentConfig, pair, nu, tau_g):
    width = None
    if config.sigma_fraction is not None:
        width = config.sigma_fraction * tau_g
    return GateSpec(
        target_pair=pair,
        carrier_frequency=nu,
        gate_time=tau_g,
        envelope_width=width,
    )


def _write_manifest(path, config, started, state=None, failed=None):
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}"
                       for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    lines = [f"# penninggate {__version__}", f"# elapsed_s {time.time() - started:.3f}",
             f"# blas_threads {threads}"]
    if state is not None:
        e_red = reduced_energy(state.positions, config.p_theta, state.axial_ratio)
        lines.append(
            f"# equilibrium e_red={_FMT.format(e_red)} gradient_norm={state.gradient_norm:.3e}"
            f" refine_iterations={state.refine_iterations}"
            f" ptheta_mismatch={state.angular_momentum - config.p_theta:.3e}"
        )
    if failed:
        lines.append(f"# failed_stage {failed}")
    lines.extend(config_lines(config))
    Path(path).write_text("\n".join(lines) + "\n")


def sweep(config: ExperimentConfig, parameter, grid, out_path=None, threads=1):
    """Consolidated sweep over one parameter; one CSV row per grid point.

    Grid points are computed independently (thread pool), collected in grid
    order, and per-point failures become rows with an error code instead of
    aborting the sweep.
    """
    config.validate()
    if parameter not in ("p_theta", "T", "nu", "tau_g"):
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    if len(grid) == 0:
        raise ValueError("empty sweep grid")
    setup = config.setup()

    if parameter == "p_theta":
        # equilibrium quantities only: 3D points are valid rows here
        base = find_equilibrium(setup, float(grid[0]), config.schedule())

        def point(value):
            state = find_equilibrium(setup, float(value), initial_positions=base.positions)
            return {
                "p_theta": value,
                "omega_r_over_omega_c": state.rotation_frequency,
                "beta": state.anisotropy,
                "energy": state.energy,
            }

        header = ["p_theta", "omega_r_over_omega_c", "beta", "energy", "status"]
    else:
        try:
            state = _require_planar(find_equilibrium(setup, config.p_theta, config.schedule()))
        except (RuntimeError, ValueError) as exc:
            raise StageError("equilibrium", str(exc)) from exc
        spectrum = williamson(build_hessian(state))
        bands = classify_bands(spectrum, setup)
        pair = select_pair(state, config.pair_rule)
        tau_r = 2.0 * math.pi / (state.rotation_frequency * setup.cyclotron_frequency)

        def gate_rows(nu, tau_g, temps):
            gspec = _gate_spec(config, pair, nu, tau_g)
            amplitude = calibrate_amplitude(gspec, spectrum, state, setup)
            return gspec, amplitude, fidelity_curve(
                gspec, spectrum, state, setup, temps, amplitude=amplitude
            )

        def default_nu(tau_g):
            if config.nu_hz == "auto-gap":
                return resolve_carrier(bands) * setup.cyclotron_frequency
            return 2.0 * math.pi * float(config.nu_hz)

        if parameter == "T":
            tau_g = config.tau_g_s if config.tau_g_s is not None else config.tau_ratio * tau_r
            _, _, rows = gate_rows(default_nu(tau_g), tau_g, list(grid))
            cache = {float(r[0]): r for r in rows}

            def point(value):
                row = cache[float(value)]
                return {"T_K": row[0], "F": row[1], "infidelity": 1.0 - row[1], "branch": row[2]}

            header = ["T_K", "F", "infidelity", "branch", "status"]
        elif parameter == "nu":
            tau_g = config.tau_g_s if config.tau_g_s is not None else config.tau_ratio * tau_r

            def point(value):
                nu = 2.0 * math.pi * float(value)
                _, amplitude, rows = gate_rows(nu, tau_g, [min(config.temperatures_k)])
                return {
                    "nu_hz": value,
                    "amplitude": amplitude,
                    "T_K": rows[0][0],
                    "infidelity": 1.0 - rows[0][1],
                }

            header = ["nu_hz", "amplitude", "T_K", "infidelity", "status"]
        else:  # tau_g sweep over tau_ratio values

            def point(value):
                ratio = float(value)
                tau_g = ratio * tau_r
                nu = 2.0 * math.pi * config.carrier_cycles / tau_g
                _, amplitude, rows = gate_rows(nu, tau_g, list(config.temperatures_k))
                return {
                    "tau_ratio": ratio,
                    "nu_hz": nu / (2.0 * math.pi),
                    "amplitude": amplitude,
                    "curve": rows,
                }

            header = ["tau_ratio", "nu_hz", "T_K", "F", "infidelity", "branch", "status"]

    def safe_point(value):
        try:
            return point(value), None
        except Exception as exc:  # per-point failure becomes a row
            return None, f"error:{type(exc).__name__}"

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(safe_point, grid))
    else:
        results = [safe_point(v) for v in grid]

    lines = [",".join(header)]
    for value, (payload, err) in zip(grid, results):
        if err is not None:
            row = [_FMT.format(float(value))] + [""] * (len(header) - 2) + [err]
            lines.append(",".join(row))
            continue
        if parameter == "tau_g":
            for temp, fval, branch in payload["curve"]:
                lines.append(",".join([
                    _FMT.format(payload["tau_ratio"]),
                    _FMT.format(payload["nu_hz"]),
                    _FMT.format(temp),
                    _FMT.format(fval),
                    _FMT.format(1.0 - fval),
                    branch,
                    "ok",
                ]))
        else:
            row = []
            for key in header[:-1]:
                val = payload[key]
                row.append(val if isinstance(val, str) else _FMT.format(float(val)))
            lines.append(",".join(row + ["ok"]))
    text = "\n".join(lines) + "\n"
    if out_path is not None:
        Path(out_path).write_text(text)
        _write_plot_script(Path(out_path), parameter)
    return text


def _write_plot_script(csv_path, parameter):
    """Data-only plot emission: a gnuplot script next to the CSV."""
    gp = csv_path.with_suffix(".gp")
    ycol = {"p_theta": 2, "T": 3, "nu": 4, "tau_g": 5}[parameter]
    gp.write_text(
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"plot '{csv_path.name}' using 1:{ycol} with linespoints\n"
    )
