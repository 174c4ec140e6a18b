"""Experiment orchestration and persistence.

One set of stage functions -- equilibrium, modes (Hessian, symplectic modes,
band gaps) and gate (pair, gate time, carrier, amplitude calibration, thermal
fidelity) -- serves the CLI verbs, ``run_experiment`` and ``sweep``.  A run
writes the artifacts of the stages it reaches (equilibrium file, spectrum CSV,
fidelity CSV, phase report) and a manifest.  Runs are deterministic for a fixed
seed, independent of how many worker threads execute a sweep.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .crystal import _GRAD_TOL, AnnealSchedule, CrystalState, find_equilibrium, reduced_energy
from .gate import GateResult, GateSpec, calibrated_phase, fidelity_curve
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
    """Resolved configuration of one experiment run, checked when it is built.
    Its fields are the config file's keys; one without a default is required."""

    species: str
    nu_c_hz: float
    alpha_z: float
    n_ions: int
    p_theta: float = 0.0
    pair_rule: str = "innermost"
    nu_hz: float | str = "auto-gap"  # Hz, or "auto-gap"
    tau_ratio: float | None = None   # gate time tau_g / tau_r
    temperatures_k: tuple = tuple(np.geomspace(1e-4, 1e-2, 20))
    sigma_fraction: float | None = None
    tune_carrier: bool = False
    anneal_cycles: int | None = None   # search starts
    anneal_steps: int | None = None    # L-BFGS iteration cap per start
    seed: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        temps = list(self.temperatures_k)
        if not temps or any(t <= 0 for t in temps) or any(
            b <= a for a, b in zip(temps, temps[1:])
        ):
            raise ValueError("temperature grid must be strictly increasing and positive")
        if self.tau_ratio is None:
            raise ValueError("tau_ratio must be set")
        _pair_indices(self.pair_rule, self.n_ions)
        self.setup()

    def setup(self) -> TrapSetup:
        try:
            record = get_species(self.species)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        return TrapSetup(
            species=record.species,
            cyclotron_frequency=2.0 * math.pi * self.nu_c_hz,
            axial_ratio=self.alpha_z,
            ion_count=self.n_ions,
        )

    def schedule(self) -> AnnealSchedule:
        """The search budget: the ``anneal_*`` keys that are set, else the defaults."""
        budget = {"cycles": self.anneal_cycles, "steps_per_cycle": self.anneal_steps}
        return AnnealSchedule(seed=self.seed,
                              **{key: val for key, val in budget.items() if val is not None})


def _parse_bool(val):
    for truth, words in ((True, ("true", "1", "yes", "on")), (False, ("false", "0", "no", "off"))):
        if val.lower() in words:
            return truth
    raise ValueError(f"expected true/false, 1/0, yes/no or on/off, got {val!r}")


# one value parser per field annotation; an annotation without one fails here
_VALUE_PARSERS = {
    "str": str,
    "int": int,
    "int | None": int,
    "float": float,
    "float | None": float,
    "float | str": lambda val: val if val == "auto-gap" else float(val),
    "bool": _parse_bool,
    "tuple": lambda val: tuple(float(tok) for tok in val.split(",")),
}
_CONFIG_PARSERS = {f.name: _VALUE_PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(path) -> ExperimentConfig:
    """Read the simple ``key = value`` config format (# starts a comment);
    a key may appear once."""
    values, seen = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _CONFIG_PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from None
    missing = [f.name for f in fields(ExperimentConfig)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ValueError(f"{path}: missing required key(s): {', '.join(missing)}")
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def config_lines(config: ExperimentConfig):
    """``key = value`` lines that ``parse_config`` reads back exactly; None is left out."""
    out = []
    for field in fields(config):
        val = getattr(config, field.name)
        if val is None:
            continue
        if isinstance(val, tuple):
            val = ",".join(_FMT.format(t) for t in val)
        elif isinstance(val, float):
            val = _FMT.format(val)
        out.append(f"{field.name} = {val}")
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


_HEADER_PARSERS = {"N": int, "alpha_z": float, "P_theta": float,
                   "omega_r_over_omega_c": float, "energy": float}


def load_state(path) -> CrystalState:
    """Read an equilibrium file back, checking that the recorded energy and
    P_theta are those of the positions; converged means a gradient norm
    below 1e-10."""
    text = Path(path).read_text().splitlines()
    header = {}
    rows = []
    for lineno, raw in enumerate(text, start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _HEADER_PARSERS:
                raise ValueError(f"{path}:{lineno}: unexpected header {key!r}")
            try:
                header[key] = _HEADER_PARSERS[key](val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: header {key!r}: {exc}") from None
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'x y z'")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed coordinate") from None
    missing = [k for k in _HEADER_PARSERS if k not in header]
    if missing:
        raise ValueError(f"{path}: missing header line(s): {', '.join(missing)}")
    if len(rows) != header["N"]:
        raise ValueError(
            f"{path}:{len(text)}: expected {header['N']} position rows, found {len(rows)}"
        )
    state = CrystalState.at(np.array(rows, dtype=float), header["omega_r_over_omega_c"],
                            header["alpha_z"])
    energy = header["energy"]
    if abs(state.energy - energy) > 1e-12 * max(abs(energy), 1.0):
        raise ValueError(f"{path}: recorded energy inconsistent with positions")
    # the header's P_theta is kept, so validate() checks it against the positions
    state = replace(state, angular_momentum=header["P_theta"], energy=energy,
                    converged=state.gradient_norm < _GRAD_TOL)
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


def _pair_indices(rule, n_ions):
    """The two ions of an ``indices:i,j`` pair rule, or None for ``innermost``;
    any other rule, or not two distinct ions of ``n_ions``, is an error."""
    if rule == "innermost":
        return None
    match = re.fullmatch(r"indices:(\d+),(\d+)", rule)
    pair = (int(match[1]), int(match[2])) if match else (0, 0)
    if pair[0] == pair[1] or max(pair) >= n_ions:
        raise ValueError(f"pair rule {rule!r} invalid for {n_ions} ions: expected "
                         f"'innermost' or 'indices:i,j' with two distinct ions")
    return pair


def select_pair(state: CrystalState, rule="innermost"):
    """Driven ion pair: the innermost ion and its nearest neighbour, or
    explicit ``indices:i,j``."""
    explicit = _pair_indices(rule, state.n_ions)
    if explicit is not None:
        return explicit
    if state.n_ions < 2:
        raise ValueError("no pair available: need at least two ions")
    radii = np.hypot(state.positions[:, 0], state.positions[:, 1])
    inner = int(np.argmin(radii))
    dist = np.linalg.norm(state.positions - state.positions[inner], axis=1)
    dist[inner] = np.inf
    return (inner, int(np.argmin(dist)))


def _widest_gap(bands):
    if not bands.gaps:
        raise ValueError("no band gap available for the carrier")
    lo, hi, *_ = max(bands.gaps, key=lambda g: g[1] - g[0])
    return lo, hi


def resolve_carrier(bands):
    """Carrier frequency (omega_c units) from the band gaps.

    The widest gap is chosen and the carrier sits at its arithmetic middle,
    far from both adjacent bands.
    """
    lo, hi = _widest_gap(bands)
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


def _csv(columns, rows):
    """CSV text: strings verbatim, numbers to 17 significant digits."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _FMT.format(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _write_spectrum(path, spectrum, bands, setup):
    n = spectrum.reference.n_ions
    nu_c = setup.cyclotron_frequency / (2.0 * math.pi)
    a_pos = spectrum.position_coefficients()
    weights = np.abs(a_pos) ** 2
    weights = weights.reshape(len(weights), n, 3).sum(axis=2)
    weights = weights / weights.sum(axis=1, keepdims=True)
    columns = ["mode", "omega_over_omega_c", "nu_hz", "band", "regularized"]
    rows = [
        (k, omega, omega * nu_c, bands.labels[k], int(k == spectrum.regularized_mode), *weights[k])
        for k, omega in enumerate(spectrum.frequencies)
    ]
    Path(path).write_text(_csv(columns + [f"w_ion{j}" for j in range(n)], rows))


_FIDELITY_COLUMNS = ("T_K", "F", "infidelity", "branch")


def _fidelity_rows(curve):
    """(T, F, branch) rows of a fidelity curve as _FIDELITY_COLUMNS rows."""
    return [(temp, value, 1.0 - value, branch) for temp, value, branch in curve]


# Pipeline stages.  The CLI verbs, run_experiment and sweep all compute through
# these functions; _run_stages chains them and writes the artifacts.

@contextmanager
def _stage(name):
    """Re-raise any failure inside the block as StageError(name)."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _equilibrium(config: ExperimentConfig, setup) -> CrystalState:
    return find_equilibrium(setup, config.p_theta, config.schedule())


def _modes(state: CrystalState, setup):
    spectrum = williamson(build_hessian(state))
    return spectrum, classify_bands(spectrum, setup)


def _gate_stage(config: ExperimentConfig, setup, state, spectrum, bands):
    """The gate of ``config``: the driven pair, the rotation period tau_r in
    seconds, and the pulse of time ``tau_ratio * tau_r`` with its amplitude
    calibrated to |theta| = pi, evaluated at the configured temperatures.

    The carrier is the configured ``nu_hz``; otherwise the middle of the
    widest band gap or, with ``tune_carrier``, the one of 13 carriers across
    the inner 60 % of that gap whose gate has the lowest infidelity at the
    lowest configured temperature.  Each candidate is calibrated once.
    """
    pair = select_pair(state, config.pair_rule)
    omega_c = setup.cyclotron_frequency
    tau_r = 2.0 * math.pi / (state.rotation_frequency * omega_c)
    tau_g = config.tau_ratio * tau_r
    width = None if config.sigma_fraction is None else config.sigma_fraction * tau_g

    def gate(nu):
        spec = GateSpec(target_pair=pair, carrier_frequency=nu, gate_time=tau_g,
                        envelope_width=width)
        amplitude, phase = calibrated_phase(spec, spectrum, state, setup)
        if abs(abs(phase.theta) - math.pi) > 1e-6:
            raise RuntimeError(f"calibration failed: |theta| = {abs(phase.theta)}")
        spec = replace(spec, amplitude=amplitude)
        return GateResult(spec, phase.theta, phase.by_state,
                          fidelity_curve(spec, spectrum, state, setup, config.temperatures_k))

    if config.nu_hz != "auto-gap":
        candidates = [2.0 * math.pi * float(config.nu_hz)]
    elif not config.tune_carrier:
        candidates = [resolve_carrier(bands) * omega_c]
    else:
        lo, hi = _widest_gap(bands)
        span = hi - lo
        candidates = np.linspace(lo + 0.2 * span, hi - 0.2 * span, 13) * omega_c
    gates = {nu: gate(nu) for nu in candidates}
    return pair, tau_r, gates[tune_carrier(gates, lambda nu: 1.0 - gates[nu].fidelity_curve[0][1])]


def _run_stages(config: ExperimentConfig, last):
    """Run the stages up to ``last`` ("equilibrium", "modes" or "gate"),
    writing each artifact into ``config.out_dir`` as its stage completes and
    then the manifest.

    Only a run that goes past the modes requires a planar crystal.  A failing
    stage writes a FAILED marker and the manifest, then raises StageError.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    setup = config.setup()
    run = SimpleNamespace(out=out, state=None, spectrum=None, bands=None, gate=None)
    try:
        with _stage("equilibrium"):
            run.state = _equilibrium(config, setup)
            save_state(run.state, out / "equilibrium.txt")
            if last == "gate":
                _require_planar(run.state)
        if last != "equilibrium":
            with _stage("modes"):
                run.spectrum, run.bands = _modes(run.state, setup)
                _write_spectrum(out / "spectrum.csv", run.spectrum, run.bands, setup)
        if last == "gate":
            with _stage("gate"):
                pair, tau_r, run.gate = _gate_stage(config, setup, run.state, run.spectrum,
                                                    run.bands)
                (out / "fidelity.csv").write_text(
                    _csv(_FIDELITY_COLUMNS, _fidelity_rows(run.gate.fidelity_curve)))
                report = {
                    "theta": run.gate.theta,
                    "theta_by_state": run.gate.theta_by_state,
                    "amplitude": run.gate.spec.amplitude,
                    "nu_hz": run.gate.spec.carrier_frequency / (2.0 * math.pi),
                    "tau_g_s": run.gate.spec.gate_time,
                    "tau_g_over_tau_r": run.gate.spec.gate_time / tau_r,
                    "pair": list(pair),
                }
                (out / "phase.json").write_text(
                    json.dumps(report, indent=2, sort_keys=True) + "\n")
                zero = next((t for t, fid, _ in run.gate.fidelity_curve if fid == 0.0), None)
                if zero is not None:
                    raise RuntimeError(f"fidelity underflowed to 0 at T = {zero:g} K")
    except StageError as exc:
        (out / "FAILED").write_text(f"{exc.stage}: {exc.__cause__}\n")
        _write_manifest(out / "manifest.txt", config, started, run.state, failed=exc.stage)
        raise
    _write_manifest(out / "manifest.txt", config, started, run.state)
    return run


def run_experiment(config: ExperimentConfig) -> RunArtifacts:
    """Execute the full pipeline and write all artifacts into ``config.out_dir``.

    Stage failures are raised as StageError after flushing the artifacts
    produced so far together with a FAILED marker.
    """
    run = _run_stages(config, "gate")
    return RunArtifacts(
        out_dir=run.out,
        equilibrium_file=run.out / "equilibrium.txt",
        spectrum_file=run.out / "spectrum.csv",
        fidelity_file=run.out / "fidelity.csv",
        phase_file=run.out / "phase.json",
        manifest_file=run.out / "manifest.txt",
        state=run.state,
        gate=run.gate,
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


_SWEEP_COLUMNS = {
    "p_theta": ("p_theta", "omega_r_over_omega_c", "beta", "energy"),
    "T": _FIDELITY_COLUMNS,
    "nu": ("nu_hz", "amplitude", "T_K", "infidelity"),
    "tau_g": ("tau_ratio", "nu_hz", "T_K", "F", "infidelity", "branch"),
}


def _status(fid):
    """Sweep-row status of a calibrated gate's fidelity: ``underflow`` where F
    is exactly 0, since such a row no longer says how far off the gate is."""
    return "underflow" if fid == 0.0 else "ok"


def sweep(config: ExperimentConfig, parameter, grid, out_path=None, threads=1):
    """Consolidated sweep over one parameter: one CSV row per grid point, and
    one per grid point and temperature for ``tau_g``.

    Grid points are computed independently in a pool of ``threads`` worker
    threads, collected in grid order, and per-point failures become rows
    with an error code instead of aborting the sweep.  A ``T``, ``nu`` or
    ``tau_g`` row whose F underflowed to 0 keeps its numbers with status
    ``underflow``.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if parameter not in _SWEEP_COLUMNS:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    if len(grid) == 0:
        raise ValueError("empty sweep grid")
    setup = config.setup()

    if parameter == "p_theta":
        # equilibrium quantities only: 3D points are valid rows here
        with _stage("equilibrium"):
            base = find_equilibrium(setup, float(grid[0]), config.schedule())

        def point(value):
            state = find_equilibrium(setup, float(value), initial_positions=base.positions)
            return [(value, state.rotation_frequency, state.anisotropy, state.energy, "ok")]
    else:
        with _stage("equilibrium"):
            state = _require_planar(_equilibrium(config, setup))
        with _stage("modes"):
            spectrum, bands = _modes(state, setup)

        def gate(**change):
            return _gate_stage(replace(config, **change), setup, state, spectrum, bands)

        if parameter == "T":  # the gate run's own pulse, evaluated at the grid temperatures
            with _stage("gate"):
                pulse = gate()[2].spec
                curve = fidelity_curve(pulse, spectrum, state, setup, grid)
            by_temp = {row[0]: (*row, _status(row[1])) for row in _fidelity_rows(curve)}

            def point(value):
                return [by_temp[float(value)]]
        elif parameter == "nu":

            def point(value):
                _, _, result = gate(nu_hz=float(value))
                temp, fid, _ = result.fidelity_curve[0]
                return [(value, result.spec.amplitude, temp, 1.0 - fid, _status(fid))]
        else:  # tau_g

            def point(value):
                _, _, result = gate(tau_ratio=float(value))
                nu_hz = result.spec.carrier_frequency / (2.0 * math.pi)
                return [(value, nu_hz, *row, _status(row[1]))
                        for row in _fidelity_rows(result.fidelity_curve)]

    columns = _SWEEP_COLUMNS[parameter]

    def safe_point(value):
        try:
            return point(value)
        except Exception as exc:  # per-point failure becomes a row
            return [(value, *[""] * (len(columns) - 1), f"error:{type(exc).__name__}")]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(safe_point, grid))

    text = _csv([*columns, "status"], [row for rows in results for row in rows])
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
