"""Experiment orchestration and persistence.

One set of stage functions -- equilibrium, modes (Hessian, symplectic modes,
band gaps) and gate (pair, gate time, carrier, amplitude calibration, thermal
fidelity) -- serves the CLI verbs, ``run_experiment`` and ``sweep``.  A run
writes the artifacts of the stages it reaches (equilibrium file, spectrum CSV,
fidelity CSV, phase report) and a manifest.  Runs are deterministic for a seed.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .crystal import _GRAD_TOL, AnnealSchedule, CrystalState, find_equilibrium, reduced_energy
from .gate import GateResult, GateSpec, calibrated_phase, fidelity_curve
from .modes import BandClassification, ModeSpectrum, build_hessian, classify_bands, williamson
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
        for field in fields(self):
            val = getattr(self, field.name)
            if isinstance(val, (float, tuple)) and not np.isfinite(val).all():
                raise ValueError(f"{field.name} must be finite, got {val}")
        temps = list(self.temperatures_k)
        if not temps or any(t <= 0 for t in temps) or any(
            b <= a for a, b in zip(temps, temps[1:])
        ):
            raise ValueError("temperature grid must be strictly increasing and positive")
        if not (self.tau_ratio or 0) > 0:
            raise ValueError(f"tau_ratio must be set and positive, got {self.tau_ratio}")
        for key in ("sigma_fraction", "nu_hz"):
            if getattr(self, key) not in (None, "auto-gap") and not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key):g}")
        _pair_indices(self.pair_rule, self.n_ions)
        self.setup()
        self.schedule()

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


@contextmanager
def _prefixed(prefix):
    """Re-raise a ValueError inside the block with ``prefix`` before its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _read_key_values(path, parsers):
    """The ``key = value`` lines of ``path`` (# starts a comment), each value
    read by its key's parser in ``parsers``, and the other non-blank lines
    as (line number, text) pairs.  An unknown key, a repeated key or a value
    that its parser refuses is a ValueError naming ``path:line``."""
    values, seen, other = {}, {}, []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if "#" in line:
            line = line.partition("#")[0].rstrip()
        if "=" not in line:
            if line:
                other.append((lineno, line))
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in parsers:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        with _prefixed(f"{path}:{lineno}: key {key!r}"):
            values[key] = parsers[key](val.strip())
    return values, other


def parse_config(path) -> ExperimentConfig:
    """Read the simple ``key = value`` config format (# starts a comment);
    a key may appear once."""
    values, other = _read_key_values(path, _CONFIG_PARSERS)
    if other:
        raise ValueError(f"{path}:{other[0][0]}: expected 'key = value'")
    missing = [f.name for f in fields(ExperimentConfig)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ValueError(f"{path}: missing required key(s): {', '.join(missing)}")
    with _prefixed(path):
        return ExperimentConfig(**values)


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


# the equilibrium file's header: each key and the CrystalState field it records
_HEADER_FIELDS = {"N": "n_ions", "alpha_z": "axial_ratio", "P_theta": "angular_momentum",
                  "omega_r_over_omega_c": "rotation_frequency", "energy": "energy"}
_HEADER_PARSERS = {key: int if key == "N" else float for key in _HEADER_FIELDS}


def save_state(state: CrystalState, path):
    """Write an equilibrium file; 17 significant digits round-trip exactly."""
    lines = [f"{key} = {_FMT.format(getattr(state, name))}" for key, name in _HEADER_FIELDS.items()]
    lines += [" ".join(_FMT.format(v) for v in row) for row in state.positions]
    Path(path).write_text("\n".join(lines) + "\n")


def load_state(path) -> CrystalState:
    """Read an equilibrium file back: its header keys as in a config, then
    one ``x y z`` row per ion.  The recorded energy and P_theta must be those
    of the positions; converged means a gradient norm below 1e-10."""
    header, lines = _read_key_values(path, _HEADER_PARSERS)
    rows = [line.split() for _, line in lines]
    for (lineno, _), row in zip(lines, rows):
        if len(row) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'x y z'")
    missing = [k for k in _HEADER_PARSERS if k not in header]
    if missing:
        raise ValueError(f"{path}: missing header line(s): {', '.join(missing)}")
    if len(rows) != header["N"]:
        raise ValueError(f"{path}: expected {header['N']} position rows, found {len(rows)}")
    try:  # numpy reads each value as float() does, all rows in one call
        positions = np.array(rows, dtype=float)
    except ValueError:  # then find the row that does not read
        for (lineno, _), row in zip(lines, rows):
            with _prefixed(f"{path}:{lineno}: malformed coordinate"):
                np.array(row, dtype=float)
    state = CrystalState.at(positions, header["omega_r_over_omega_c"], header["alpha_z"])
    energy = header["energy"]
    if not abs(state.energy - energy) <= 1e-12 * max(abs(energy), 1.0):  # NaN fails too
        raise ValueError(f"{path}: recorded energy inconsistent with positions")
    # the header's P_theta is kept, so validate() checks it against the positions
    state = replace(state, angular_momentum=header["P_theta"], energy=energy,
                    converged=state.gradient_norm < _GRAD_TOL)
    with _prefixed(path):
        state.validate()
    return state


def _not_planar(state: CrystalState):
    """Why ``state`` is not the single-plane crystal that the gate needs, else None."""
    n, beta, beta_c = state.n_ions, state.anisotropy, beta_critical(state.n_ions)
    if n > 1 and beta >= beta_c:
        return f"crystal is not planar: beta = {beta:.6g} >= beta_c = {beta_c:.6g} at N = {n}"


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
    """What a run computed, None past its last stage; its files sit in
    ``out_dir`` under fixed names (``equilibrium.txt``, ``spectrum.csv``,
    ``fidelity.csv``, ``phase.json``, ``manifest.txt``)."""

    out_dir: Path
    state: CrystalState
    spectrum: ModeSpectrum | None
    bands: BandClassification | None
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


def _underflowed(row):  # infidelity reads 1 (F = 0, or 1 - F rounds to 1): no measure left
    return row[2] == 1.0


# Pipeline stages.  The CLI verbs, run_experiment and sweep all compute through
# these functions; run_experiment chains them and writes the artifacts.

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
    lowest configured temperature.  Each candidate is calibrated once, and a
    gate shorter than one period of its carrier is a ValueError.
    """
    pair = select_pair(state, config.pair_rule)
    omega_c = setup.cyclotron_frequency
    tau_r = 2.0 * math.pi / (state.rotation_frequency * omega_c)
    tau_g = config.tau_ratio * tau_r
    width = None if config.sigma_fraction is None else config.sigma_fraction * tau_g

    def gate(nu):
        if tau_g < 2.0 * math.pi / nu:
            raise ValueError(f"gate time tau_g = {tau_g:.4g} s is shorter than one carrier "
                             f"period, {2.0 * math.pi / nu:.4g} s")
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


def run_experiment(config: ExperimentConfig, last="gate") -> RunArtifacts:
    """Run the stages up to ``last`` ("equilibrium", "modes" or "gate"),
    writing each artifact into ``config.out_dir`` as its stage completes and
    then the manifest.

    Only a run that goes past the modes requires a planar crystal.  A failing
    stage writes a FAILED marker and the manifest, then raises StageError.
    """
    if last not in ("equilibrium", "modes", "gate"):
        raise ValueError(f"unknown last stage {last!r}: expected equilibrium, modes or gate")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    setup = config.setup()
    state = spectrum = bands = gate = None
    try:
        with _stage("equilibrium"):
            state = _equilibrium(config, setup)
            save_state(state, out / "equilibrium.txt")
            if last == "gate" and _not_planar(state):
                raise ValueError(_not_planar(state))
        if last != "equilibrium":
            with _stage("modes"):
                spectrum, bands = _modes(state, setup)
                _write_spectrum(out / "spectrum.csv", spectrum, bands, setup)
        if last == "gate":
            with _stage("gate"):
                pair, tau_r, gate = _gate_stage(config, setup, state, spectrum, bands)
                (out / "fidelity.csv").write_text(
                    _csv(_FIDELITY_COLUMNS, _fidelity_rows(gate.fidelity_curve)))
                report = {
                    "theta": gate.theta,
                    "theta_by_state": gate.theta_by_state,
                    "amplitude": gate.spec.amplitude,
                    "nu_hz": gate.spec.carrier_frequency / (2.0 * math.pi),
                    "tau_g_s": gate.spec.gate_time,
                    "tau_g_over_tau_r": gate.spec.gate_time / tau_r,
                    "pair": list(pair),
                }
                (out / "phase.json").write_text(
                    json.dumps(report, indent=2, sort_keys=True) + "\n")
                bad = next(filter(_underflowed, _fidelity_rows(gate.fidelity_curve)), None)
                if bad is not None:
                    raise RuntimeError(f"fidelity underflowed to {bad[1]:.3g} at T = {bad[0]:g} K")
    except StageError as exc:
        (out / "FAILED").write_text(f"{exc.stage}: {exc.__cause__}\n")
        _write_manifest(out / "manifest.txt", config, started, state, failed=exc.stage)
        raise
    _write_manifest(out / "manifest.txt", config, started, state)
    return RunArtifacts(out, state, spectrum, bands, gate)


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


_SWEEP_PARAMETERS = tuple(f.name for f in fields(ExperimentConfig)
                          if f.type.split(" | ")[0] in ("int", "float"))
_SWEEP_COLUMNS = ("omega_r_over_omega_c", "beta", "energy", "pair", "nu_hz", "amplitude",
                  *_FIDELITY_COLUMNS)


def sweep(config: ExperimentConfig, parameter, grid, out_path=None):
    """Sweep one numeric config field: each grid value v is the pipeline of
    its own config ``replace(config, <field>=v)``, whose rows (one per
    configured temperature) are that config's ``gate`` run; points whose
    trap, ``p_theta`` and search budget agree share one crystal and its modes.
    Statuses: ``ok``, ``underflow`` (infidelity reads 1), ``not-planar`` and
    ``error:<stage>:<exception type>``, the last two with only the crystal
    columns."""
    if parameter not in _SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}: expected one of "
                         f"{', '.join(_SWEEP_PARAMETERS)}")
    if len(grid) == 0:
        raise ValueError("empty sweep grid")
    crystals, rows = {}, []  # [state, modes] per (trap, p_theta, search budget)
    for value in grid:
        crystal = ()
        try:
            with _stage("config"):
                point = replace(config, **{parameter: value})
                setup = point.setup()
            key = (setup, point.p_theta, point.schedule())
            if key not in crystals:
                with _stage("equilibrium"):
                    crystals[key] = [_equilibrium(point, setup), None]
            state, modes = crystals[key]
            crystal = (state.rotation_frequency, state.anisotropy, state.energy)
            status = "not-planar"
            if not _not_planar(state):
                with _stage("modes"):
                    modes = crystals[key][1] = modes or _modes(state, setup)
                with _stage("gate"):
                    pair, _, result = _gate_stage(point, setup, state, *modes)
                gate = (f"{pair[0]}:{pair[1]}", result.spec.carrier_frequency / (2.0 * math.pi),
                        result.spec.amplitude)
                rows += [(value, *crystal, *gate, *row, "underflow" if _underflowed(row) else "ok")
                         for row in _fidelity_rows(result.fidelity_curve)]
                continue
        except StageError as exc:  # a failing point becomes a row
            status = f"error:{exc.stage}:{type(exc.__cause__).__name__}"
        rows.append((value, *crystal, *[""] * (len(_SWEEP_COLUMNS) - len(crystal)), status))

    text = _csv([parameter, *_SWEEP_COLUMNS, "status"], rows)
    if out_path is not None:
        # data only, with a gnuplot script of the infidelity (column 10) against the value
        out_path = Path(out_path)
        out_path.write_text(text)
        out_path.with_suffix(".gp").write_text(
            "set datafile separator ','\nset key autotitle columnhead\n"
            f"plot '{out_path.name}' using 1:10 with points\n")
    return text
