"""Orchestration, persistence, config handling, and determinism."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from penninggate import (
    ExperimentConfig,
    StageError,
    load_state,
    newton_refine,
    parse_config,
    run_experiment,
    save_state,
    select_pair,
    sweep,
)
from penninggate.bench import config_lines, resolve_carrier
from penninggate.scales import beta_critical


def small_config(tmp_path, **overrides):
    base = dict(
        species="Be+",
        nu_c_hz=7.608e6,
        alpha_z=0.02,
        n_ions=6,
        p_theta=5000.0,
        tau_ratio=0.006,
        temperatures_k=(1e-4, 1e-3, 1e-2),
        anneal_cycles=6,
        anneal_steps=600,
        seed=4,
        out_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# the README fig4 point
FIG4 = dict(species="Be+", nu_c_hz=7.608e6, alpha_z=0.02, n_ions=30, p_theta=1.3e5,
            tau_ratio=0.006, temperatures_k=(1e-4, 1e-3, 1e-2), seed=11)


def gate_run_rows(config, value):
    """The sweep rows, split into fields, that the gate run of ``config``
    gives a grid value ``value``: its crystal, pulse and fidelity.csv rows."""
    artifacts = run_experiment(config)
    state, pulse = artifacts.state, artifacts.gate.spec
    pair = "{}:{}".format(*json.loads(artifacts.phase_file.read_text())["pair"])
    point = [f"{v:.17g}" for v in (value, state.rotation_frequency, state.anisotropy,
                                   state.energy)]
    gate = [pair, f"{pulse.carrier_frequency / (2 * np.pi):.17g}", f"{pulse.amplitude:.17g}"]
    return [[*point, *gate, *row.split(","), "ok"]
            for row in artifacts.fidelity_file.read_text().splitlines()[1:]]


# the second config sets every field away from its default, so the round
# trip passes through every value parser
@pytest.mark.parametrize("overrides", [
    {},
    dict(pair_rule="indices:0,1", nu_hz=3.878e6, sigma_fraction=0.125, tune_carrier=True,
         temperatures_k=(2e-4, 5e-3), anneal_cycles=3, anneal_steps=50),
], ids=["small", "every-field"])
def test_config_round_trip(tmp_path, overrides):
    config = small_config(tmp_path, **overrides)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(config_lines(config)) + "\n")
    parsed = parse_config(path)
    assert parsed == config


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("species = Be+\nwibble = 3\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        parse_config(path)


def test_config_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("species = Be+\nnu_c_hz = 7.608e6\nalpha_z = 0.02\nn_ions = 8\n"
                    "n_ions = 9\ntau_ratio = 0.006\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:5: key 'n_ions' repeats line 4"):
        parse_config(path)


def test_config_rejects_unknown_species_when_built(tmp_path, capsys):
    from penninggate.cli import main

    with pytest.raises(ValueError, match=r"unknown species 'Xx\+'; table has: .*Be\+"):
        small_config(tmp_path, species="Xx+")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(config_lines(small_config(tmp_path))).replace("Be+", "Xx+") + "\n")
    with pytest.raises(ValueError, match=r"bad\.cfg: unknown species 'Xx\+'"):
        parse_config(cfg)
    assert main(["gate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: unknown species 'Xx+'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rule", ["outermost", "indices:0", "indices:1,1", "indices:0,6",
                                  "index:0,1", "indices:a,b"])
def test_config_rejects_a_pair_rule_it_cannot_drive(tmp_path, eq_high, rule):
    with pytest.raises(ValueError, match=f"pair rule '{rule}' invalid for 6 ions"):
        small_config(tmp_path, pair_rule=rule)
    if rule != "indices:0,6":
        with pytest.raises(ValueError, match=f"pair rule '{rule}' invalid for 30 ions"):
            select_pair(eq_high, rule)


@pytest.mark.parametrize("line, message", [
    ("n_ions = 3.5", r"bad\.cfg:3: key 'n_ions': invalid literal for int\(\)"),
    ("alpha_z = fast", r"bad\.cfg:3: key 'alpha_z': could not convert"),
    ("temperatures_k = 1e-3,warm", r"bad\.cfg:3: key 'temperatures_k': could not convert"),
    ("tune_carrier = ture", r"bad\.cfg:3: key 'tune_carrier': expected true/false, 1/0, yes/no "
                            r"or on/off, got 'ture'"),
], ids=["int", "float", "tuple", "bool"])
def test_config_value_errors_name_file_line_and_key(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"species = Be+\n# a comment\n{line}\n")
    with pytest.raises(ValueError, match=message):
        parse_config(path)


def test_config_bool_accepts_exactly_the_four_spellings_in_any_case(tmp_path):
    head = "species = Be+\nnu_c_hz = 7.608e6\nalpha_z = 0.02\nn_ions = 6\ntau_ratio = 0.006\n"
    path = tmp_path / "run.cfg"
    for value, expected in [("true", True), ("TRUE", True), ("1", True), ("Yes", True),
                            ("on", True), ("false", False), ("False", False), ("0", False),
                            ("NO", False), ("Off", False)]:
        path.write_text(head + f"tune_carrier = {value}\n")
        assert parse_config(path).tune_carrier is expected
    for value in ("ture", "2", "", "y", "enabled"):
        path.write_text(head + f"tune_carrier = {value}\n")
        with pytest.raises(ValueError, match=r"run\.cfg:6: key 'tune_carrier'"):
            parse_config(path)


def test_config_temperature_grid_validation(tmp_path):
    with pytest.raises(ValueError, match="temperature grid"):
        small_config(tmp_path, temperatures_k=(1e-3, 1e-4))


@pytest.mark.parametrize("line, message", [
    ("tau_ratio = 0", r"tau_ratio must be set and positive, got 0\.0"),
    ("sigma_fraction = 0", "sigma_fraction must be positive, got 0"),
    ("nu_hz = -2", "nu_hz must be positive, got -2"),
    ("anneal_cycles = 0", "cycle count must be at least 1"),
    ("anneal_steps = -1", "steps per cycle must be nonnegative"),
], ids=["tau_ratio", "sigma_fraction", "nu_hz", "anneal_cycles", "anneal_steps"])
def test_config_out_of_range_values_fail_when_built(tmp_path, monkeypatch, line, message):
    # such a value fails when the config is built, not after a search; a
    # sweep point with it is a config row made without a search
    from penninggate import bench

    key, _, val = line.partition(" = ")
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join([entry for entry in config_lines(small_config(tmp_path))
                               if not entry.startswith(f"{key} ")] + [line]) + "\n")
    with pytest.raises(ValueError, match=rf"^{tmp_path / 'bad.cfg'}: {message}$"):
        parse_config(path)
    searches = []
    monkeypatch.setattr(bench, "find_equilibrium", lambda *args, **kwargs: searches.append(1))
    text = sweep(small_config(tmp_path), key, [bench._CONFIG_PARSERS[key](val)])
    assert text.splitlines()[1:] == [f"{val}{',' * 10},error:config:ValueError"]
    assert searches == []


def test_state_round_trip_bit_exact(eq_low_p4000, tmp_path):
    path = tmp_path / "eq.txt"
    save_state(eq_low_p4000, path)
    loaded = load_state(path)
    np.testing.assert_array_equal(loaded.positions, eq_low_p4000.positions)
    assert loaded.rotation_frequency == eq_low_p4000.rotation_frequency
    assert loaded.angular_momentum == eq_low_p4000.angular_momentum
    assert loaded.energy == eq_low_p4000.energy
    assert loaded.converged
    # second round trip is byte-identical
    path2 = tmp_path / "eq2.txt"
    save_state(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_truncated_file_reports_line(eq_low_p4000, tmp_path):
    path = tmp_path / "eq.txt"
    save_state(eq_low_p4000, path)
    lines = path.read_text().splitlines()
    (tmp_path / "cut.txt").write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="position rows"):
        load_state(tmp_path / "cut.txt")
    garbled = lines[:]
    garbled[7] = "0.1 0.2"
    (tmp_path / "bad.txt").write_text("\n".join(garbled) + "\n")
    with pytest.raises(ValueError, match="bad.txt:8"):
        load_state(tmp_path / "bad.txt")


@pytest.mark.parametrize("key, value, message", [
    ("N", "2.5", r"invalid literal for int\(\)"),
    ("energy", "low", "could not convert"),
])
def test_load_names_the_line_and_key_of_an_unreadable_header(eq_low_p4000, tmp_path, key,
                                                             value, message):
    path = tmp_path / "eq.txt"
    save_state(eq_low_p4000, path)
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    lines[index] = f"{key} = {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"eq\.txt:{index + 1}: header '{key}': {message}"):
        load_state(path)


def test_load_rejects_inconsistent_ptheta_header(eq_low_p4000, tmp_path):
    path = tmp_path / "eq.txt"
    save_state(eq_low_p4000, path)
    lines = [
        f"P_theta = {1.01 * eq_low_p4000.angular_momentum!r}" if line.startswith("P_theta") else line
        for line in path.read_text().splitlines()
    ]
    edited = tmp_path / "edited.txt"
    edited.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"edited\.txt: angular momentum inconsistent"):
        load_state(edited)


def test_load_then_refine_takes_no_steps(eq_low_p4000, tmp_path):
    path = tmp_path / "eq.txt"
    save_state(eq_low_p4000, path)
    loaded = load_state(path)
    again = newton_refine(loaded)
    assert again.refine_iterations == 0
    np.testing.assert_array_equal(again.positions, loaded.positions)


def test_select_pair_rules(eq_high):
    pair = select_pair(eq_high)
    radii = np.hypot(eq_high.positions[:, 0], eq_high.positions[:, 1])
    assert pair[0] == int(np.argmin(radii))
    assert select_pair(eq_high, "indices:3,5") == (3, 5)


def test_run_experiment_single_ion_fails_cleanly(tmp_path):
    config = small_config(tmp_path, n_ions=1, p_theta=0.0)
    with pytest.raises(StageError, match=r"\[gate\]"):
        run_experiment(config)
    out = Path(config.out_dir)
    assert (out / "equilibrium.txt").exists()
    assert (out / "spectrum.csv").exists()
    assert (out / "FAILED").read_text().startswith("gate:")


def test_run_experiment_deterministic(tmp_path):
    config_a = small_config(tmp_path, out_dir=str(tmp_path / "a"))
    config_b = small_config(tmp_path, out_dir=str(tmp_path / "b"))
    art_a = run_experiment(config_a)
    art_b = run_experiment(config_b)
    for name in ("equilibrium_file", "spectrum_file", "fidelity_file", "phase_file"):
        assert getattr(art_a, name).read_bytes() == getattr(art_b, name).read_bytes()


def test_run_experiment_builds_the_phase_kernel_once(tmp_path, monkeypatch):
    from penninggate import gate

    calls = []
    original = gate.phase_kernel

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gate, "phase_kernel", counted)
    artifacts = run_experiment(small_config(tmp_path))
    assert len(calls) == 1
    assert abs(abs(artifacts.gate.theta) - np.pi) < 1e-12
    manifest = artifacts.manifest_file.read_text().splitlines()
    assert any(line.startswith("# blas_threads OPENBLAS_NUM_THREADS=") for line in manifest)


@pytest.mark.parametrize("verb, tuned, expected", [
    ("gate", False, 1), ("gate", True, 13), ("sweep", False, 1), ("sweep", True, 13),
], ids=["gate", "gate-tuned", "sweep", "sweep-tuned"])
def test_each_candidate_gate_is_calibrated_once(tmp_path, monkeypatch, verb, tuned, expected):
    # a tuned run calibrates its 13 candidate carriers and keeps the winner's
    # pulse; a sweep point runs the same gate stage
    from penninggate import bench

    calls = []
    original = bench.calibrated_phase

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "calibrated_phase", counted)
    config = small_config(tmp_path, tune_carrier=tuned)
    if verb == "gate":
        run_experiment(config)
    else:
        sweep(config, "tau_ratio", [config.tau_ratio])
    assert len(calls) == expected


def test_gate_result_carries_the_calibrated_pulse(tmp_path):
    from penninggate import build_hessian, williamson
    from penninggate.gate import fidelity_curve, two_qubit_phase

    config = small_config(tmp_path)
    artifacts = run_experiment(config)
    state, setup = artifacts.state, config.setup()
    spectrum = williamson(build_hessian(state))
    pulse = artifacts.gate.spec
    assert abs(abs(two_qubit_phase(pulse, spectrum, state, setup).theta) - np.pi) < 1e-12
    assert fidelity_curve(pulse, spectrum, state, setup,
                          config.temperatures_k) == artifacts.gate.fidelity_curve


def test_run_experiment_refuses_a_three_dimensional_crystal(tmp_path):
    # N = 8 at P_theta = 2000 equilibrates at beta = 0.48 > beta_c(8) = 0.235
    config = small_config(tmp_path, n_ions=8, p_theta=2000.0, seed=3)
    with pytest.raises(StageError, match=r"\[equilibrium\] crystal is not planar: "
                                         r"beta = 0\.48\d* >= beta_c = 0\.235\d* at N = 8"):
        run_experiment(config)
    out = Path(config.out_dir)
    assert (out / "FAILED").read_text().startswith("equilibrium:")
    assert not (out / "spectrum.csv").exists()
    rows = [line.split(",") for line in sweep(config, "tau_ratio", [0.006]).splitlines()[1:]]
    assert len(rows) == 1 and rows[0][4:] == [""] * 7 + ["not-planar"]
    assert float(rows[0][2]) > beta_critical(8)


def test_p_theta_sweep_traces_beta_through_a_three_dimensional_point(tmp_path):
    # a p_theta point whose crystal is not planar keeps its crystal columns,
    # leaves the gate columns empty and is not ok
    config = small_config(tmp_path, n_ions=8, p_theta=2000.0, seed=3)
    rows = [line.split(",") for line in sweep(config, "p_theta", [2000.0, 2e4]).splitlines()[1:]]
    assert rows[0][4:] == [""] * 7 + ["not-planar"]
    assert float(rows[0][2]) > beta_critical(8) > float(rows[1][2])


def test_p_theta_sweep_from_a_three_dimensional_point_is_pinned(tmp_path):
    # every point is its own search: the 3D point is refined in 3N
    # coordinates and is not planar, the two planar points are searched in
    # the plane and their gates are ok; the crystal columns of each point's
    # first row are pinned
    config = small_config(tmp_path, n_ions=8, p_theta=2000.0, seed=3, anneal_cycles=None,
                          anneal_steps=None)
    rows, statuses = {}, []
    for line in sweep(config, "p_theta", [2000.0, 2e4, 6e4]).splitlines()[1:]:
        rows.setdefault(line.split(",")[0], [float(v) for v in line.split(",")[:4]])
        statuses.append(line.split(",")[-1])
    assert statuses == ["not-planar"] + ["ok"] * 6
    assert list(rows.values()) == [pytest.approx(row, rel=1e-13) for row in [
        [2000, 0.0003923977143999724, 0.48060934608426509, 1.3298500032630276],
        [20000, 0.00020768900609935415, 0.019114678440249055, 0.45894291737258175],
        [60000, 0.00020151208303054169, 0.0036786897773359861, 0.26497245427020721],
    ]]


@pytest.mark.parametrize("parameter, grid", [("seed", [1, 2, 3, 11]), ("n_ions", [30, 40])])
def test_every_sweep_row_is_the_gate_run_of_its_point(tmp_path, parameter, grid):
    # a point that moves the crystal runs its own search and modes, so its
    # rows are those of the gate run of its config byte for byte
    config = ExperimentConfig(**FIG4, out_dir=str(tmp_path))
    rows = [line.split(",") for line in sweep(config, parameter, grid).splitlines()[1:]]
    assert rows == [row for value in grid for row in gate_run_rows(
        replace(config, **{parameter: value}, out_dir=str(tmp_path / str(value))), value)]


def test_p_theta_sweep_from_an_on_axis_chain(tmp_path):
    # P_theta = 0 at the fig4 point is a chain along z; the planar points
    # after it are searched afresh and their gates are ok
    config = ExperimentConfig(**FIG4, out_dir=str(tmp_path))
    rows = [line.split(",") for line in
            sweep(config, "p_theta", [0.0, 1.3e5, 3e5]).splitlines()[1:]]
    assert [row[-1] for row in rows] == ["not-planar"] + ["ok"] * 6
    assert float(rows[0][2]) > beta_critical(30) > float(rows[1][2])


def test_a_fidelity_whose_infidelity_rounds_to_one_is_not_ok(tmp_path, capsys):
    from penninggate.cli import main

    # at N = 20 the fig4 gate gives F(1 mK) = 2e-26 and F(10 mK) = 8.5e-258:
    # above 0, but 1 - F reads exactly 1
    config = ExperimentConfig(**dict(FIG4, n_ions=20), out_dir=str(tmp_path / "gate"))
    cfg = tmp_path / "n20.cfg"
    cfg.write_text("\n".join(config_lines(config)) + "\n")
    assert main(["gate", "--config", str(cfg)]) == 1
    reason = "fidelity underflowed to 1.97e-26 at T = 0.001 K"
    assert capsys.readouterr().err == f"error: [gate] {reason}\n"
    assert (tmp_path / "gate" / "FAILED").read_text() == f"gate: {reason}\n"
    rows = [line.split(",") for line in sweep(config, "n_ions", [20]).splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok", "underflow", "underflow"]
    assert all(float(row[8]) > 0.0 and row[9] == "1" for row in rows[1:])


def test_a_gate_shorter_than_one_carrier_period_fails_its_stage(tmp_path):
    # the mirror branch of the fig4 point rotates near omega_c: its gate,
    # 0.006 tau_r, is shorter than one period of the mid-gap carrier
    config = ExperimentConfig(**dict(FIG4, p_theta=-1.3e5), out_dir=str(tmp_path))
    with pytest.raises(StageError, match=r"^\[gate\] gate time tau_g = 7\.888e-10 s is shorter "
                                         r"than one carrier period, 2\.578e-07 s$"):
        run_experiment(config)
    assert (tmp_path / "FAILED").read_text().startswith("gate: gate time tau_g")


def test_manifest_names_the_package_version(tmp_path):
    import penninggate
    from penninggate.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(config_lines(small_config(tmp_path))) + "\n")
    assert main(["equilibrium", "--config", str(cfg)]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert manifest[0] == f"# penninggate {penninggate.__version__}"


def test_manifest_records_the_equilibrium_trust_numbers(tmp_path):
    artifacts = run_experiment(small_config(tmp_path))
    lines = artifacts.manifest_file.read_text().splitlines()
    trust = [line for line in lines if line.startswith("# equilibrium ")]
    assert len(trust) == 1
    fields = dict(item.split("=") for item in trust[0].split()[2:])
    assert set(fields) == {"e_red", "gradient_norm", "refine_iterations", "ptheta_mismatch"}
    assert float(fields["gradient_norm"]) <= 1e-10
    assert int(fields["refine_iterations"]) >= 1
    assert abs(float(fields["ptheta_mismatch"])) <= 1e-10 * 5000.0
    assert parse_config(artifacts.manifest_file) == small_config(tmp_path)


@pytest.mark.parametrize("parameter, overrides", [
    ("nu_hz", dict(nu_hz=3.878e6)),
    ("tau_ratio", {}),
    ("tau_ratio", dict(tune_carrier=True)),
], ids=["nu", "tau_g", "tau_g-tuned"])
def test_sweep_single_point_matches_run(tmp_path, parameter, overrides):
    # a one-point sweep at the run's own value is the run's gate stage, so its
    # rows carry the run's crystal, pulse and fidelity.csv fields byte for byte
    config = small_config(tmp_path, **overrides)
    value = getattr(config, parameter)
    rows = [row.split(",") for row in sweep(config, parameter, [value]).splitlines()[1:]]
    assert rows == gate_run_rows(config, value)


def test_sweep_thread_invariance(tmp_path):
    # the same sweep with one and with two BLAS threads writes the same rows;
    # at the fig4 point every gate runs, so the rows carry the calibrated
    # amplitude and the drive transforms' fidelities at both ends of the
    # tau_ratio range
    config = ExperimentConfig(**FIG4, out_dir=str(tmp_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(config_lines(config)) + "\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    texts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "penninggate.cli", "sweep", "--config",
                               str(cfg), "--parameter", "tau_ratio", "--grid", "0.006,0.2",
                               "--out", str(tmp_path / threads)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        texts.append((tmp_path / threads / "sweep_tau_ratio.csv").read_text())
    assert texts[0] == texts[1]
    rows = [line.split(",") for line in texts[0].splitlines()[1:]]
    assert len(rows) == 6 and all(row[-1] == "ok" for row in rows)


def test_sweep_records_per_point_failure(tmp_path):
    config = small_config(tmp_path)
    # a negative carrier is refused with its config; a 1 kHz carrier is
    # slower than the gate; at 1 MHz F underflows to 0, at the mid-gap
    # 3.88 MHz it does not
    text = sweep(config, "nu_hz", [-1.0, 1e3, 1e6, 3.88e6])
    rows = [row.split(",") for row in text.splitlines()[1:]]
    assert [row[-1] for row in rows] == (["error:config:ValueError", "error:gate:ValueError"]
                                         + ["underflow"] * 3 + ["ok"] * 3)
    # a config error has no crystal; a gate error keeps the shared crystal's columns
    assert rows[0][1:-1] == [""] * 10
    assert rows[1][1:4] == rows[2][1:4] and rows[1][4:-1] == [""] * 7
    assert all(row[8] == "0" for row in rows[2:5])


def test_whole_sweep_failures_carry_their_stage(tmp_path, monkeypatch):
    # a failing search is an error row, labelled with its stage, of every
    # point that needs its crystal, whether the points share it or not
    from penninggate import bench

    def failing(*args, **kwargs):
        raise ValueError("no equilibrium")

    monkeypatch.setattr(bench, "find_equilibrium", failing)
    config = small_config(tmp_path)
    for parameter in ("p_theta", "nu_hz"):
        rows = sweep(config, parameter, [5000.0, 6000.0]).splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["error:equilibrium:ValueError"] * 2
        assert all(row.split(",")[1:-1] == [""] * 10 for row in rows)


def test_points_that_share_trap_p_theta_and_budget_share_one_crystal(tmp_path, monkeypatch):
    # the search and the modes run once per (trap, p_theta, search budget)
    from penninggate import bench

    calls = []

    def counted(name):
        original = getattr(bench, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("find_equilibrium", "williamson"):
        monkeypatch.setattr(bench, name, counted(name))
    config = small_config(tmp_path)
    for parameter, grid, searches in (("tau_ratio", [0.006, 0.02], 1), ("nu_hz", [3.8e6, 3.9e6], 1),
                                      ("sigma_fraction", [0.1, 0.125], 1), ("seed", [4, 5], 2),
                                      ("p_theta", [5000.0, 6000.0], 2)):
        calls.clear()
        sweep(config, parameter, grid)
        assert calls.count("find_equilibrium") == calls.count("williamson") == searches


def test_sweep_rejects_bad_input(tmp_path):
    config = small_config(tmp_path)
    for parameter in ("voltage", "T", "nu", "tau_g", "out_dir", "temperatures_k", "species"):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(config, parameter, [1.0])
    with pytest.raises(ValueError, match="empty sweep grid"):
        sweep(config, "tau_ratio", [])


def test_manifest_reproduces_run(tmp_path):
    config = small_config(tmp_path, out_dir=str(tmp_path / "first"))
    artifacts = run_experiment(config)
    replay = parse_config(artifacts.manifest_file)
    rerun = run_experiment(replace(replay, out_dir=str(tmp_path / "replay")))
    assert artifacts.fidelity_file.read_bytes() == rerun.fidelity_file.read_bytes()
    assert artifacts.equilibrium_file.read_bytes() == rerun.equilibrium_file.read_bytes()


def test_resolve_carrier_midgap(bands_high):
    nu = resolve_carrier(bands_high)
    lo, hi, *_ = max(bands_high.gaps, key=lambda g: g[1] - g[0])
    assert nu == pytest.approx(0.5 * (lo + hi), rel=1e-12)
    assert lo < nu < hi


def test_tau_ratio_sweep_monotone_curves_on_one_carrier(tmp_path):
    # gate-time ratios at the slow-rotation point: every row uses the gate's
    # carrier rule, and each infidelity curve is monotone in T
    config = ExperimentConfig(
        species="Be+", nu_c_hz=76.08e3, alpha_z=0.7, n_ions=30, p_theta=4000.0,
        tau_ratio=0.1, temperatures_k=(1e-4, 1e-3, 1e-2), seed=7,
        out_dir=str(tmp_path),
    )
    # the mid-gap carrier (32 kHz) makes fewer than one period in these
    # gates, so each point is a gate error
    text = sweep(config, "tau_ratio", [1e-1, 1e-2, 1e-3])
    assert [line.split(",")[-1] for line in text.splitlines()[1:]] == (
        ["error:gate:ValueError"] * 3)
    # a 5.9 MHz carrier keeps F > 0 on every row of the longer gates
    grid = [4e-1, 2e-1, 1e-1]
    text = sweep(replace(config, nu_hz=5.9e6), "tau_ratio", grid)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == 9 and all(row[-1] == "ok" and float(row[8]) > 0.0 for row in rows)
    assert {float(row[5]) for row in rows} == {5.9e6}
    by_ratio = {}
    for row in rows:
        by_ratio.setdefault(float(row[0]), []).append((float(row[7]), float(row[9])))
    assert list(by_ratio) == grid
    for ratio, curve in by_ratio.items():
        curve.sort()
        infidelities = [i for _, i in curve]
        assert all(b >= a - 1e-15 for a, b in zip(infidelities, infidelities[1:]))
    # shorter gates are worse at every temperature
    curves = [sorted(curve) for _, curve in sorted(by_ratio.items())]
    assert all(s[1] > g[1] for short, long in zip(curves, curves[1:])
               for s, g in zip(short, long))


def test_cli_verbs(tmp_path):
    from penninggate.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "species = Be+",
                "nu_c_hz = 7.608e6",
                "alpha_z = 0.02",
                "n_ions = 6",
                "p_theta = 5000",
                "tau_ratio = 0.006",
                "temperatures_k = 1e-4,1e-3",
                "anneal_cycles = 6",
                "anneal_steps = 600",
                "seed = 4",
                f"out_dir = {tmp_path / 'out'}",
            ]
        )
        + "\n"
    )
    assert main(["equilibrium", "--config", str(cfg)]) == 0
    assert main(["modes", "--config", str(cfg)]) == 0
    assert main(["gate", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), "--parameter", "tau_ratio",
                 "--grid", "0.006,0.02"]) == 0
    assert main([
        "pulse-design", "--scheme", "same-sigma+", "--nu-hz", "1e6",
        "--periods", "4", "--delta-d1-hz=-3e10", "--delta-d2-hz", "4.5e10",
        "--b-field", "0.5", "--out", str(tmp_path / "pulse"),
    ]) == 0
    assert (tmp_path / "pulse" / "pulse_sequence.csv").exists()
    # a broken config exits nonzero
    bad = tmp_path / "bad.cfg"
    bad.write_text("species = Be+\n")
    assert main(["gate", "--config", str(bad)]) == 1


def test_cli_grid_forms(tmp_path, capsys):
    from penninggate.cli import _parse_grid, main

    assert _parse_grid("1e-4,2e-3", float) == [1e-4, 2e-3]
    assert _parse_grid("0:10:3", float) == [0.0, 5.0, 10.0]
    assert _parse_grid("log:1e-4:1e-2:3", float) == pytest.approx([1e-4, 1e-3, 1e-2], rel=1e-15)
    # each value is read by the swept field's parser
    assert _parse_grid("20:40:3", int) == [20, 30, 40]
    assert _parse_grid("1,2,3,11", int) == [1, 2, 3, 11]
    # a malformed grid names the flag, the value and the three forms
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(config_lines(small_config(tmp_path))) + "\n")
    for parameter, spec in [("tau_ratio", spec) for spec in (
            "1:2", "1e5:2e5:x", "1:2:3:4", "log:1:2", "log:0:1:3", "1,,2", "a,b", "1:2:0", "")
    ] + [("n_ions", "25.5"), ("n_ions", "20:40:4"), ("seed", "log:1:10:3")]:
        assert main(["sweep", "--config", str(cfg), "--parameter", parameter,
                     "--grid", spec]) == 1
        assert capsys.readouterr().err == (
            f"error: --grid {spec!r}: expected v1,v2,... (a list), lo:hi:n (n linear steps) "
            f"or log:lo:hi:n (n geometric steps)\n")


def test_numeric_carrier_reproduces_the_auto_gap_gate(tmp_path):
    auto = run_experiment(small_config(tmp_path, out_dir=str(tmp_path / "auto")))
    nu_hz = auto.gate.spec.carrier_frequency / (2 * np.pi)
    fixed = run_experiment(small_config(tmp_path, nu_hz=nu_hz, out_dir=str(tmp_path / "hz")))
    assert fixed.gate.spec.carrier_frequency == pytest.approx(auto.gate.spec.carrier_frequency,
                                                              rel=1e-15)
    assert fixed.gate.spec.amplitude == pytest.approx(auto.gate.spec.amplitude, rel=1e-12)


def test_gate_run_whose_fidelity_underflows_fails_its_stage(tmp_path, capsys):
    from penninggate.cli import main

    # the README fig4 point with a 1 MHz carrier: F underflows to 0 at every T
    cfg = tmp_path / "fig4.cfg"
    cfg.write_text("species = Be+\nnu_c_hz = 7.608e6\nalpha_z = 0.02\nn_ions = 30\n"
                   "p_theta = 1.3e5\ntau_ratio = 0.006\nnu_hz = 1e6\n"
                   "temperatures_k = 1e-4,1e-3,1e-2\nseed = 11\n"
                   f"out_dir = {tmp_path / 'out'}\n")
    assert main(["gate", "--config", str(cfg)]) == 1
    reason = "fidelity underflowed to 0 at T = 0.0001 K"
    assert capsys.readouterr().err == f"error: [gate] {reason}\n"
    out = tmp_path / "out"
    assert (out / "FAILED").read_text() == f"gate: {reason}\n"
    rows = (out / "fidelity.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["0", "0", "0"]
    assert (out / "phase.json").is_file()
    assert "# failed_stage gate" in (out / "manifest.txt").read_text().splitlines()


def test_cli_planarity_guard_applies_past_the_modes(tmp_path, capsys):
    from penninggate.cli import main

    # N = 8 at P_theta = 2000 equilibrates at beta = 0.48 > beta_c(8) = 0.235
    config = small_config(tmp_path, n_ions=8, p_theta=2000.0, seed=3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(config_lines(config)) + "\n")
    for verb in ("equilibrium", "modes"):
        out = tmp_path / verb
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0
        assert parse_config(out / "manifest.txt") == replace(config, out_dir=str(out))
        assert not (out / "FAILED").exists()
    assert (tmp_path / "modes" / "spectrum.csv").is_file()
    capsys.readouterr()
    assert main(["gate", "--config", str(cfg), "--out", str(tmp_path / "gate")]) == 1
    assert "[equilibrium] crystal is not planar" in capsys.readouterr().err
