"""Orchestration, persistence, config handling, and determinism."""

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
    ("gate", False, 1), ("gate", True, 13), ("T", False, 1), ("T", True, 13),
], ids=["gate", "gate-tuned", "T", "T-tuned"])
def test_each_candidate_gate_is_calibrated_once(tmp_path, monkeypatch, verb, tuned, expected):
    # a tuned run calibrates its 13 candidate carriers and keeps the winner's
    # pulse; a T sweep evaluates that pulse instead of calibrating it again
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
        sweep(config, "T", [config.temperatures_k[0]])
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
    with pytest.raises(StageError, match="not planar"):
        sweep(config, "T", [1e-3])


def test_p_theta_sweep_traces_beta_through_a_three_dimensional_point(tmp_path):
    # the p_theta sweep reports equilibrium quantities only, so the planarity
    # guard of the mode and gate stages does not apply to it
    config = small_config(tmp_path, n_ions=8, p_theta=2000.0, seed=3)
    rows = [line.split(",") for line in sweep(config, "p_theta", [2000.0, 2e4]).splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok", "ok"]
    assert float(rows[0][2]) > beta_critical(8) > float(rows[1][2])


def test_p_theta_sweep_from_a_three_dimensional_point_is_pinned(tmp_path):
    # the 3D point is refined in 3N coordinates; the two planar points start
    # from its crystal off the plane, whose axial ions overlap in projection
    config = small_config(tmp_path, n_ions=8, p_theta=2000.0, seed=3, anneal_cycles=None,
                          anneal_steps=None)
    rows = [[float(v) for v in line.split(",")[:4]]
            for line in sweep(config, "p_theta", [2000.0, 2e4, 6e4]).splitlines()[1:]]
    assert rows == [pytest.approx(row, rel=1e-13) for row in [
        [2000, 0.00039239771439980586, 0.48060934608384909, 1.3298500032626943],
        [20000, 0.00020774684301161361, 0.019259210652080805, 0.46241318540498411],
        [60000, 0.0002015232140256118, 0.0037065060495514723, 0.26697603930507025],
    ]]


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
    ("T", {}),
    ("nu", dict(nu_hz=3.878e6)),
    ("tau_g", {}),
    ("tau_g", dict(tune_carrier=True)),
], ids=["T", "nu", "tau_g", "tau_g-tuned"])
def test_sweep_single_point_matches_run(tmp_path, parameter, overrides):
    # a one-point sweep at the run's own value is the run's gate stage, so its
    # rows carry the run's fidelity.csv fields byte for byte
    config = small_config(tmp_path, **overrides)
    artifacts = run_experiment(config)
    expected = [row.split(",") for row in artifacts.fidelity_file.read_text().splitlines()[1:]]
    value = {"T": config.temperatures_k[0], "nu": config.nu_hz, "tau_g": config.tau_ratio}
    text = sweep(config, parameter, [value[parameter]])
    rows = [row.split(",") for row in text.splitlines()[1:]]
    if parameter == "T":
        assert rows == [expected[0] + ["ok"]]
    elif parameter == "nu":
        temp, _, infidelity, _ = expected[0]
        amplitude = f"{artifacts.gate.spec.amplitude:.17g}"
        assert rows == [["3878000", amplitude, temp, infidelity, "ok"]]
    else:
        nu_hz = f"{artifacts.gate.spec.carrier_frequency / (2 * np.pi):.17g}"
        assert rows == [[f"{config.tau_ratio:.17g}", nu_hz, *row, "ok"] for row in expected]


def test_temperature_sweep_uses_the_tuned_carrier_of_the_gate_run(tmp_path):
    config = small_config(tmp_path, tune_carrier=True)
    artifacts = run_experiment(config)
    first = artifacts.fidelity_file.read_text().splitlines()[1]
    text = sweep(config, "T", [config.temperatures_k[0]])
    assert text.splitlines()[1] == first + ",ok"


def test_sweep_thread_invariance(tmp_path, setup_low, eq_low_p0):
    config = small_config(
        tmp_path,
        nu_c_hz=76.08e3,
        alpha_z=0.7,
        n_ions=30,
        p_theta=0.0,
        anneal_cycles=None,
        anneal_steps=None,
        seed=7,
    )
    grid = [0.0, 1000.0, 4000.0]
    serial = sweep(config, "p_theta", grid, threads=1)
    parallel = sweep(config, "p_theta", grid, threads=4)
    assert serial == parallel
    rows = [line.split(",") for line in serial.splitlines()[1:]]
    assert all(row[-1] == "ok" for row in rows)
    values = [float(row[1]) for row in rows]
    assert values[0] == 0.5
    assert values[1] > values[2]


def test_sweep_records_per_point_failure(tmp_path):
    config = small_config(tmp_path)
    # a carrier resonant with a mode makes calibration blow up per point; at
    # 1 MHz F underflows to 0, at the mid-gap 3.88 MHz it does not
    text = sweep(config, "nu", [-1.0, 1e6, 3.88e6], threads=1)
    rows = text.splitlines()[1:]
    assert rows[0].endswith("error:ValueError")
    assert rows[1].endswith(",1,underflow")
    assert rows[2].endswith(",ok")


def test_whole_sweep_failures_carry_their_stage(tmp_path, monkeypatch):
    # the T branch's gate and the p_theta base crystal serve every grid point,
    # so their failures abort the sweep under their stage label
    from penninggate import bench

    config = small_config(tmp_path)
    with pytest.raises(StageError, match=r"^\[gate\] temperature must be positive"):
        sweep(config, "T", [-1.0])

    def failing(*args, **kwargs):
        raise ValueError("no equilibrium")

    monkeypatch.setattr(bench, "find_equilibrium", failing)
    with pytest.raises(StageError, match=r"^\[equilibrium\] no equilibrium"):
        sweep(config, "p_theta", [5000.0])


def test_sweep_rejects_bad_input(tmp_path):
    config = small_config(tmp_path)
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        sweep(config, "voltage", [1.0])
    with pytest.raises(ValueError, match="empty sweep grid"):
        sweep(config, "T", [])


def test_sweep_needs_at_least_one_thread(tmp_path, capsys):
    from penninggate.cli import main

    config = small_config(tmp_path)
    with pytest.raises(ValueError, match="threads must be at least 1, got 0"):
        sweep(config, "T", [1e-3], threads=0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(config_lines(config)) + "\n")
    assert main(["sweep", "--config", str(cfg), "--parameter", "T", "--grid", "1e-3",
                 "--threads", "0"]) == 1
    assert capsys.readouterr().err == "error: threads must be at least 1, got 0\n"


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
    # the mid-gap carrier (32 kHz) makes fewer than one period in these gates,
    # so F underflows on every row; a 5.9 MHz carrier keeps F > 0 on every row
    # of the longer gates
    for nu_hz, grid, status in (("auto-gap", [1e-1, 1e-2, 1e-3], "underflow"),
                                (5.9e6, [4e-1, 2e-1, 1e-1], "ok")):
        text = sweep(replace(config, nu_hz=nu_hz), "tau_g", grid)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 9 and all(row[-1] == status for row in rows)
        assert all((float(row[3]) == 0.0) == (status == "underflow") for row in rows)
        assert len({row[1] for row in rows}) == 1
        if nu_hz != "auto-gap":
            assert float(rows[0][1]) == nu_hz
        by_ratio = {}
        for row in rows:
            by_ratio.setdefault(float(row[0]), []).append((float(row[2]), float(row[4])))
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
    assert main(["sweep", "--config", str(cfg), "--parameter", "T",
                 "--grid", "1e-4,1e-3"]) == 0
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


def test_cli_grid_forms():
    from penninggate.cli import _parse_grid

    assert _parse_grid("1e-4,2e-3") == [1e-4, 2e-3]
    assert _parse_grid("0:10:3") == [0.0, 5.0, 10.0]
    assert _parse_grid("log:1e-4:1e-2:3") == pytest.approx([1e-4, 1e-3, 1e-2], rel=1e-15)


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


def test_threads_is_a_sweep_flag_only(tmp_path):
    from penninggate.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(config_lines(small_config(tmp_path))) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["gate", "--config", str(cfg), "--threads", "2"])
    assert exc.value.code == 2


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
