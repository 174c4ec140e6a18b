"""The README's documented usage runs as written."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from penninggate import load_state, parse_config
from penninggate.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    curve = namespace["curve"]
    assert [row[0] for row in curve] == [1e-4, 1e-3, 1e-2]
    assert all(0.0 < row[1] <= 1.0 for row in curve)
    assert math.isfinite(namespace["amplitude"]) and namespace["amplitude"] > 0.0


def test_readme_fig4_config_runs_the_gate_verb(tmp_path):
    blocks = re.findall(r"```\n(# fig4\.cfg\n.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = tmp_path / "fig4.cfg"
    cfg.write_text(blocks[0])
    config = parse_config(cfg)
    assert (config.n_ions, config.p_theta, config.tau_ratio) == (30, 1.3e5, 0.006)
    assert main(["gate", "--config", str(cfg), "--out", str(tmp_path / "fig4")]) == 0
    assert (tmp_path / "fig4" / "fidelity.csv").is_file()


def test_readme_fig4_tau_sweep_runs_on_the_gate_carrier(tmp_path):
    # the tau_ratio sweep drives every point on the gate's own carrier rule:
    # here the mid-gap carrier, 3.878 MHz, which keeps every row's F > 0
    blocks = re.findall(r"```\n(# fig4\.cfg\n.*?)```", README.read_text(), flags=re.DOTALL)
    cfg = tmp_path / "fig4.cfg"
    cfg.write_text(blocks[0])
    assert main(["gate", "--config", str(cfg), "--out", str(tmp_path / "gate")]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"),
                 "--parameter", "tau_ratio", "--grid", "0.006,0.02,0.06,0.2"]) == 0
    rows = [row.split(",") for row in
            (tmp_path / "sweep" / "sweep_tau_ratio.csv").read_text().splitlines()[1:]]
    assert len(rows) == 12 and all(row[-1] == "ok" and float(row[8]) > 0.0 for row in rows)
    carrier = json.loads((tmp_path / "gate" / "phase.json").read_text())["nu_hz"]
    assert {float(row[5]) for row in rows} == {carrier}
    assert carrier == pytest.approx(3878492.83, abs=0.005)
    gate_rows = (tmp_path / "gate" / "fidelity.csv").read_text().splitlines()[1:]
    assert [",".join(row[7:-1]) for row in rows[:3]] == gate_rows
    at_1mk = [float(row[9]) for row in rows if float(row[7]) == 1e-3]
    assert at_1mk == [pytest.approx(value, rel=1e-6) for value in
                      (1.2928518934418598e-05, 2.27586911166755e-05,
                       1.4953665215644563e-05, 1.2109648955926922e-05)]


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # every line of the command block, with fig4.cfg in the working directory
    blocks = re.findall(r"```\n(# fig4\.cfg\n.*?)```", README.read_text(), flags=re.DOTALL)
    (tmp_path / "fig4.cfg").write_text(blocks[0])
    commands = re.findall(r"```sh\n(penninggate .*?)```", README.read_text(), flags=re.DOTALL)
    assert len(commands) == 1
    lines = [shlex.split(line, comments=True)
             for line in commands[0].replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in lines] == [
        ["penninggate", verb] for verb in ("equilibrium", "modes", "gate", "sweep",
                                           "pulse-design")]
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    # the p_theta sweep crosses the paper's regime at three rotation
    # frequencies; each point's rows are those of the gate run at its P_theta
    rows = [row.split(",") for row in
            (tmp_path / "runs" / "fig4" / "sweep_p_theta.csv").read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows[::3]] == [1.3e5, 3e5, 1e6]
    for row_block, p_theta in zip((rows[:3], rows[3:6], rows[6:]), ("1.3e5", "3e5", "1e6")):
        out = tmp_path / f"gate-{p_theta}"
        cfg = tmp_path / f"{p_theta}.cfg"
        cfg.write_text(blocks[0].replace("p_theta = 1.3e5", f"p_theta = {p_theta}"))
        assert main(["gate", "--config", str(cfg), "--out", str(out)]) == 0
        state = load_state(out / "equilibrium.txt")
        phase = json.loads((out / "phase.json").read_text())
        header = dict(line.split(" = ") for line in
                      (out / "equilibrium.txt").read_text().splitlines()[:5])
        crystal = [header["omega_r_over_omega_c"], f"{state.anisotropy:.17g}", header["energy"]]
        gate = ["{}:{}".format(*phase["pair"]), f"{phase['nu_hz']:.17g}",
                f"{phase['amplitude']:.17g}"]
        assert [row[1:7] for row in row_block] == [crystal + gate] * 3
        assert [",".join(row[7:-1]) for row in row_block] == (
            (out / "fidelity.csv").read_text().splitlines()[1:])
        assert [row[-1] for row in row_block] == ["ok"] * 3
