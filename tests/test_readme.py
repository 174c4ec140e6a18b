"""The README's documented usage runs as written."""

import json
import math
import re
from pathlib import Path

import pytest

from penninggate import parse_config
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
    # the tau_g sweep drives every point on the gate's own carrier rule: here
    # the mid-gap carrier, 3.878 MHz, which keeps every row's F > 0
    blocks = re.findall(r"```\n(# fig4\.cfg\n.*?)```", README.read_text(), flags=re.DOTALL)
    cfg = tmp_path / "fig4.cfg"
    cfg.write_text(blocks[0])
    assert main(["gate", "--config", str(cfg), "--out", str(tmp_path / "gate")]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"),
                 "--parameter", "tau_g", "--grid", "0.006,0.02,0.06,0.2"]) == 0
    rows = [row.split(",") for row in
            (tmp_path / "sweep" / "sweep_tau_g.csv").read_text().splitlines()[1:]]
    assert len(rows) == 12 and all(row[-1] == "ok" and float(row[3]) > 0.0 for row in rows)
    carrier = json.loads((tmp_path / "gate" / "phase.json").read_text())["nu_hz"]
    assert {float(row[1]) for row in rows} == {carrier}
    assert carrier == pytest.approx(3878492.83, abs=0.005)
    gate_rows = (tmp_path / "gate" / "fidelity.csv").read_text().splitlines()[1:]
    assert [",".join(row[2:-1]) for row in rows[:3]] == gate_rows
    at_1mk = [float(row[4]) for row in rows if float(row[2]) == 1e-3]
    assert at_1mk == [pytest.approx(value, rel=1e-6) for value in
                      (1.2928538127177092e-05, 2.2754386639678437e-05,
                       1.4951177702005047e-05, 1.2114258213680174e-05)]
