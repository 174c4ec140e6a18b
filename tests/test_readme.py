"""The README's documented usage runs as written."""

import math
import re
from pathlib import Path

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
