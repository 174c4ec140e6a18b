"""The README's documented usage runs as written."""

import math
import re
from pathlib import Path

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
