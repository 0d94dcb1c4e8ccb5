"""The README's Python runs as written.

Every ```python block of README.md runs, in order, in one namespace.  A line
whose comment shows a DualScalar or DualVector repr must evaluate to exactly
that repr, so a public name dropped from the quick start, or a changed repr,
fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
SHOWN = re.compile(r"^(?P<expr>\S.*?)\s+# (?P<repr>Dual(?:Scalar|Vector)\(.*\))$")


def test_readme_python_blocks_run():
    blocks = BLOCK.findall(README.read_text())
    assert blocks, "README.md has no python block"
    namespace = {}
    shown = []
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            match = SHOWN.match(line)
            if match:
                value = eval(match["expr"], namespace)
                shown.append((match["expr"], repr(value), match["repr"]))
    assert shown, "no line of the README shows a dual repr"
    for expr, got, expected in shown:
        assert got == expected, f"{expr}: repr {got}, README shows {expected}"
