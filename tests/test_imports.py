"""Every name a dualce module or a test file imports is used in that file.

Read with the stdlib ast module only.  The package __init__ imports names to
re-export them, and a line marked `# noqa: F401` imports a name on purpose
for another reader, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "dualce").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by an import in source that nothing else reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_leftover_import_is_caught():
    source = "from .markov import DUMBBELL_MINIMUM, DUMBBELL_INTERVALS\nDUMBBELL_MINIMUM\n"
    assert unused_imports(source) == ["DUMBBELL_INTERVALS"]
    kept = "from .markov import delta_gamma  # noqa: F401\nimport numpy as np\nnp.ones\n"
    assert unused_imports(kept) == []
