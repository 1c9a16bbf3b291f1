"""No module of apfp imports a name it never uses.

A name kept on purpose (for instance for a tracer that wraps it by its
module attribute) carries `# noqa: F401` on its line.  __init__.py is
left out: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "apfp"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, outside noqa lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], a.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, a.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name, line in imported if name not in used and "# noqa: F401" not in lines[line - 1]]


def test_the_scan_finds_an_unused_import():
    source = "import math\nimport os  # noqa: F401\nfrom json import (\n    dumps,\n    loads,\n)\nloads('1')\n"
    assert unused_imports(source) == ["math", "dumps"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []
