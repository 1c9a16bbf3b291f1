"""No module of apfp imports a name it never uses, no private
definition of apfp goes unread, no public one is read by tests alone,
and no module spells a conjugate transpose or scipy's expm outside the
algebra functions that own them.

A name kept on purpose (for instance for a tracer that wraps it by its
module attribute) carries `# noqa: F401` on its line.  __init__.py is
left out of the import scan: its imports are the public API.
"""

import ast
import re
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The functions, classes and methods named with one leading
    underscore, and the methods of such classes (dunders aside), that no
    source reads as a name or an attribute."""
    trees = [ast.parse(s) for s in sources]
    read = set()
    defined = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _private(node.name):
                defined.append(node.name)
                if isinstance(node, ast.ClassDef):
                    defined += [
                        f.name
                        for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (f.name.startswith("__") and f.name.endswith("__"))
                    ]
    return [name for name in defined if name not in read]


def test_the_scan_finds_an_unread_private_definition():
    source = (
        "class _Kept:\n    def used(self): pass\n    def unused(self): pass\n    def __len__(self): return 0\n"
        "def _helper(): pass\ndef _dead(): pass\ndef public(): pass\n"
        "_Kept().used()\n_helper()\n"
    )
    assert unread_private_definitions([source]) == ["unused", "_dead"]


def test_every_private_definition_is_read():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_private_definitions(sources) == []


ROOT = SRC.parents[1]
UNREAD_PUBLIC = {"rho"}  # the paper's pairing of K0 with the trace simplex, kept as its exact closed form


def _reads(node, inside: frozenset, read: set) -> None:
    """Add to read every name, attribute and string constant under node
    (string constants are how a tracer names what it wraps), except one
    read inside a definition of that same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        name = None
    if name is not None and name not in inside:
        read.add(name)
    for child in ast.iter_child_nodes(node):
        _reads(child, inside, read)


def unread_public_definitions(sources: list[str], readers: list[str]) -> list[str]:
    """The public functions and classes at the top level of sources, and
    the public methods of those classes (as Class.method), that no reader
    reads outside their own definition."""
    read = set()
    for r in readers:
        _reads(ast.parse(r), frozenset(), read)
    unread = []
    for s in sources:
        for node in ast.parse(s).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in read:
                unread.append(node.name)
            if isinstance(node, ast.ClassDef):
                unread += [
                    f"{node.name}.{f.name}"
                    for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not f.name.startswith("_")
                    and f.name not in read
                ]
    return unread


def test_the_scan_finds_an_unread_public_definition():
    source = (
        "class Kept:\n    def used(self): return self.used\n    def unused(self): return Kept\n"
        "def helper(): return 'named'\ndef named(): pass\ndef dead(): return dead()\ndef _private(): pass\n"
        "helper(Kept().used)\n"
    )
    assert unread_public_definitions([source], [source]) == ["Kept.unused", "dead"]


def test_every_public_definition_is_read():
    readers = [
        p.read_text()
        for d in (SRC, ROOT / "scripts", ROOT / "perfbench")
        for p in sorted(d.glob("*.py"))
    ]
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    unread = unread_public_definitions(sources, readers)
    assert [name for name in unread if name not in UNREAD_PUBLIC] == []


# algebra owns the conjugate transpose and scipy's Pade exponential: each
# is spelled once, inside the one function that forms it
RAW_SPELLINGS = re.compile(r"\.conj\(\)\.(T\b|swapaxes\()|\.expm\b|\bimport\b.*\bexpm\b")
OWNERS = {"algebra.py": ("_ct", "_expm")}


def raw_spellings(source: str, owners=()) -> list[str]:
    """The lines of source that spell a conjugate transpose or scipy's
    expm, as "line: text", outside the functions named in owners."""
    owned = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in owners:
            owned.update(range(node.lineno, node.end_lineno + 1))
    return [
        f"{i}: {line.strip()}"
        for i, line in enumerate(source.splitlines(), 1)
        if i not in owned and RAW_SPELLINGS.search(line)
    ]


def test_the_scan_finds_a_raw_spelling():
    source = (
        "def _ct(a):\n    return a.conj().swapaxes(-1, -2)\n"
        "def _expm(a):\n    return scipy.linalg.expm(a)\n"
        "def f(q):\n    return q @ q.conj().T\n"
        "g = sla.expm(a)\nh = a.conj().swapaxes(0, 1)\nk = _ct(_expm(a)).conj().Tr\n"
        "from scipy.linalg import expm\n"
    )
    assert raw_spellings(source, ("_ct", "_expm")) == [
        "6: return q @ q.conj().T",
        "7: g = sla.expm(a)",
        "8: h = a.conj().swapaxes(0, 1)",
        "10: from scipy.linalg import expm",
    ]
    assert len(raw_spellings(source)) == 6


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_conjugate_transposes_and_expm_go_through_algebra(module):
    assert raw_spellings((SRC / module).read_text(), OWNERS.get(module, ())) == []
