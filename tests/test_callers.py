"""Every library path has a caller outside the tests.

Each module-level function and class of ``src/sclab`` must be referenced
by name (an ``ast.Name``, an ``ast.Attribute`` or an import alias)
somewhere in ``src/sclab``, ``scripts`` or ``perfbench``, outside its own
definition.  perfbench's self-tests do not count: they are tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "sclab"
ALLOWED = set()
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _caller_files():
    files = sorted(LIBRARY.glob("*.py"))
    files += sorted((ROOT / "scripts").rglob("*.py"))
    files += sorted(p for p in (ROOT / "perfbench").rglob("*.py") if p.name != "test_perfbench.py")
    return files


def _names(node):
    """Every name that ``node`` references: Name ids, Attribute attrs, import aliases."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def test_every_library_definition_has_a_caller():
    referenced = set()
    for path in _caller_files():
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = set(_names(node))
            if isinstance(node, DEFINITIONS):
                names.discard(node.name)  # its own body does not count
            referenced |= names
    uncalled = {(path.stem, node.name)
                for path in LIBRARY.glob("*.py")
                for node in ast.parse(path.read_text()).body
                if isinstance(node, DEFINITIONS) and node.name not in referenced}
    assert uncalled == ALLOWED
