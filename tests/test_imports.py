"""Every module-level import in src/ and tests/ is used.

A name bound by a module-level import must be read somewhere in its
module, as a name or in the module's __all__.  The check reads the
source with ast and imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bound_names(tree):
    """(line, name) of every name a module-level import binds; __future__ imports bind none."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _read_names(tree):
    """Every name the module reads, and every string in its __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
    return names


def _unused(source):
    """(line, name) of every module-level import the source never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return [(line, name) for line, name in _bound_names(tree) if name not in read]


def test_every_module_level_import_is_used():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in paths
        for line, name in _unused(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy.linalg\nfrom math import pi as half_turn, tau\n\nprint(numpy, tau)\n"
    assert _unused(source) == [(1, "os"), (3, "half_turn")]
