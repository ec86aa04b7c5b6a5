"""Every public name of the library has a caller in the library.

The package holds the pipeline and nothing else: a name a module lists in
its __all__, and a public method or property of a class so listed, must
be referenced somewhere in src/ outside its own definition, and a
private name a module binds at its top level must be read somewhere in
src/, so that no helper or constant outlives its last use.  Test
references live in the tests (see _reference.py).  The checks read the
source with ast and import nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conespectra"

ALLOWED = {
    # the README's reader of the pencil.bin artifact that export_pencil writes
    "load_pencil",
    # the bytes of a pencil's parts, with which the benchmark's tracer sizes a solve
    "nbytes",
}


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _is_assignment_to(node, name):
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)


def _public(modules):
    """(label, name, definition) of every __all__ name and every public method or property of an exported class."""
    for module, tree in modules.items():
        exported = [node for node in tree.body if _is_assignment_to(node, "__all__")]
        for name in (elt.value for node in exported for elt in node.value.elts):
            definition = next(
                node
                for node in tree.body
                if getattr(node, "name", None) == name or _is_assignment_to(node, name)
            )
            yield f"{module}:{name}", name, definition
            for member in getattr(definition, "body", []) if isinstance(definition, ast.ClassDef) else []:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}:{name}.{member.name}", member.name, member


def _references(modules):
    """(node, name) of every Name and Attribute; an import line or an __all__ string is neither."""
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node, node.id
            elif isinstance(node, ast.Attribute):
                yield node, node.attr


def _uncalled(modules):
    """Labels of the public definitions with no caller, where a caller inside an uncalled one is none."""
    references = list(_references(modules))
    public = [
        (label, name, {id(node) for node in ast.walk(definition)})
        for label, name, definition in _public(modules)
        if name not in ALLOWED
    ]
    dead = set()  # the nodes inside uncalled definitions
    while True:
        uncalled = [
            (label, inside)
            for label, name, inside in public
            if not any(ref == name and id(node) not in inside and id(node) not in dead for node, ref in references)
        ]
        reached = set().union(*(inside for _, inside in uncalled))
        if reached == dead:
            return [label for label, _ in uncalled]
        dead = reached


def test_every_public_name_has_a_caller_in_src():
    assert _uncalled(_modules()) == []


def test_allowed_names_are_public():
    assert ALLOWED <= {name for _, name, _ in _public(_modules())}


def _private(modules):
    """(label, name) of every private name bound at a module's top level: a def, a class, an assignment or an import."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                names = [n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)]
            private = (name for name in names if name.startswith("_") and not name.startswith("__"))
            yield from ((f"{module}:{name}", name) for name in private)


def _private_references(modules):
    """Every name read: a Name load, an attribute, or a name an import takes from another module."""
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from (alias.name for alias in node.names)


def test_every_private_name_has_a_reference_in_src():
    modules = _modules()
    referenced = set(_private_references(modules))
    assert [label for label, name in _private(modules) if name not in referenced] == []
