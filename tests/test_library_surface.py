"""The library holds what a run calls: every public top-level function and
class of every module of src/rdbd, bar those in UNGUARDED, is used
somewhere in src/rdbd besides its own definition and the package
re-exports. A new module is guarded from the start. Test-only oracles live
in tests/reference.py."""

import ast
from pathlib import Path

import pytest

import rdbd

SRC = Path(rdbd.__file__).parent
UNGUARDED = (
    "harness",  # until its benchmark-only names go (ROADMAP item 10)
    "theory",   # until the bound calculators get a caller (ROADMAP item 7)
    "__init__", "__main__",  # the package re-exports and the entry point
)
GUARDED = tuple(path.stem for path in sorted(SRC.glob("*.py"))
                if path.stem not in UNGUARDED)


def _used_names(node):
    """Every name node reads, as a bare name or as an attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _uses_outside_definitions():
    """name -> the set of (module, top-level statement index) that use it,
    over every module of src/rdbd except __init__.py."""
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for index, stmt in enumerate(tree.body):
            for name in _used_names(stmt):
                uses.setdefault(name, set()).add((path.stem, index))
    return uses


def _public_definitions(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for index, stmt in enumerate(tree.body):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")):
            yield stmt.name, index


@pytest.mark.parametrize("module", GUARDED)
def test_every_public_name_has_a_caller_in_the_library(module):
    uses = _uses_outside_definitions()
    unused = [name for name, index in _public_definitions(module)
              if not uses.get(name, set()) - {(module, index)}]
    assert unused == [], f"rdbd.{module} defines names only tests use"
