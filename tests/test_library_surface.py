"""The library holds what a run calls: every public name of every module of
src/rdbd, bar those in UNGUARDED, is read somewhere in src/rdbd besides its
own definition and the package re-exports. A public name is a top-level
function, class or constant whose name does not start with "_", or a
method, property, class attribute or annotated field of such a class
likewise named. A new module is guarded from the start. Test-only oracles
live in tests/reference.py.

The check matches by name alone: a read of `x.loss` counts for every
`loss` the library defines, so a method whose name some other attribute
also uses, such as `TraceRecord.loss`, counts as used.

WAITING lists, one by one, the public names that may still lack a caller,
each with the ROADMAP item it waits on. The test fails on an unused name
WAITING does not list, and on a listed name that has gained a caller or no
longer exists, so the table can only shrink.

Every module but `__init__` also reads each name it imports; `from
__future__` imports are exempt."""

import ast
from pathlib import Path

import pytest

import rdbd

SRC = Path(rdbd.__file__).parent
UNGUARDED = ("__init__", "__main__")  # the re-exports and the entry point
GUARDED = tuple(path.stem for path in sorted(SRC.glob("*.py"))
                if path.stem not in UNGUARDED)
WAITING = {
    "harness.check_revert_flags": "items 1 and 10 (perfbench reads it)",
    "harness.RunConfig.problem_signature": "items 1 and 10 (perfbench reads it)",
    "harness.TraceRecord.grad_norms": "items 1 and 10 (perfbench reads it)",
    "harness.check_alpha_envelope": "item 3",
    "theory.steeper_descent_conditions": "item 3",
    "theory.measure_tau": "item 3",
    "theory.rdbd_theoretical_hyperparams": "items 3 and 8",
    "theory.rdbd_iteration_bound": "item 8",
    "theory.dbd_iteration_bound": "item 7",
    "theory.descent_coefficient_bound": "item 7",
    "theory.BoundReport.theoretical_value": "items 3 and 7",
    "theory.BoundReport.empirical_value": "items 3 and 7",
    "theory.BoundReport.satisfied": "items 3 and 7",
    "theory.BoundReport.applicable": "items 3 and 7",
}


def _tree(module):
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(node):
    """name -> how often node reads it, as a bare name or as an attribute."""
    counts = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            counts[sub.id] = counts.get(sub.id, 0) + 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            counts[sub.attr] = counts.get(sub.attr, 0) + 1
    return counts


def _library_reads():
    """name -> how often every module of src/rdbd but __init__ reads it."""
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            for name, n in _read_names(_tree(path.stem)).items():
                counts[name] = counts.get(name, 0) + n
    return counts


def _names_defined(stmt):
    """The public names stmt binds: a def's or class's name, or the bare
    names a plain or annotated assignment binds (a constant, or in a class
    body a property, class attribute or dataclass field)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _public_definitions(module):
    """(qualified name, bare name, the node that defines it) for each public
    name of module: its top-level ones, and those of its public classes."""
    for stmt in _tree(module).body:
        for name in _names_defined(stmt):
            yield f"{module}.{name}", name, stmt
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    for attr in _names_defined(item):
                        yield f"{module}.{name}.{attr}", attr, item


@pytest.mark.parametrize("module", GUARDED)
def test_every_public_name_has_a_caller_in_the_library(module):
    reads = _library_reads()
    defined, unused = set(), set()
    for qualified, name, node in _public_definitions(module):
        defined.add(qualified)
        if reads.get(name, 0) == _read_names(node).get(name, 0):
            unused.add(qualified)
    waiting = {name for name in WAITING if name.split(".")[0] == module}
    assert sorted(unused - waiting) == [], (
        f"rdbd.{module} defines names only tests use")
    assert sorted(waiting - defined) == [], "WAITING lists names that are gone"
    assert sorted(waiting - unused) == [], (
        "WAITING lists names that now have a caller in the library")


@pytest.mark.parametrize("module", tuple(
    path.stem for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"))
def test_every_module_reads_what_it_imports(module):
    tree = _tree(module)
    imported = set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in stmt.names}
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            imported |= {a.asname or a.name for a in stmt.names}
    assert sorted(imported - set(_read_names(tree))) == [], (
        f"rdbd.{module} imports names it never reads")
