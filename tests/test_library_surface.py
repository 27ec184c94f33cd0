"""The library holds what a run calls: every public name of every module of
src/rdbd, bar those in UNGUARDED, is read somewhere in src/rdbd besides its
own definition and the package re-exports. A public name is a top-level
function, class or constant whose name does not start with "_", or a
method, property, class attribute, annotated field or `self.<name>`
instance attribute of such a class likewise named. A new module is
guarded from the start. Test-only oracles live in tests/reference.py.

A top-level name counts as read as a bare name or as an attribute; a
class member only as an attribute, so a local variable of the same name
does not count. The check matches attributes by name alone: a read of
`x.loss` counts for every `loss` member the library defines, so a method
whose name some other attribute also uses, such as `TraceRecord.loss`,
counts as used.

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
    "problems.Problem.L": "item 3",
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
    "theory.BoundReport.margin": "items 3 and 7",
}


def _tree(module):
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(node):
    """name -> how often node reads it as a bare name, and ".name" -> how
    often it reads it as an attribute."""
    counts = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            key = sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            key = "." + sub.attr
        else:
            continue
        counts[key] = counts.get(key, 0) + 1
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


def _self_attributes(method):
    """(name, statement) for each public `self.<name>` a method assigns."""
    for stmt in ast.walk(method):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(stmt, "targets", None) or [stmt.target]
            for sub in (sub for t in targets for sub in ast.walk(t)):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and not sub.attr.startswith("_")):
                    yield sub.attr, stmt


def _public_definitions(module):
    """qualified name -> (the read keys that count for it, the nodes that
    define it) for each public name of module: its top-level ones, and
    those of its public classes."""
    found = {}

    def add(qualified, keys, node):
        found.setdefault(qualified, (keys, []))[1].append(node)

    for stmt in _tree(module).body:
        for name in _names_defined(stmt):
            add(f"{module}.{name}", (name, "." + name), stmt)
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    for attr in _names_defined(item):
                        add(f"{module}.{name}.{attr}", ("." + attr,), item)
                    if isinstance(item, ast.FunctionDef):
                        for attr, node in _self_attributes(item):
                            add(f"{module}.{name}.{attr}", ("." + attr,), node)
    return found


@pytest.mark.parametrize("module", GUARDED)
def test_every_public_name_has_a_caller_in_the_library(module):
    reads = _library_reads()
    defined = _public_definitions(module)
    unused = set()
    for qualified, (keys, nodes) in defined.items():
        own = [_read_names(node) for node in nodes]
        if all(reads.get(k, 0) == sum(o.get(k, 0) for o in own)
               for k in keys):
            unused.add(qualified)
    waiting = {name for name in WAITING if name.split(".")[0] == module}
    assert sorted(unused - waiting) == [], (
        f"rdbd.{module} defines names only tests use")
    assert sorted(waiting - set(defined)) == [], (
        "WAITING lists names that are gone")
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
