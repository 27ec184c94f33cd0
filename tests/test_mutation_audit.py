"""The mutant generator of `scripts/mutation_audit.py`, without running a
mutant: each mutant compiles and changes exactly one node, and each site
has its own label."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutation_audit", ROOT / "scripts" / "mutation_audit.py")
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)


def _differing_nodes(a, b):
    """How many nodes of b differ from a's node at the same place, not
    counting inside a node that differs."""
    if type(a) is not type(b):
        return 1
    if isinstance(a, list):
        return (max(len(a), len(b)) - min(len(a), len(b))
                + sum(map(_differing_nodes, a, b)))
    if not isinstance(a, ast.AST):
        return int(a != b)
    fields = [(getattr(a, f), getattr(b, f)) for f in a._fields]
    if any(not isinstance(x, (ast.AST, list)) and x != y for x, y in fields):
        return 1
    return sum(_differing_nodes(x, y) for x, y in fields)


def test_mutants_of_the_kernel_step_are_stable_compile_and_change_one_node():
    source = (ROOT / "src" / "rdbd" / "schedulers.py").read_text()
    tree = ast.parse(source)
    scope = ["FlatSchedule", "step"]
    found = audit.mutants(source, scope)
    assert [label for label, _ in found] == [
        label for label, _ in audit.mutants(source, scope)]
    kinds = {label.split()[2] for label, _ in found}
    assert kinds == {"constant", "compare", "not", "arithmetic", "boolean",
                     "extremum"}
    assert all(label.split()[1] == "FlatSchedule.step" for label, _ in found)
    for label, mutant in found:
        compile(mutant, label, "exec")
        assert _differing_nodes(tree, mutant) == 1, label


@pytest.mark.parametrize("module", sorted(
    path.stem for path in (ROOT / "src" / "rdbd").glob("*.py")))
def test_every_site_of_a_module_has_its_own_label(module):
    # Nested operators can start at one column, and the operators of a
    # chained comparison share one node.
    source = (ROOT / "src" / "rdbd" / f"{module}.py").read_text()
    sites = [label.split()[0] for label in audit.sites(source, [])]
    assert len(set(sites)) == len(sites)


def test_a_timeout_runs_again_alone_and_reports_its_second_verdict(
        monkeypatch):
    monkeypatch.delattr(audit.subprocess, "Popen")   # no child may start
    failing = ["tests/test_data.py::test_x"]

    class SlowThenFailing:   # a kill that ran out of time under other load
        runs = [("timeout", [], 9.0), ("killed", failing, 1.0)]

        def run(self, module, source):
            return self.runs.pop(0)

    mutant = ("data", "data", "1:4-1:5", ast.parse("x = 2"))
    assert list(audit.verdicts([SlowThenFailing()], [mutant])) == [
        ("killed", failing, True)]
