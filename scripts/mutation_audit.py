"""Mutation audit: change one operator or constant of `src/rdbd` at a time
and see whether the tests notice.

    python3 scripts/mutation_audit.py harness
    python3 scripts/mutation_audit.py schedulers.FlatSchedule.step
    python3 scripts/mutation_audit.py harness --matrix tests/test_harness.py
    python3 scripts/mutation_audit.py cli data harness problems schedulers theory

Each target is a module of `src/rdbd`, or a class, function or method in
it; several targets share one run. Each mutant makes one `ast` change
inside its target, default arguments included: a comparison operator
(`<` and `<=`, `>` and `>=`, `==` and `!=`, `is`/`is not`, `in`/`not in`
swap), a binary or augmented arithmetic operator (`+` and `-`, `*` and
`/`, `&` and `|` swap; `//` becomes `/`, `%` `//`, `**` `*`, `@` `*`),
`and` and `or`, a dropped `not`, a call of `min` and `max` (or `minimum`
and `maximum`) swapped, or a numeric constant (0 becomes 1, any other int
n becomes n - 1, and a float f becomes 2f, or 1.0 when f is 0).

Each mutant is written, as `ast.unparse` prints it, into a copy of the
repository (`src`, `tests`, `scripts`, `perfbench`, `pyproject.toml`),
where the tier-1 command runs with `-x` in a child process. The audit
prints one line per mutant, `<file>:<site> <scope> <kind> <from> -> <to>
<verdict>`, where the site is the mutated node's `<line>:<col>-<end
line>:<end col>`, followed by `#<i>` for the i-th operator of a chained
comparison, so no two sites of a module share one, and the verdict is
`killed` (the tests failed), `survived` (they passed) or `timeout`, then
a count of each per target.
With `--matrix <test file>`, only that file runs, without `-x`, and each
line ends with the ids of the tests that failed; the audit then names
each test whose kill set, over every target, is a subset of another
test's.

Every child has its address space capped at `MEMORY_CAP` bytes, and is
stopped, with every process it started, after `TIMEOUT_FACTOR` times the
clean run's time: each copy runs the tests once unmutated, and must pass,
before its first mutant. Some mutants loop forever (a `while` whose exit
test flips), and others allocate without bound. One copy per core, at
most two, run side by side. A mutant that times out runs once more, with
the same timeout, while no other copy runs, so a kill slowed down by the
load beside it is not reported as a timeout; the count of each target
says how many mutants were re-run. Not part of tier-1: the whole suite per
mutant makes a module take minutes, and the whole package about 35
minutes on two cores.
"""

import argparse
import ast
import os
import queue
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TIMEOUT_FACTOR = 3
MEMORY_CAP = 4 << 30
WORKERS = min(2, os.cpu_count() or 1)

COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
           ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
              ast.Div: ast.Mult, ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv,
              ast.Pow: ast.Mult, ast.MatMult: ast.Mult, ast.BitAnd: ast.BitOr,
              ast.BitOr: ast.BitAnd}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
EXTREMA = {"min": "max", "max": "min", "minimum": "maximum",
           "maximum": "minimum"}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
          ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
          ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
          ast.MatMult: "@", ast.BitAnd: "&", ast.BitOr: "|", ast.And: "and",
          ast.Or: "or"}


def _mutated_constant(value):
    if isinstance(value, int):
        return 1 if value == 0 else value - 1
    return 1.0 if value == 0 else 2 * value


class _Mutator(ast.NodeTransformer):
    """Walks a module once, numbering every mutation site inside `scope`
    (the class and function names below the module, [] for all of it) in
    `sites`, and applies the one numbered `chosen`, if any."""

    def __init__(self, scope, chosen=None):
        self.scope, self.chosen = scope, chosen
        self.path, self.sites, self.entered = [], [], not scope

    def _named(self, node):
        self.path.append(node.name)
        self.entered |= self.path == self.scope
        self.generic_visit(node)
        self.path.pop()
        return node

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _named

    def _site(self, node, kind, before, after, op=""):
        """Number one site, labelled by its node's start and end and, in
        a chained comparison, `op`, the operator's index; True when it is
        the one to apply."""
        if self.path[:len(self.scope)] != self.scope:
            return False
        self.sites.append(f"{node.lineno}:{node.col_offset}-{node.end_lineno}:"
                          f"{node.end_col_offset}{op} "
                          f"{'.'.join(self.path) or '<module>'} {kind} "
                          f"{before} -> {after}")
        return len(self.sites) - 1 == self.chosen

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            new = COMPARE[type(op)]
            if self._site(node, "compare", SYMBOL[type(op)], SYMBOL[new],
                          f"#{i}" if len(node.ops) > 1 else ""):
                node.ops[i] = new()
        return node

    def _arithmetic(self, node):
        self.generic_visit(node)
        new = ARITHMETIC.get(type(node.op))
        if new and self._site(node, "arithmetic", SYMBOL[type(node.op)],
                              SYMBOL[new]):
            node.op = new()
        return node

    visit_BinOp = visit_AugAssign = _arithmetic

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        new = BOOLEAN[type(node.op)]
        if self._site(node, "boolean", SYMBOL[type(node.op)], SYMBOL[new]):
            node.op = new()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "not", "not",
                                                       "(dropped)"):
            return node.operand
        return node

    def visit_Call(self, node):
        self.generic_visit(node)
        func = node.func
        field = ("id" if isinstance(func, ast.Name) else
                 "attr" if isinstance(func, ast.Attribute) else None)
        name = getattr(func, field) if field else None
        if name in EXTREMA and self._site(node, "extremum", name,
                                          EXTREMA[name]):
            setattr(func, field, EXTREMA[name])
        return node

    def visit_Constant(self, node):
        value = node.value
        if type(value) in (int, float):
            new = _mutated_constant(value)
            if self._site(node, "constant", repr(value), repr(new)):
                return ast.copy_location(ast.Constant(new), node)
        return node


def sites(source, scope):
    """The label of every site of the module `source` inside `scope`, a
    list of class and function names (empty for the whole module), in
    source walk order. ValueError when the module has no such scope."""
    counter = _Mutator(scope)
    counter.visit(ast.parse(source))
    if not counter.entered:
        raise ValueError(f"no {'.'.join(scope)} in the module")
    return counter.sites


def mutants(source, scope):
    """[(label, mutated tree)] of every site of `sites(source, scope)`."""
    return [(label, ast.fix_missing_locations(
                _Mutator(scope, k).visit(ast.parse(source))))
            for k, label in enumerate(sites(source, scope))]


def _run(workdir, argv, timeout):
    """Run argv in workdir in its own session; its return code, or None
    when it outlived `timeout` seconds and its whole group was killed."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(argv, cwd=workdir, env=env, start_new_session=True,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL) as child:
        try:
            return child.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return None


def _failed_tests(report, test_file):
    """Ids of the failed or erroring tests in a JUnit XML report."""
    if not report.exists():
        return []
    return [f"{test_file}::{case.get('name')}"
            for case in ET.parse(report).iter("testcase")
            if case.find("failure") is not None
            or case.find("error") is not None]


class _Copy:
    """One copy of the repository that runs one command at a time."""

    def __init__(self, parent, test_file):
        self.dir = Path(tempfile.mkdtemp(dir=parent))
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, self.dir / name, ignore=shutil.
                                ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(source, self.dir / name)
        self.test_file = test_file
        self.timeout = None

    def run(self, module=None, source=None):
        """(verdict, failed test ids, seconds) of the tests with `source`
        as `module`, or with every module as it is."""
        report = self.dir / "report.xml"
        report.unlink(missing_ok=True)
        argv = (TIER1[:3] + ["-p", "no:cacheprovider", "--junitxml",
                             str(report), self.test_file]
                if self.test_file else TIER1 + ["-x", "-p", "no:cacheprovider"])
        if module:
            path = self.dir / "src" / "rdbd" / f"{module}.py"
            original = path.read_text()
            path.write_text(source)
        start = time.perf_counter()
        try:
            code = _run(self.dir, argv, self.timeout)
        finally:
            if module:
                path.write_text(original)
        seconds = time.perf_counter() - start
        failed = _failed_tests(report, self.test_file) if self.test_file else []
        verdict = ("timeout" if code is None else
                   "survived" if code == 0 else "killed")
        return verdict, failed, seconds


def verdicts(copies, found):
    """(verdict, failed test ids, re-run) of each mutant of `found`, in
    order, run side by side on `copies`. A mutant that times out runs
    again on one copy while the others stay idle; `re-run` says so."""
    free, gate = queue.SimpleQueue(), threading.Lock()
    for c in copies:
        free.put(c)

    def audit(mutant):
        _, module, _, tree = mutant
        source = ast.unparse(tree) + "\n"
        with gate:
            c = free.get()
        try:
            verdict, failed, _ = c.run(module, source)
        finally:
            free.put(c)
        if verdict != "timeout":
            return verdict, failed, False
        # Holding the gate keeps every copy from being handed out, so the
        # re-run starts once the other copies are back and runs alone.
        with gate:
            held = [free.get() for _ in copies]
            try:
                verdict, failed, _ = held[0].run(module, source)
            finally:
                for c in held:
                    free.put(c)
        return verdict, failed, True

    with ThreadPoolExecutor(len(copies)) as pool:
        yield from pool.map(audit, found)


def _subsumed(kills):
    """(test, other) for each test whose kill set is a subset of another's,
    `other` being the largest such superset; of two tests with equal sets,
    only the one later in name order is named."""
    out = []
    for a in sorted(kills):
        supersets = [b for b in sorted(kills) if b != a and kills[a] <= kills[b]
                     and (kills[a] != kills[b] or b < a)]
        if supersets:
            out.append((a, max(supersets, key=lambda b: len(kills[b]))))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="target",
                        help="module[.Class][.function] of src/rdbd")
    parser.add_argument("--matrix", metavar="TEST_FILE",
                        help="run only this test file, without -x, and "
                             "record which tests kill each mutant")
    args = parser.parse_args(argv)
    found = []   # (target, module, label, tree) of every mutant, in order
    for target in args.targets:
        module, *scope = target.split(".")
        path = ROOT / "src" / "rdbd" / f"{module}.py"
        if not path.is_file():
            parser.error(f"no module {path}")
        try:
            found += [(target, module, label, tree)
                      for label, tree in mutants(path.read_text(), scope)]
        except ValueError as exc:
            parser.error(f"{target}: {exc}")
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as parent:
        copies = [_Copy(parent, args.matrix) for _ in range(WORKERS)]
        with ThreadPoolExecutor(len(copies)) as pool:
            clean = list(pool.map(_Copy.run, copies))
        for verdict, failed, seconds in clean:
            if verdict != "survived":
                sys.exit(f"the unmutated tests fail: {' '.join(failed)}")
        for c in copies:
            c.timeout = TIMEOUT_FACTOR * max(s for _, _, s in clean)
        print(f"# {len(found)} mutants of {', '.join(args.targets)}; clean "
              f"run {max(s for _, _, s in clean):.1f} s, timeout "
              f"{copies[0].timeout:.1f} s", flush=True)

        counts, kills = {t: {} for t in args.targets}, {}
        reruns = dict.fromkeys(args.targets, 0)
        for k, ((target, module, label, _), (verdict, failed, rerun)) in \
                enumerate(zip(found, verdicts(copies, found))):
            counts[target][verdict] = counts[target].get(verdict, 0) + 1
            reruns[target] += rerun
            for test in failed:
                kills.setdefault(test, set()).add(k)
            print(f"src/rdbd/{module}.py:{label} {verdict}"
                  + "".join(f" {t}" for t in failed), flush=True)
    for target, count in counts.items():
        print(f"# {target}: " + (", ".join(f"{n} {v}" for v, n in
                                           sorted(count.items()))
                                 or "no mutants")
              + (f"; {reruns[target]} timed out and ran again alone"
                 if reruns[target] else ""))
    if args.matrix:
        for a, b in _subsumed(kills):
            print(f"# subsumed: {a} ({len(kills[a])}) <= {b} ({len(kills[b])})")


if __name__ == "__main__":
    main()
