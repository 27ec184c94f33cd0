"""Span recording for the traced run.

`instrument(tracer)` wraps, from outside the library, the public names a
run reaches: every public function and class method that `harness` imports
from `schedulers`, `baselines`, `core` and `data` (wherever a module holds
the same object), every public method of the problem `harness.build_problem`
returns, and the entry points `harness.run`, `harness.compare`,
`harness.write_trace_csv` and `cli.main`. A later rename in a layer shows up
as a new span name rather than a missing one.

Spans stay in memory as (name, start, end, parent, run id); a span started
with no open parent is a root and opens a new run id. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

from rdbd import cli, harness

LAYERS = ("schedulers", "baselines", "core", "data")
ENTRY_POINTS = ((harness, "run", "harness.run"),
                (harness, "compare", "harness.compare"),
                (harness, "write_trace_csv", "harness.write_trace_csv"),
                (cli, "main", "cli.main"))


class Tracer:
    """In-memory span store fed by the wrappers `wrap` returns."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self._runs = 0

    def wrap(self, name, fn, on_return=None):
        """`fn`, recording a span called `name` per call.

        `on_return`, when given, maps the result before it is returned.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open:
                parent = self._open[-1]
            else:
                parent = -1
                self._runs += 1
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.run_id.append(self._runs)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
            return result if on_return is None else on_return(result)
        return traced

    def summary(self):
        """Per span name (calls, self seconds), and the self-time check.

        The check is |sum of all self times - sum of root durations|
        divided by the sum of root durations; it is 0 up to rounding.
        """
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_sum = np.bincount(names, weights=self_s,
                               minlength=len(self.names))
        root_s = float(dur[~nested].sum())
        error = abs(float(self_s.sum()) - root_s) / root_s if root_s else 0.0
        stats = {n: (int(calls[i]), float(self_sum[i]))
                 for i, n in enumerate(self.names)}
        return stats, error

    def write_csv(self, path, pass_index):
        """Append the spans to `path`; times are µs from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        new = not path.exists()
        with open(path, "a") as f:
            if new:
                f.write("pass,run_id,span_id,parent,name,start_us,end_us\n")
            for i in range(len(self.start)):
                f.write(f"{pass_index},{self.run_id[i]},{i},{self.parent[i]},"
                        f"{self.names[self.name_id[i]]},"
                        f"{(self.start[i] - t0) * 1e6:.3f},"
                        f"{(self.end[i] - t0) * 1e6:.3f}\n")


def _layer_targets():
    """(layer, object) for each public name harness imports from LAYERS."""
    out = []
    for name, obj in vars(harness).items():
        module = getattr(obj, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if (not name.startswith("_") and module.startswith("rdbd.")
                and layer in LAYERS and callable(obj)):
            out.append((layer, obj))
    return out


def _public_methods(cls):
    """(attribute, raw descriptor) for __init__ and public methods of cls."""
    for attr, raw in vars(cls).items():
        if attr != "__init__" and attr.startswith("_"):
            continue
        if inspect.isfunction(raw) or isinstance(raw, (classmethod,
                                                        staticmethod)):
            yield attr, raw


@contextlib.contextmanager
def instrument(tracer):
    """Install span wrappers on the library; all are removed on exit."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(obj, wrapped):
        for module in [m for k, m in sys.modules.items()
                       if k == "rdbd" or k.startswith("rdbd.")]:
            for attr, value in list(vars(module).items()):
                if value is obj:
                    patch(module, attr, wrapped)

    def wrap_problem(problem):
        for attr in dir(problem):
            method = getattr(problem, attr)
            if not attr.startswith("_") and inspect.ismethod(method):
                setattr(problem, attr, tracer.wrap(f"problems.{attr}", method))
        return problem

    try:
        for layer, obj in _layer_targets():
            if not inspect.isclass(obj):
                replace_everywhere(obj, tracer.wrap(f"{layer}.{obj.__name__}",
                                                    obj))
                continue
            for attr, raw in _public_methods(obj):
                span = f"{layer}.{obj.__name__}"
                if attr != "__init__":
                    span += f".{attr}"
                if isinstance(raw, (classmethod, staticmethod)):
                    value = type(raw)(tracer.wrap(span, raw.__func__))
                else:
                    value = tracer.wrap(span, raw)
                patch(obj, attr, value)
        build = harness.build_problem
        replace_everywhere(build, tracer.wrap("problems.build", build,
                                              on_return=wrap_problem))
        for owner, attr, span in ENTRY_POINTS:
            fn = getattr(owner, attr)
            replace_everywhere(fn, tracer.wrap(span, fn))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
