"""Experiment runner: configures optimizer x scheduler x problem, executes
seeded runs, records per-step traces, and compares optimizers over seeds.

A run's trace is one `Trace`: a float64 array with one row per step, in
the CSV column order below, whose cells three writers fill: the kernel a
row's group cells, `run` its `step`, `loss` and blank `full_loss`, and
`settle` an eval's full loss. Every reader in the library and its tests
reads its columns; `TraceRecord` row views are kept only as the
benchmark's four-attribute contract, and go once it reads columns.

Trace CSV schema (one row per step): `step,loss,full_loss` followed by
`grad_norm,alpha,h,reverted` per weight group (suffixed `.<id>` when the
problem has more than one group), each as `FlatSchedule.step` reports it
under the run's rate rule, a fixed rate included; `grad_norm` is the norm
of the update direction (the gradient, or Adam's `u`). `loss` is the
mini-batch loss at the pre-step point; `full_loss` is the whole-dataset
loss after the step, filled every `eval_every` steps and at the last step,
else blank. Identical (config, seed) pairs produce byte-identical files.
Each full-dataset eval takes a copy of the weights and is recorded at the
next eval or at the run's end: a large problem computes it meanwhile on one
worker thread, and a small or deterministic one computes it when it is
recorded, starting no thread.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import batch_stream, load_mnist, synthetic_blobs
from .problems import (LogisticProblem, MlpProblem, QuadraticProblem,
                       RosenbrockProblem)
from .schedulers import AdamState, FlatSchedule
from .theory import alpha_envelope

# optimizer -> (direction, rate rule, default eta, default alpha_max as a
# multiple of alpha0). The direction is the gradient or Adam's
# bias-corrected u; the rule, which FlatSchedule applies, holds every rate
# at alpha0 ("fixed") or schedules one rate per weight group ("dbd",
# "rdbd"). Default meta rates: 0.01 for gradient-fed schedulers, 5e-7 when
# the schedule rides on Adam directions, which also need a cap.
OPTIMIZER_TABLE = {
    "sgd": ("gradient", "fixed", 0.0, math.inf),
    "adam": ("adam", "fixed", 0.0, math.inf),
    "dbd": ("gradient", "dbd", 0.01, math.inf),
    "rdbd": ("gradient", "rdbd", 0.01, math.inf),
    "adam_rdbd": ("adam", "rdbd", 5e-7, 10.0),
}
OPTIMIZERS = tuple(OPTIMIZER_TABLE)
PROBLEMS = ("quadratic", "rosenbrock", "logistic", "mlp-blobs", "mlp-mnist")
METRICS = ("final_loss", "steps_to_threshold", "min_grad_norm")
# In-order evals won 6 of 6 hermetic-presets pairs; only mlp-784 is above.
_OVERLAP_EVAL_SIZE = 1 << 24  # rows x weights from which the eval overlaps


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class MissingDataError(RuntimeError):
    """A required dataset is not available (CLI exit code 3)."""


class NumericError(RuntimeError):
    """A run produced non-finite values (CLI exit code 4)."""


@dataclass
class RunConfig:
    problem: str = "logistic"
    optimizer: str = "rdbd"
    alpha0: float = 0.005
    eta: float | None = None        # None -> optimizer default
    batch_size: int = 16
    steps: int = 2000
    seed: int = 0
    alpha_min: float = 0.0
    alpha_max: float | None = None  # None -> optimizer default * alpha0
    eval_every: int = 25
    beta1: float = 0.05
    beta2: float = 0.99
    eps_hat: float = 1e-8
    n_samples: int = 2048
    dim: int = 20
    problem_seed: int = 7
    separation: float = 4.0
    grad_noise: float = 0.0
    grad_noise_prob: float = 1.0
    layer_sizes: tuple = (784, 128, 64, 10)
    mnist_dir: str | None = None
    out: str | None = None

    def resolved(self) -> "RunConfig":
        """Copy with sentinels filled in and every field range-checked."""
        cfg = dataclasses.replace(self)
        if cfg.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {cfg.optimizer!r}; "
                              f"choose from {', '.join(OPTIMIZERS)}")
        if cfg.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {cfg.problem!r}; "
                              f"choose from {', '.join(PROBLEMS)}")
        _, rule, eta, max_ratio = OPTIMIZER_TABLE[cfg.optimizer]
        if cfg.eta is None:
            cfg.eta = eta
        if cfg.alpha_max is None:
            cfg.alpha_max = max_ratio * cfg.alpha0
        cfg.layer_sizes = tuple(int(s) for s in cfg.layer_sizes)
        samples = math.inf if cfg.problem in ("quadratic", "rosenbrock") else cfg.n_samples
        for ok, message in (
                (cfg.steps >= 1, "steps must be >= 1"),
                (cfg.seed >= 0, "seed must be >= 0"),
                (cfg.problem_seed >= 0, "problem_seed must be >= 0"),
                (cfg.batch_size >= 1, "batch_size must be >= 1"),
                (cfg.eval_every >= 1, "eval_every must be >= 1"),
                (math.isfinite(cfg.alpha0), "alpha0 must be finite"),
                (cfg.alpha0 > 0, "alpha0 must be > 0"),
                (math.isfinite(cfg.separation), "separation must be finite"),
                # numpy draws the noise from a range 2 * grad_noise wide
                (0 <= cfg.grad_noise and math.isfinite(2 * cfg.grad_noise),
                 "grad_noise must be >= 0 and at most half the largest float"),
                (0 <= cfg.grad_noise_prob <= 1, "grad_noise_prob must lie in [0, 1]"),
                (cfg.dim >= 1, "dim must be >= 1"),
                (all(s >= 1 for s in cfg.layer_sizes), "every layer width must be >= 1"),
                (not cfg.problem.startswith("mlp") or len(cfg.layer_sizes) >= 2,
                 "layer_sizes needs an input and an output width"),
                (cfg.batch_size <= samples,
                 f"batch_size must be <= the {samples} samples of {cfg.problem}")):
            if not ok:
                raise ConfigError(message)
        try:  # these rules live where they apply; none builds a dataset
            FlatSchedule((), 0, cfg.alpha0, cfg.eta, cfg.alpha_min,
                         cfg.alpha_max, rule)
            AdamState(0, cfg.beta1, cfg.beta2, cfg.eps_hat)
            if cfg.problem == "logistic":
                LogisticProblem.check_shape(cfg.n_samples, cfg.dim)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cfg

    def problem_signature(self) -> tuple:
        """Fields that must agree for runs to be comparable."""
        return (self.problem, self.n_samples, self.dim, self.problem_seed,
                self.separation, self.grad_noise, self.grad_noise_prob,
                self.layer_sizes, self.batch_size, self.steps)


class Trace:
    """The trace of one run: one float64 row per step in trace CSV column
    order, `step,loss,full_loss` then `grad_norm,alpha,h,reverted` per
    weight group of `ids`.

    `data` is allocated for every step up front and its first `n` rows are
    written; `rows` is their view. In `run` the kernel writes a row's group
    cells, the loop its `step`, `loss` and a NaN `full_loss`, and `settle`
    an eval's full loss. A NaN `full_loss` marks a step without an eval,
    and `reverted` is 0 or 1. The column views are 1-D for the first three
    and `(n, groups)` for the per-group ones. `trace[i]` is a `TraceRecord`,
    the benchmark's row view, and iterating goes through it. Two traces are
    equal when their ids and written rows are (NaN equal to NaN). Raises
    ConfigError when `steps` rows cannot be allocated.
    """

    def __init__(self, ids, steps):
        self.ids = tuple(ids)
        columns = 3 + 4 * len(self.ids)
        try:
            self.data = np.empty((steps, columns))
        except (MemoryError, ValueError) as exc:
            raise ConfigError(f"steps={steps} is too large: its trace of "
                              f"{steps} rows x {columns} float64 columns "
                              f"cannot be allocated ({exc})") from exc
        self.n = 0

    rows = property(lambda self: self.data[:self.n])
    step = property(lambda self: self.rows[:, 0])
    loss = property(lambda self: self.rows[:, 1])
    full_loss = property(lambda self: self.rows[:, 2])
    grad_norm = property(lambda self: self.rows[:, 3::4])
    alpha = property(lambda self: self.rows[:, 4::4])
    h = property(lambda self: self.rows[:, 5::4])
    reverted = property(lambda self: self.rows[:, 6::4])

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return TraceRecord(self.ids, self.rows[i].tolist())

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.ids == other.ids and np.array_equal(
            self.rows, other.rows, equal_nan=True)


class TraceRecord:
    """Read-only view of one trace row, as the benchmark reads it: `loss`,
    `full_loss` (None without an eval), and `grad_norms` and `reverted`
    (bool values) as dicts keyed by group id."""

    __slots__ = ("_ids", "_row")

    def __init__(self, ids, row):
        self._ids, self._row = ids, row

    loss = property(lambda self: self._row[1])
    full_loss = property(lambda self: None if math.isnan(self._row[2])
                         else self._row[2])
    grad_norms = property(lambda self: dict(zip(self._ids, self._row[3::4])))
    reverted = property(lambda self: {i: bool(v) for i, v in
                                      zip(self._ids, self._row[6::4])})


@functools.lru_cache(maxsize=1)
def _shared_dataset(build, *args):
    """build(*args), `synthetic_blobs` or `load_mnist`, kept read-only for
    every run that asks again; MissingDataError when the loader finds no
    files, which is not kept.

    Runs sharing a problem signature (a seed sweep, `compare`) would each
    regenerate or reload identical data. Rebuilding a large dataset per run
    also made peak memory vary: once the first copy is freed, malloc puts
    later ones on the heap, which numpy advises for huge pages that the
    kernel may or may not supply.
    """
    dataset = build(*args)
    if dataset is None:
        raise MissingDataError("MNIST IDX files not found; pass "
                               "--mnist-dir or set MNIST_DIR")
    dataset.features.flags.writeable = False
    dataset.labels.flags.writeable = False
    return dataset


def build_problem(config: RunConfig):
    cfg = config.resolved()
    try:
        if cfg.problem == "quadratic":
            return QuadraticProblem(np.arange(1.0, cfg.dim + 1.0))
        if cfg.problem == "rosenbrock":
            return RosenbrockProblem()
        if cfg.problem == "logistic":
            return LogisticProblem(_shared_dataset(
                synthetic_blobs, cfg.n_samples, cfg.dim, 2, cfg.problem_seed,
                cfg.separation))
        if cfg.problem == "mlp-blobs":
            return MlpProblem(cfg.layer_sizes, _shared_dataset(
                synthetic_blobs, cfg.n_samples, cfg.layer_sizes[0],
                cfg.layer_sizes[-1], cfg.problem_seed, cfg.separation))
        # mlp-mnist, the last of PROBLEMS; the directory is part of the key
        return MlpProblem(cfg.layer_sizes, _shared_dataset(
            load_mnist, cfg.mnist_dir or os.environ.get("MNIST_DIR"),
            cfg.n_samples, cfg.problem_seed))
    except (MemoryError, OSError, ValueError) as exc:
        raise ConfigError(f"{cfg.problem}: {exc}") from exc


def run(config: RunConfig) -> Trace:
    """Execute one seeded run; returns its `Trace`, one row per step.

    The dataset, the trace array for every step and the weights are
    allocated before `out` is checked, so a problem or a `steps` too large
    to hold fails as a ConfigError before step 1 and leaves no file. Each
    step writes its row, which counts in `trace.n` once its checks pass,
    and each eval its row's full loss. With `out` set (a file, or a
    directory for `trace.csv`), the trace CSV is written there; a run that
    stops on any exception inside the step loop still writes the steps
    before it, and an unwritable `out` fails before step 1.

    Deterministic for a given (config, seed): the master seed splits into
    independent init and batch-order streams, so optimizer comparisons at
    the same seed share identical batch sequences.
    """
    cfg = config.resolved()
    problem = build_problem(cfg)
    ids, segments = zip(*problem.segments)
    trace = Trace(ids, cfg.steps)
    blocks = trace.data[:, 3:].reshape(cfg.steps, len(ids), 4)  # a view
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    try:
        x = problem.initial_point(np.random.default_rng(init_ss)).astype(np.float64)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{cfg.problem}: its {problem.dim} weights cannot "
                          f"be allocated ({exc})") from exc

    batches = (batch_stream(problem.n_samples, cfg.batch_size, batch_ss)
               if problem.n_samples else itertools.repeat(None))

    direction, rule, _, _ = OPTIMIZER_TABLE[cfg.optimizer]
    adam = (AdamState(x.size, cfg.beta1, cfg.beta2, cfg.eps_hat)
            if direction == "adam" else None)
    sched = FlatSchedule(segments, x.size, cfg.alpha0, cfg.eta, cfg.alpha_min,
                         cfg.alpha_max, rule)
    out = _out_file(cfg.out, "trace.csv")
    # The gradient-noise stream follows problem_seed, not seed, so every run
    # of one problem (each optimizer, each seed) sees the same perturbations.
    noise = (np.random.default_rng(cfg.problem_seed + 1)
             if cfg.grad_noise > 0.0 else None)
    overlap = problem.n_samples * problem.dim >= _OVERLAP_EVAL_SIZE
    pending = None  # (step, result) of the eval whose loss is not recorded yet

    def fail(step, detail):
        raise NumericError(f"non-finite values at step {step}: {detail}")

    def check_groups(step, v, what):
        if not _all_finite(v):
            bad = next(vec_id for vec_id, sl in zip(ids, segments)
                       if not _all_finite(v[sl]))
            fail(step, f"{what} of group {bad!r}")

    def settle():  # an eval that fails keeps only the steps before it
        nonlocal pending
        if pending:
            (step, result), pending = pending, None
            try:
                trace.data[step - 1, 2] = loss = result()
                if not math.isfinite(loss):
                    fail(step, f"full loss {loss}")
            except BaseException:
                trace.n = step - 1
                raise

    # Divergence is detected by the explicit finiteness checks below, so the
    # overflow that precedes an abort does not need to warn as well. The eval
    # sets that errstate itself: it may run on the worker or after the loop.
    quiet = dict(over="ignore", invalid="ignore")
    evaluate = np.errstate(**quiet)(problem.loss)
    try:
        with np.errstate(**quiet), (ThreadPoolExecutor(1) if overlap
                                    else contextlib.nullcontext()) as pool:
            for t, block in enumerate(blocks, 1):
                batch = next(batches)
                batch_loss, grad = problem.loss_and_grad(x, batch)
                if noise and noise.uniform() < cfg.grad_noise_prob:
                    grad = grad + noise.uniform(-cfg.grad_noise, cfg.grad_noise, x.size)
                if not math.isfinite(batch_loss):
                    fail(t, f"batch loss {batch_loss}")

                d = adam.advance(grad) if adam else grad
                sched.step(x, d, block)
                # A non-finite entry makes its group's norm non-finite (for
                # Adam too: inf/inf is NaN), so only then check every entry.
                if not all(map(math.isfinite, block[:, 0].tolist())):
                    check_groups(t, grad, "gradient")
                if adam:  # v overflows on entries > ~1e154
                    check_groups(t, adam.v, "Adam second moment")
                check_groups(t, x, "weights")

                trace.data[t - 1, :3] = t, batch_loss, math.nan
                trace.n = t
                if t % cfg.eval_every == 0 or t == cfg.steps:
                    settle()
                    pending = t, (pool.submit(evaluate, x.copy()).result if pool
                                  else functools.partial(evaluate, x.copy()))
    finally:
        try:
            settle()
        finally:
            if out:
                write_trace_csv(trace, ids, out)
    return trace


def _all_finite(v) -> bool:
    """Whether every entry of v is finite. A finite sum of squares proves it;
    only a sum that overflows pays for the exact check."""
    return math.isfinite(np.dot(v, v)) or bool(np.isfinite(v).all())


def _fmt(value) -> str:
    return repr(float(value))


def trace_columns(vector_ids):
    cols = ["step", "loss", "full_loss"]
    suffix = len(vector_ids) > 1
    for vec_id in vector_ids:
        tail = f".{vec_id}" if suffix else ""
        cols += [f"grad_norm{tail}", f"alpha{tail}", f"h{tail}",
                 f"reverted{tail}"]
    return cols


def _out_file(path, name=None):
    """`path`, or, given `name`, the file `name` inside it when it names a
    directory (an existing one, or any path that ends in a separator),
    checked writable before any work: ConfigError if its directory or file
    cannot be made. A file or directory the check creates is removed
    again, so a failure leaves none; the writer makes them when it writes."""
    if not path:
        return path
    if name and (os.path.isdir(path) or path.endswith(os.sep)):
        path = os.path.join(path, name)
    existed = os.path.exists(path)
    made = [os.path.dirname(os.path.abspath(path))]  # deepest first
    while not os.path.exists(made[-1]):
        made.append(os.path.dirname(made[-1]))
    try:
        os.makedirs(made[0], exist_ok=True)
        open(path, "a").close()
        if not existed:
            os.remove(path)
        for directory in made[:-1]:
            os.rmdir(directory)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def _write_lines(path, lines):
    """Write lines as one newline-terminated file, making its directory."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _int_cell(value) -> str:
    return str(int(value))


def _optional_cell(value) -> str:
    return "" if math.isnan(value) else repr(value)


def write_trace_csv(records, vector_ids, path):
    """Write the Trace `records` as a trace CSV, its rows as they are; a
    NaN full loss is a blank cell. `vector_ids` must be the trace's own
    group ids, in order (ValueError otherwise)."""
    if tuple(vector_ids) != records.ids:
        raise ValueError(f"vector_ids {list(vector_ids)} are not the "
                         f"trace's group ids {list(records.ids)}")
    formats = [_int_cell, repr, _optional_cell]
    formats += [repr, repr, repr, _int_cell] * len(records.ids)
    lines = [",".join(trace_columns(records.ids))]
    for start in range(0, records.n, 64):  # bounds the floats alive at once
        columns = records.rows[start:start + 64].T.tolist()
        lines += map(",".join, zip(*map(map, formats, columns)))
    _write_lines(path, lines)
    return path


def metric_value(records, metric, threshold=0.5):
    """`metric` of the Trace `records`: the last full loss, the first step
    whose full loss is <= `threshold` (inf if none), or the smallest norm
    of a step's whole update direction."""
    if metric == "final_loss":
        return float(records.full_loss[-1])
    if metric == "steps_to_threshold":
        hits = np.flatnonzero(records.full_loss <= threshold)
        return float(records.step[hits[0]]) if hits.size else math.inf
    if metric == "min_grad_norm":
        return min(map(_row_norm, records.grad_norm.tolist()))
    raise ConfigError(f"unknown metric {metric!r}; choose from {', '.join(METRICS)}")


def _row_norm(values) -> float:
    """The norm of a row of Python floats, as sqrt(sum(v ** 2)): numpy's
    `v * v` can differ from libm's `v ** 2` in the last bit, and `sum`
    rounds as Python does. `**` raises where a square overflows, and only
    then is math.hypot, which does not overflow, used instead."""
    try:
        return math.sqrt(sum(v ** 2 for v in values))
    except OverflowError:
        return math.hypot(*values)


@dataclass
class ComparisonRow:
    optimizer: str
    metric: str
    median: float
    iqr: float
    values: list = field(default_factory=list)


def config_grid(base, optimizers, seeds, axis=None, values=()):
    """The run configs of axis value x optimizer x seed, in that order.

    Each cell is `base` with the `axis` field set to one of `values`, its
    optimizer and its seed (`base.seed` .. `base.seed + seeds - 1`)
    replaced, and no trace, so differences come from those alone. Without
    an axis the grid is optimizer x seed. `eta` and `alpha_max` carry over
    only to `base.optimizer`; the others get their defaults. Every cell is
    resolved here, so a setting that `resolved` rejects fails before any
    run or file; a dataset that cannot be built fails at its own run.
    """
    if not optimizers or seeds < 1:
        raise ConfigError("compare needs at least one optimizer and one seed")
    if len(set(optimizers)) < len(optimizers):
        raise ConfigError(f"optimizers must not repeat: {list(optimizers)}")
    others = dataclasses.replace(base, eta=None, alpha_max=None)
    settings = [{axis: value} for value in values] if axis else [{}]
    return [dataclasses.replace(
        base if opt == base.optimizer else others, optimizer=opt,
        seed=base.seed + s, out=None, **setting).resolved()
        for setting in settings for opt in optimizers for s in range(seeds)]


def compare(base, optimizers, seeds, metric="final_loss", threshold=0.5,
            out=None):
    """Run the `config_grid` of each optimizer over `seeds` seeds and
    summarize the metric per optimizer.

    Every input is checked before the first run. Returns (rows, winner)
    with rows ordered by median (lower is better) and winner None when no
    median is finite; with `out` set, writes the rows there (to
    `comparison.csv` in a directory).
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; choose from {', '.join(METRICS)}")
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    cells = config_grid(base, optimizers, seeds)
    out = _out_file(out, "comparison.csv")

    rows = []
    for i, opt in enumerate(optimizers):
        values = [metric_value(run(c), metric, threshold)
                  for c in cells[i * seeds:(i + 1) * seeds]]
        finite = [v for v in values if math.isfinite(v)]
        median = float(np.median(values)) if finite == values else math.inf
        iqr = (float(np.percentile(values, 75) - np.percentile(values, 25))
               if finite == values else math.inf)
        rows.append(ComparisonRow(optimizer=opt, metric=metric, median=median,
                                  iqr=iqr, values=values))
    rows.sort(key=lambda r: (r.median, r.optimizer))
    winner = rows[0].optimizer if math.isfinite(rows[0].median) else None
    if out:
        write_comparison_csv(rows, out)
    return rows, winner


def write_comparison_csv(rows, path):
    lines = ["optimizer,metric,median,iqr,n_seeds,values"]
    for r in rows:
        values = ";".join(_fmt(v) for v in r.values)
        lines.append(f"{r.optimizer},{r.metric},{_fmt(r.median)},"
                     f"{_fmt(r.iqr)},{len(r.values)},{values}")
    _write_lines(path, lines)
    return path


def render_comparison(rows) -> str:
    header = f"{'optimizer':<12} {'median':>14} {'iqr':>14} {'seeds':>6}"
    out = [header, "-" * len(header)]
    for r in rows:
        out.append(f"{r.optimizer:<12} {r.median:>14.6g} {r.iqr:>14.6g} "
                   f"{len(r.values):>6d}")
    return "\n".join(out)


def emit_plot_data(traces, out_path):
    """Write long-format plot data: run_id,step,series,value.

    `traces` is a list of (run_id, Trace) pairs. The series are `loss`,
    `full_loss` and `alpha`; alpha expands to `alpha.<id>` when a trace has
    several weight groups, and steps without an evaluation write no
    full_loss row. Returns the number of data rows written.
    """
    if not traces:
        raise ConfigError("emit_plot_data needs at least one trace")
    lines = ["run_id,step,series,value"]
    for run_id, trace in traces:
        labels = trace_columns(trace.ids)[4::4]
        for step, loss, full, alphas in zip(
                trace.step.astype(np.int64).tolist(), trace.loss.tolist(),
                trace.full_loss.tolist(), trace.alpha.tolist()):
            lines.append(f"{run_id},{step},loss,{loss!r}")
            if not math.isnan(full):
                lines.append(f"{run_id},{step},full_loss,{full!r}")
            lines += [f"{run_id},{step},{label},{alpha!r}"
                      for label, alpha in zip(labels, alphas)]
    _write_lines(out_path, lines)
    return len(lines) - 1


def _cells(trace, mask):
    """The (step, group id) of every True entry of an (n, groups) mask,
    step by step."""
    return [(int(trace.step[r]), trace.ids[g])
            for r, g in zip(*np.nonzero(mask))]


def check_revert_flags(records):
    """(step, group id) of each revert flag of the Trace `records` that
    fired without h_t * h_{t-1} < 0 (h_0 = 0)."""
    h = records.h
    prev = np.zeros_like(h)
    prev[1:] = h[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return _cells(records, (records.reverted != 0) & ~(h * prev < 0.0))


def check_alpha_envelope(records, alpha0, eta, slack=1e-10):
    """(step, group id) of each rate of the Trace `records` that leaves
    `alpha_envelope(alpha0, eta, sigma, t)`, with sigma the largest update
    norm of its group, by more than `slack`.

    Only meaningful on runs with clamping disabled; reverts only remove
    increments, so they tighten the bound rather than widening it.
    """
    if not records:
        return []
    outside = np.zeros(records.alpha.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, sigma in enumerate(records.grad_norm.max(axis=0).tolist()):
            lo, hi = alpha_envelope(alpha0, eta, sigma, records.step)
            alpha = records.alpha[:, k]
            outside[:, k] = ~((lo - slack <= alpha) & (alpha <= hi + slack))
    return _cells(records, outside)


# Desk-scale presets. The quadratic here is diag(1..dim); MNIST presets use
# a stratified 2048-sample subset and skip cleanly when the files are absent.
PRESETS = {
    "logistic-default": RunConfig(problem="logistic", optimizer="rdbd",
                                  alpha0=0.005, eta=0.01, batch_size=16,
                                  steps=2000, n_samples=2048, dim=20,
                                  problem_seed=7),
    "logistic-adam-rdbd": RunConfig(problem="logistic", optimizer="adam_rdbd",
                                    alpha0=0.005, eta=5e-7, batch_size=16,
                                    steps=2000, n_samples=2048, dim=20,
                                    problem_seed=7, alpha_max=0.05),
    "quadratic-dbd": RunConfig(problem="quadratic", optimizer="dbd", dim=2,
                               alpha0=0.5, eta=1e-3, steps=500, batch_size=1,
                               eval_every=10),
    "rosenbrock-rdbd": RunConfig(problem="rosenbrock", optimizer="rdbd",
                                 alpha0=1e-3, eta=1e-9, steps=2000,
                                 batch_size=1, alpha_max=2e-3, eval_every=50),
    "mlp-blobs-demo": RunConfig(problem="mlp-blobs", optimizer="rdbd",
                                alpha0=0.005, eta=0.01, batch_size=16,
                                steps=600, n_samples=512,
                                layer_sizes=(10, 16, 8, 3), problem_seed=7),
    "mnist-default": RunConfig(problem="mlp-mnist", optimizer="rdbd",
                               alpha0=0.005, eta=0.01, batch_size=16,
                               steps=3750, layer_sizes=(784, 128, 64, 10)),
}

# Sweeps: (base preset, swept field, values).
SWEEPS = {
    "lr-robustness": ("mnist-default", "alpha0",
                      [0.01, 0.005, 0.001, 0.0005, 0.0001]),
    "lr-robustness-logistic": ("logistic-default", "alpha0",
                               [0.01, 0.005, 0.001, 0.0005, 0.0001]),
    "batch-size-impact": ("logistic-default", "batch_size", [4, 16, 64, 256]),
}


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        if name in SWEEPS:
            raise ConfigError(f"{name!r} is a sweep; use the sweep command")
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}")
    return dataclasses.replace(PRESETS[name])

