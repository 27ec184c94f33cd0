"""Experiment runner: configures optimizer x scheduler x problem, executes
seeded runs, records per-step traces, and compares optimizers over seeds.

Trace CSV schema (one row per step): `step,loss,full_loss` followed by
`grad_norm,alpha,h,reverted` per weight group (suffixed `.<id>` when the
problem has more than one group). `grad_norm` is the norm of the update
direction (the gradient, or Adam's `u`), so `min_grad_norm` compares
direction norms. `loss` is the mini-batch loss at the pre-step point;
`full_loss` is the whole-dataset loss after the step, filled every
`eval_every` steps and at the final step, blank otherwise.
Identical (config, seed) pairs produce byte-identical files.
A large problem runs its full-dataset evals on one worker thread, each
overlapping the steps after it, with the same traces and failure steps; a
small or deterministic problem starts no thread.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .baselines import AdamState, adam_advance
from .data import BatchSampler, load_mnist, mnist_subset, synthetic_blobs
from .problems import (LogisticProblem, MlpProblem, QuadraticProblem,
                       RosenbrockProblem)
from .schedulers import FlatSchedule
from .theory import alpha_envelope

# optimizer -> (direction, rate rule, default eta). The direction is the
# gradient or Adam's bias-corrected u; the rule holds every rate at alpha0
# ("fixed") or schedules one rate per weight group ("dbd", "rdbd"). Default
# meta rates: 0.01 for gradient-fed schedulers, 5e-7 when the schedule
# rides on Adam directions.
OPTIMIZER_TABLE = {
    "sgd": ("gradient", "fixed", 0.0),
    "adam": ("adam", "fixed", 0.0),
    "dbd": ("gradient", "dbd", 0.01),
    "rdbd": ("gradient", "rdbd", 0.01),
    "adam_rdbd": ("adam", "rdbd", 5e-7),
}
OPTIMIZERS = tuple(OPTIMIZER_TABLE)
PROBLEMS = ("quadratic", "rosenbrock", "logistic", "mlp-blobs", "mlp-mnist")
METRICS = ("final_loss", "steps_to_threshold", "min_grad_norm")
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
    alpha_max: float | None = None  # None -> +inf (10*alpha0 for adam_rdbd)
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
    subset_n: int = 2048
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
        if cfg.eta is None:
            cfg.eta = OPTIMIZER_TABLE[cfg.optimizer][2]
        if cfg.alpha_max is None:
            cfg.alpha_max = 10.0 * cfg.alpha0 if cfg.optimizer == "adam_rdbd" else math.inf
        cfg.layer_sizes = tuple(int(s) for s in cfg.layer_sizes)
        classes = cfg.layer_sizes[-1] if cfg.layer_sizes else 0
        samples = {"logistic": cfg.n_samples, "mlp-blobs": cfg.n_samples,
                   "mlp-mnist": cfg.subset_n}.get(cfg.problem, math.inf)
        for ok, message in (
                (cfg.steps >= 1, "steps must be >= 1"),
                (cfg.seed >= 0, "seed must be >= 0"),
                (cfg.problem_seed >= 0, "problem_seed must be >= 0"),
                (cfg.batch_size >= 1, "batch_size must be >= 1"),
                (cfg.eval_every >= 1, "eval_every must be >= 1"),
                (math.isfinite(cfg.alpha0), "alpha0 must be finite"),
                (math.isfinite(cfg.eta), "eta must be finite"),
                (cfg.alpha0 > 0, "alpha0 must be > 0"),
                (cfg.eta >= 0, "eta must be >= 0"),
                (cfg.alpha_min <= cfg.alpha_max, "alpha_min must be <= alpha_max"),
                (0 <= cfg.beta1 < 1, "beta1 must lie in [0, 1)"),
                (0 <= cfg.beta2 < 1, "beta2 must lie in [0, 1)"),
                (0 < cfg.eps_hat < math.inf, "eps_hat must be finite and > 0"),
                (math.isfinite(cfg.separation), "separation must be finite"),
                (0 <= cfg.grad_noise < math.inf, "grad_noise must be finite and >= 0"),
                (0 <= cfg.grad_noise_prob <= 1, "grad_noise_prob must lie in [0, 1]"),
                (cfg.dim >= 1, "dim must be >= 1"),
                (all(s >= 1 for s in cfg.layer_sizes), "every layer width must be >= 1"),
                (not cfg.problem.startswith("mlp") or len(cfg.layer_sizes) >= 2,
                 "layer_sizes needs an input and an output width"),
                (cfg.problem != "logistic" or cfg.n_samples >= cfg.dim,
                 "logistic needs n_samples >= dim"),
                (cfg.problem != "mlp-blobs" or cfg.n_samples >= classes,
                 "mlp-blobs needs n_samples >= the number of classes"),
                (cfg.batch_size <= samples,
                 f"batch_size must be <= the {samples} samples of {cfg.problem}")):
            if not ok:
                raise ConfigError(message)
        return cfg

    def problem_signature(self) -> tuple:
        """Fields that must agree for runs to be comparable."""
        return (self.problem, self.n_samples, self.dim, self.problem_seed,
                self.separation, self.grad_noise, self.grad_noise_prob,
                self.layer_sizes, self.subset_n, self.batch_size, self.steps)


@dataclass
class TraceRecord:
    step: int
    loss: float
    full_loss: float | None
    grad_norms: dict
    alphas: dict
    hs: dict
    reverted: dict


@functools.lru_cache(maxsize=1)
def _shared_blobs(*args):
    """synthetic_blobs(*args), kept read-only for every run that asks again.

    Runs sharing a problem signature (a seed sweep, `compare`) would each
    regenerate identical data. Rebuilding a large dataset per run also made
    peak memory vary: once the first copy is freed, malloc puts later ones
    on the heap, which numpy advises for huge pages that the kernel may or
    may not supply.
    """
    dataset = synthetic_blobs(*args)
    dataset.features.flags.writeable = False
    dataset.labels.flags.writeable = False
    return dataset


def build_problem(config: RunConfig):
    cfg = config.resolved()
    try:
        if cfg.problem == "quadratic":
            return QuadraticProblem(np.diag(np.arange(1.0, cfg.dim + 1.0)))
        if cfg.problem == "rosenbrock":
            return RosenbrockProblem()
        if cfg.problem == "logistic":
            return LogisticProblem(_shared_blobs(
                cfg.n_samples, cfg.dim, 2, cfg.problem_seed, cfg.separation))
        if cfg.problem == "mlp-blobs":
            return MlpProblem(cfg.layer_sizes, _shared_blobs(
                cfg.n_samples, cfg.layer_sizes[0], cfg.layer_sizes[-1],
                cfg.problem_seed, cfg.separation))
        full = load_mnist(cfg.mnist_dir)  # mlp-mnist, the last of PROBLEMS
        if full is None:
            raise MissingDataError("MNIST IDX files not found; pass "
                                   "--mnist-dir or set MNIST_DIR")
        return MlpProblem(cfg.layer_sizes, mnist_subset(
            full, cfg.subset_n, cfg.problem_seed))
    except ValueError as exc:
        raise ConfigError(f"{cfg.problem}: {exc}") from exc


def run(config: RunConfig):
    """Execute one seeded run; returns the list of TraceRecords.

    With `out` set (a file, or a directory for `trace.csv`), the trace CSV
    is written there; a run that stops on any exception inside the step
    loop still writes the steps before it, and an unwritable `out` fails
    before step 1.

    Deterministic for a given (config, seed): the master seed splits into
    independent init and batch-order streams, so optimizer comparisons at
    the same seed share identical batch sequences.
    """
    cfg = config.resolved()
    problem = build_problem(cfg)
    out = _out_file(cfg.out, "trace.csv")
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    x = problem.initial_point(np.random.default_rng(init_ss)).astype(np.float64)

    sampler = None
    if problem.n_samples:
        sampler = BatchSampler(problem.n_samples, cfg.batch_size, batch_ss)

    ids, segments = zip(*problem.segments)
    direction, rule, _ = OPTIMIZER_TABLE[cfg.optimizer]
    adam = AdamState.fresh(x.size, cfg.beta1, cfg.beta2, cfg.eps_hat)
    sched = FlatSchedule(segments, [cfg.alpha0] * len(ids), [0.0] * len(ids),
                         [0.0] * len(ids), np.zeros(x.size), cfg.eta,
                         cfg.alpha_min, cfg.alpha_max)
    fixed = [cfg.alpha0] * len(ids), [0.0] * len(ids), [False] * len(ids)
    # The gradient-noise stream follows problem_seed, not seed, so every run
    # of one problem (each optimizer, each seed) sees the same perturbations.
    noise = (np.random.default_rng(cfg.problem_seed + 1)
             if cfg.grad_noise > 0.0 else None)
    overlap = problem.n_samples * problem.dim >= _OVERLAP_EVAL_SIZE
    records = []
    pending = None  # (step, result) of the eval whose loss is not recorded yet

    def fail(step, detail):
        raise NumericError(f"non-finite values at step {step}: {detail}")

    def check_groups(step, v, what):
        if not _all_finite(v):
            bad = next(vec_id for vec_id, sl in zip(ids, segments)
                       if not _all_finite(v[sl]))
            fail(step, f"{what} of group {bad!r}")

    def settle():  # an eval that fails keeps the steps before it, as in order
        nonlocal pending
        if pending:
            (step, result), pending = pending, None
            try:
                records[step - 1].full_loss = loss = result()
                if not math.isfinite(loss):
                    fail(step, f"full loss {loss}")
            except BaseException:
                del records[step - 1:]
                raise

    # Divergence is detected by the explicit finiteness checks below, so the
    # overflow that precedes an abort does not need to warn as well. The
    # worker sets the same errstate itself, as errstate is context-local.
    quiet = dict(over="ignore", invalid="ignore")
    try:
        with np.errstate(**quiet), (ThreadPoolExecutor(1) if overlap
                                    else contextlib.nullcontext()) as pool:
            for t in range(1, cfg.steps + 1):
                batch = sampler.next_batch() if sampler else None
                batch_loss, grad = problem.loss_and_grad(x, batch)
                if noise and noise.uniform() < cfg.grad_noise_prob:
                    grad = grad + noise.uniform(-cfg.grad_noise, cfg.grad_noise, x.size)
                if not math.isfinite(batch_loss):
                    fail(t, f"batch loss {batch_loss}")

                d = adam_advance(adam, grad) if direction == "adam" else grad
                # A non-finite entry makes its group's norm non-finite (for
                # Adam too: inf/inf is NaN), so only then check every entry.
                norms = [math.sqrt(np.dot(d[sl], d[sl])) for sl in segments]
                if not all(map(math.isfinite, norms)):
                    check_groups(t, grad, "gradient")
                if direction == "adam":  # v overflows on entries > ~1e154
                    check_groups(t, adam.v, "Adam second moment")
                if rule == "fixed":
                    x -= cfg.alpha0 * d
                    alphas, hs, reverted = fixed
                else:
                    hs, reverted = sched.step(x, d, revert=rule == "rdbd")
                    alphas = sched.alpha
                check_groups(t, x, "weights")

                records.append(TraceRecord(
                    step=t, loss=batch_loss, full_loss=None,
                    grad_norms=dict(zip(ids, norms)),
                    alphas=dict(zip(ids, alphas)), hs=dict(zip(ids, hs)),
                    reverted=dict(zip(ids, reverted))))
                if t % cfg.eval_every == 0 or t == cfg.steps:
                    settle()
                    if pool:
                        pending = t, pool.submit(np.errstate(**quiet)(
                            problem.loss), x.copy()).result
                    else:
                        pending = t, functools.partial(problem.loss, x)
                        settle()
    finally:
        try:
            settle()
        finally:
            if out:
                write_trace_csv(records, ids, out)
    return records


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
    cannot be made. A file the check creates is removed again, so a
    failure leaves none."""
    if not path:
        return path
    if name and (os.path.isdir(path) or path.endswith(os.sep)):
        path = os.path.join(path, name)
    existed = os.path.exists(path)
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        open(path, "a").close()
        if not existed:
            os.remove(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def _write_lines(path, lines):
    """Write lines as one newline-terminated file, making its directory."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def write_trace_csv(records, vector_ids, path):
    lines = [",".join(trace_columns(vector_ids))]
    for rec in records:
        cells = [str(rec.step), _fmt(rec.loss),
                 "" if rec.full_loss is None else _fmt(rec.full_loss)]
        for vec_id in vector_ids:
            cells += [_fmt(rec.grad_norms[vec_id]), _fmt(rec.alphas[vec_id]),
                      _fmt(rec.hs[vec_id]), str(int(rec.reverted[vec_id]))]
        lines.append(",".join(cells))
    _write_lines(path, lines)
    return path


def metric_value(records, metric, threshold=0.5):
    if metric == "final_loss":
        return records[-1].full_loss
    if metric == "steps_to_threshold":
        for rec in records:
            if rec.full_loss is not None and rec.full_loss <= threshold:
                return float(rec.step)
        return math.inf
    if metric == "min_grad_norm":
        return min(math.sqrt(sum(v ** 2 for v in rec.grad_norms.values()))
                   for rec in records)
    raise ConfigError(f"unknown metric {metric!r}; choose from {', '.join(METRICS)}")


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
    resolved here, so a bad setting fails before any run or file.
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

    `traces` is a list of (run_id, records) pairs. The series are `loss`,
    `full_loss` and `alpha`; alpha expands to `alpha.<id>` when a trace has
    several weight groups, and steps without an evaluation write no
    full_loss row. Returns the number of data rows written.
    """
    if not traces:
        raise ConfigError("emit_plot_data needs at least one trace")
    lines = ["run_id,step,series,value"]
    for run_id, records in traces:
        if not records:
            continue
        ids = list(records[0].alphas)
        labels = [f"alpha.{i}" if len(ids) > 1 else "alpha" for i in ids]
        for rec in records:
            values = [("loss", rec.loss), ("full_loss", rec.full_loss)]
            values += zip(labels, rec.alphas.values())
            lines += [f"{run_id},{rec.step},{name},{_fmt(value)}"
                      for name, value in values if value is not None]
    _write_lines(out_path, lines)
    return len(lines) - 1


def check_revert_flags(records):
    """Indices whose revert flag fired without h_t * h_{t-1} < 0."""
    violations = []
    prev_h = {vec_id: 0.0 for vec_id in records[0].hs} if records else {}
    for rec in records:
        for vec_id, rev in rec.reverted.items():
            if rev and not rec.hs[vec_id] * prev_h[vec_id] < 0.0:
                violations.append((rec.step, vec_id))
            prev_h[vec_id] = rec.hs[vec_id]
    return violations


def check_alpha_envelope(records, alpha0, eta, slack=1e-10):
    """Steps whose rate leaves `alpha_envelope(alpha0, eta, sigma, t)`,
    with sigma the largest update norm of its group, by more than `slack`.

    Only meaningful on runs with clamping disabled; reverts only remove
    increments, so they tighten the bound rather than widening it.
    """
    violations = []
    if not records:
        return violations
    gmax = {vec_id: max(rec.grad_norms[vec_id] for rec in records)
            for vec_id in records[0].grad_norms}
    for rec in records:
        for vec_id, alpha in rec.alphas.items():
            lo, hi = alpha_envelope(alpha0, eta, gmax[vec_id], rec.step)
            if not lo - slack <= alpha <= hi + slack:
                violations.append((rec.step, vec_id))
    return violations


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
                               steps=3750, subset_n=2048,
                               layer_sizes=(784, 128, 64, 10)),
}

# Sweeps: (base preset, swept field, values).
SWEEPS = {
    "lr-robustness": ("mnist-default", "alpha0",
                      [0.01, 0.005, 0.001, 0.0005, 0.0001]),
    "lr-robustness-logistic": ("logistic-default", "alpha0",
                               [0.01, 0.005, 0.001, 0.0005, 0.0001]),
    "batch-size-impact": ("logistic-default", "batch_size", [4, 16, 64, 256]),
}

# Named in the experiment plan but deliberately not implemented here.
RESERVED_PRESETS = {
    "cifar-default": "reserved for the CIFAR experiment; not implemented",
}


def preset(name: str) -> RunConfig:
    if name in RESERVED_PRESETS:
        raise ConfigError(f"preset {name!r} is {RESERVED_PRESETS[name]}")
    if name not in PRESETS:
        if name in SWEEPS:
            raise ConfigError(f"{name!r} is a sweep; use the sweep command")
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}")
    return dataclasses.replace(PRESETS[name])

