"""The benchmark's workloads and the code that runs one pass of each.

A pass is one closed loop over a workload's runs: each `harness.run`
starts when the previous one returns. The library is driven only through
its public entry points, `harness.run` and `cli.main`; the workload seed
becomes `RunConfig.seed`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from rdbd import cli, harness
from rdbd.harness import RunConfig

HERMETIC_PRESETS = ("quadratic-dbd", "rosenbrock-rdbd", "logistic-default",
                    "logistic-adam-rdbd", "mlp-blobs-demo")
COMPARE_OPTIMIZERS = ("sgd", "adam", "dbd", "rdbd", "adam_rdbd")
COMPARE_SEEDS = 2

# `mlp-blobs-demo` widened to the MNIST shape: the ROADMAP's 300-step config.
MLP_784 = RunConfig(problem="mlp-blobs", optimizer="rdbd", alpha0=0.005,
                    eta=0.01, batch_size=16, steps=300, n_samples=2048,
                    layer_sizes=(784, 128, 64, 10), problem_seed=7,
                    eval_every=25)


@dataclass(frozen=True)
class Workload:
    """A named set of runs.

    `configs(seed, out_dir)` lists the labelled runs one pass makes. When
    `argv` is set, the pass calls `cli.main(argv(seed))` instead, and
    `configs` lists the runs that command is expected to make.
    """

    name: str
    configs: Callable[[int, Path], list]
    argv: Callable[[int], list] | None = None


@dataclass
class RunOutcome:
    label: str
    config: RunConfig
    wall_s: float
    records: list | None
    error: str | None = None


def _mlp_784(seed, out_dir):
    return [("mlp-784", dataclasses.replace(MLP_784, seed=seed))]


def _hermetic(seed, out_dir):
    return [(name, dataclasses.replace(harness.preset(name), seed=seed,
                                       out=str(out_dir / f"{name}.csv")))
            for name in HERMETIC_PRESETS]


def _compare_configs(seed, out_dir):
    return [(f"logistic-{opt}", RunConfig(problem="logistic", optimizer=opt,
                                          seed=seed + k))
            for opt in COMPARE_OPTIMIZERS for k in range(COMPARE_SEEDS)]


def _compare_argv(seed):
    return ["compare", "--problem", "logistic",
            "--optimizers", ",".join(COMPARE_OPTIMIZERS),
            "--seeds", str(COMPARE_SEEDS), "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    # Heavy oracle: the two oracle calls per step and the full-dataset eval
    # dominate, so an oracle or eval change shows here and little elsewhere.
    Workload("mlp-784", _mlp_784),
    # Per-step overhead: tiny vectors, so object construction, scheduler
    # calls per group and run bookkeeping dominate. Covers the deterministic
    # no-sampler path, dbd, and trace writing.
    Workload("hermetic-presets", _hermetic),
    # Many short runs sharing one problem signature, no traces: the only path
    # through sgd_step, adam_step, compare and cli, and one build per run.
    Workload("compare-logistic", _compare_configs, _compare_argv),
)}


def distinct_problems(configs):
    """One config per distinct problem signature, in first-seen order."""
    seen = {}
    for _, cfg in configs:
        seen.setdefault(cfg.resolved().problem_signature(), cfg)
    return list(seen.values())


def run_pass(workload, seed, out_dir):
    """Run one pass; returns a RunOutcome per run that was started.

    A run that raises is recorded with its error and the pass goes on. A
    `cli.main` that stops early leaves fewer outcomes than `configs` lists.
    """
    outcomes = []
    if workload.argv is None:
        for label, cfg in workload.configs(seed, out_dir):
            try:
                _recorded_run(outcomes, label, harness.run, cfg)
            except Exception:  # recorded in outcomes; counted, not fatal
                pass
        return outcomes
    inner = harness.run
    harness.run = lambda cfg: _recorded_run(
        outcomes, f"{cfg.problem}-{cfg.optimizer}", inner, cfg)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(workload.argv(seed))
    except Exception as exc:  # counted as a failed run, not fatal
        status = repr(exc)
    finally:
        harness.run = inner
    if status != 0 and not any(o.error for o in outcomes):
        outcomes.append(RunOutcome("cli", RunConfig(), 0.0, None,
                                   f"cli.main exited with {status}"))
    return outcomes


def _recorded_run(outcomes, label, run, config):
    """`run(config)`; its RunOutcome is appended to `outcomes` even on error."""
    t0 = time.perf_counter()
    try:
        records = run(config)
    except Exception as exc:
        outcomes.append(RunOutcome(label, config, time.perf_counter() - t0,
                                   None, repr(exc)))
        raise
    outcomes.append(RunOutcome(label, config, time.perf_counter() - t0,
                               records))
    return records
