"""Measurement, output checks and metrics for one benchmark run.

A run makes one untimed warm-up pass, then timed passes until its time is
up; each metric is the median over the timed passes. The warm-up pass's
trace digests are the reference that every later pass must reproduce
byte for byte. With tracing on, the first half of the time goes to
untraced passes and the rest to at most MAX_TRACED_PASSES traced ones,
each paired with an untraced pass run just before it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads
from rdbd import harness

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 21
MAX_TRACED_PASSES = 3
SCHEDULED = ("dbd", "rdbd", "adam_rdbd")

END_TO_END_UNITS = {"steps_per_s": "1/s", "cpu_us_per_step": "us/step",
                    "setup_s": "s", "peak_rss_mb": "MB", "final_loss": "loss",
                    "ok_ratio": "ratio", "failed_ratio": "ratio"}
SUFFIX_UNITS = (("calls_per_step", "1/step"), ("us_per_step", "us/step"),
                ("bytes_per_step", "B/step"), ("ratio", "ratio"))


def unit_of(metric):
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    parts = metric.split(".")
    return next(unit for suffix, unit in SUFFIX_UNITS
                if suffix in parts or parts[-1].endswith(suffix))


def machine_info(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "seed": seed}


def setup_time(workload, seed, cwd):
    """Seconds from the start of a fresh process to its `ready` line."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=cwd) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with code {proc.returncode}")
    return elapsed


def _digest(outcome, scratch):
    """sha256 of the run's trace CSV; written to `scratch` if it wrote none."""
    path = outcome.config.out
    if not path:
        ids = list(outcome.records[0].grad_norms)
        path = harness.write_trace_csv(outcome.records, ids, scratch)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_problems(outcome):
    """Reasons an outcome fails the output checks (empty when it passes)."""
    if outcome.error:
        return [outcome.error]
    records = outcome.records
    problems = []
    losses = [r.loss for r in records]
    full = [r.full_loss for r in records if r.full_loss is not None]
    if not all(math.isfinite(v) for v in losses + full):
        problems.append("non-finite loss")
    if harness.check_revert_flags(records):
        problems.append("revert flag without a sign flip")
    if not full or not full[-1] < full[0]:
        problems.append("final full_loss not below the first")
    return problems


class Checker:
    """Output checks over all passes of a run, against the first pass."""

    def __init__(self, scratch):
        self.scratch = scratch
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, outcomes, expected):
        digests = []
        n_ok = 0
        for i, outcome in enumerate(outcomes):
            problems = run_problems(outcome)
            digest = None if problems else _digest(outcome, self.scratch)
            if (self.reference is not None and digest is not None
                    and (i >= len(self.reference)
                         or digest != self.reference[i][1])):
                problems.append("trace digest differs from the first pass")
            if problems:
                self.failures.append((outcome.label, problems))
            else:
                n_ok += 1
            digests.append((outcome.label, digest))
        attempted = max(expected, len(outcomes))
        self.attempted += attempted
        self.failed += attempted - n_ok
        if self.reference is None:
            self.reference = digests


def _steps(outcomes):
    return sum(len(o.records) for o in outcomes if o.records)


def _timed_pass(workload, seed, traces_dir):
    c0, t0 = time.process_time(), time.perf_counter()
    outcomes = workloads.run_pass(workload, seed, traces_dir)
    return outcomes, time.perf_counter() - t0, time.process_time() - c0


def _layer_metrics(tracer, outcomes):
    """Per-layer numbers of one traced pass, each normalised per step."""
    stats, self_error = tracer.summary()
    steps = max(1, _steps(outcomes))
    out = {}
    for name, (calls, self_s) in stats.items():
        out[f"{name}.calls_per_step"] = calls / steps
        out[f"{name}.self_us_per_step"] = self_s / steps * 1e6
    out["problems.oracle_calls_per_step"] = sum(
        stats.get(f"problems.{n}", (0, 0.0))[0]
        for n in ("batch_loss", "minibatch_gradient")) / steps
    scheduled = reverts = 0
    written = 0
    for o in outcomes:
        if not o.records:
            continue
        if o.config.optimizer in SCHEDULED:
            for rec in o.records:
                scheduled += len(rec.reverted)
                reverts += sum(rec.reverted.values())
        if o.config.out and os.path.exists(o.config.out):
            written += os.path.getsize(o.config.out)
    out["schedulers.revert_ratio"] = reverts / scheduled if scheduled else 0.0
    out["harness.write_trace_csv.bytes_per_step"] = written / steps
    return out, self_error


def _median(values):
    return statistics.median(values) if values else math.nan


def _median_by_key(rows):
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def run_benchmark(workload, seed, seconds, trace, out_dir):
    """Measure one Workload; returns the result dict written to result.json."""
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True)
    checker = Checker(out_dir / "digest.csv")
    expected = len(workload.configs(seed, traces_dir))
    result = {"workload": workload.name, "seed": seed,
              "seconds": seconds, "trace": trace,
              "machine": machine_info(seed)}
    metrics = {}
    setup_samples = []
    if not trace:
        # This first probe fills the file cache and writes bytecode that
        # later processes reuse; it is not counted.
        setup_time(workload.name, seed, out_dir)

    start = time.perf_counter()
    outcomes, _, _ = _timed_pass(workload, seed, traces_dir)
    checker.check(outcomes, expected)
    final = [o.records[-1].full_loss for o in outcomes if o.records]
    steps_per_s, cpu_us_per_step, per_config = [], [], {}
    untraced_end = start + (seconds / 2 if trace else seconds)
    while True:
        outcomes, wall, cpu = _timed_pass(workload, seed, traces_dir)
        steps = _steps(outcomes)
        if steps:
            steps_per_s.append(steps / wall)
            cpu_us_per_step.append(cpu / steps * 1e6)
        for o in outcomes:
            if o.records:
                per_config.setdefault(o.label, []).append(
                    o.wall_s / len(o.records) * 1e6)
        checker.check(outcomes, expected)
        # Probes are spread over the run so they see the same load as the
        # passes; they run between passes, never during one.
        if not trace and len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_time(workload.name, seed, out_dir))
        if time.perf_counter() >= untraced_end:
            break
    while not trace and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_time(workload.name, seed, out_dir))

    if trace:
        layer_rows = []
        self_errors = []
        overheads = []
        spans_path = out_dir / "spans.csv"
        for i in range(MAX_TRACED_PASSES):
            # Each traced pass follows an untraced one, and the overhead is
            # the median ratio of such pairs, so slow drift in the
            # machine's speed cancels out.
            outcomes, untraced_wall, _ = _timed_pass(workload, seed,
                                                     traces_dir)
            checker.check(outcomes, expected)
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                outcomes, wall, _ = _timed_pass(workload, seed, traces_dir)
            overheads.append(wall / untraced_wall)
            checker.check(outcomes, expected)
            row, self_error = _layer_metrics(tracer, outcomes)
            layer_rows.append(row)
            self_errors.append(self_error)
            tracer.write_csv(spans_path, i)
            if time.perf_counter() >= start + seconds:
                break
        metrics.update(_median_by_key(layer_rows))
        for label, values in per_config.items():
            metrics[f"harness.run.us_per_step.{label}"] = _median(values)
        metrics["trace.overhead_ratio"] = statistics.median(overheads)
        result["self_time_error"] = max(self_errors)
        result["spans_csv"] = str(spans_path)
    else:
        result["setup_s_samples"] = setup_samples
        metrics["setup_s"] = _median(setup_samples)
        metrics["steps_per_s"] = _median(steps_per_s)
        metrics["cpu_us_per_step"] = _median(cpu_us_per_step)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["final_loss"] = _median(final)
    metrics["failed_ratio"] = checker.failed / checker.attempted
    metrics["ok_ratio"] = 1.0 - metrics["failed_ratio"]

    result.update(timed_passes=len(steps_per_s),
                  pass_steps_per_s=steps_per_s,
                  pass_cpu_us_per_step=cpu_us_per_step,
                  attempted=checker.attempted, failed=checker.failed,
                  failures=checker.failures[:20],
                  digests=checker.reference, metrics=metrics)
    result["correct"] = (checker.failed == 0
                         and result.get("self_time_error", 0.0) < 1e-9)
    with open(out_dir / "result.json", "w") as f:
        json.dump(result, f, indent=1)
    return result
