import dataclasses
import gzip
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rdbd import harness
from rdbd.cli import main, parse_config_file
from rdbd.data import Dataset
from rdbd.harness import (ConfigError, MissingDataError, NumericError,
                          OPTIMIZERS, PRESETS, RunConfig, SWEEPS, Trace,
                          check_alpha_envelope, check_revert_flags, compare,
                          config_grid, emit_plot_data, metric_value, preset,
                          run, trace_columns, write_trace_csv)
from rdbd.schedulers import AdamState, FlatSchedule
from reference import mnist_subset, serialize_idx

ROOT = Path(__file__).resolve().parent.parent
QUICK = RunConfig(problem="logistic", optimizer="rdbd", alpha0=0.005,
                  eta=0.01, batch_size=16, steps=120, seed=1, n_samples=256,
                  dim=8, problem_seed=3, eval_every=25)


@pytest.mark.parametrize("setting, text", [
    (dict(eta=math.inf), "eta must be finite"),
    (dict(eta=-1e-3), "eta must be >= 0"),
    (dict(alpha_min=1.0, alpha_max=0.5), "alpha_min must be <= alpha_max"),
    (dict(alpha_min=math.nan), "alpha_min must not be NaN"),
    (dict(alpha_max=math.nan), "alpha_max must not be NaN"),
    (dict(alpha_min=math.inf), "alpha_min must not be +inf"),
    (dict(alpha_min=-math.inf, alpha_max=-math.inf),
     "alpha_max must not be -inf"),
    (dict(beta1=1.0), "beta1 must lie in [0, 1)"),
    (dict(beta2=-0.1), "beta2 must lie in [0, 1)"),
    (dict(eps_hat=math.nan), "eps_hat must be finite and > 0"),
], ids=["eta-finite", "eta-sign", "alpha-bounds", "alpha_min-nan",
        "alpha_max-nan", "alpha_min-inf", "alpha_max-minus-inf", "beta1",
        "beta2", "eps_hat"])
def test_resolved_reports_the_rule_of_the_kernel(setting, text):
    cfg = dataclasses.replace(QUICK.resolved(), **setting)
    with pytest.raises(ValueError) as kernel:
        FlatSchedule((), 0, cfg.alpha0, cfg.eta, cfg.alpha_min, cfg.alpha_max,
                     "rdbd")
        AdamState(0, cfg.beta1, cfg.beta2, cfg.eps_hat)
    with pytest.raises(ConfigError) as config:
        cfg.resolved()
    assert str(config.value) == str(kernel.value) == text


@pytest.mark.parametrize("flag", ["--alpha-min", "--alpha-max"])
def test_cli_names_a_nan_rate_bound(capsys, flag):
    assert main(["run", "--problem", "logistic", "--steps", "3", flag,
                 "nan"]) == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == \
        f"config error: {name} must not be NaN\n"


@pytest.mark.parametrize("flags, text", [
    (["--alpha-min=inf"], "alpha_min must not be +inf"),
    (["--alpha-max=-inf", "--alpha-min=-inf"], "alpha_max must not be -inf"),
    (["--optimizer", "sgd", "--alpha-min=inf"], "alpha_min must not be +inf"),
], ids=["alpha_min", "alpha_max", "sgd"])
def test_cli_rejects_an_infinite_rate_bound_on_the_wrong_side(capsys, flags,
                                                              text):
    # Every rule checks the bounds, a fixed rate that never reads them too.
    assert main(["run", "--steps", "3", *flags]) == 2
    assert capsys.readouterr().err == f"config error: {text}\n"


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig(steps=0).resolved()
    with pytest.raises(ConfigError):
        RunConfig(batch_size=0).resolved()
    with pytest.raises(ConfigError):
        RunConfig(optimizer="adamw").resolved()
    with pytest.raises(ConfigError):
        RunConfig(problem="cifar").resolved()
    with pytest.raises(ConfigError):
        RunConfig(alpha0=math.nan).resolved()
    with pytest.raises(ConfigError):
        RunConfig(eta=-0.1).resolved()
    with pytest.raises(ConfigError):
        RunConfig(alpha_min=1.0, alpha_max=0.5).resolved()


@pytest.mark.parametrize("optimizer, eta, max_ratio", [
    ("sgd", 0.0, math.inf), ("adam", 0.0, math.inf), ("dbd", 0.01, math.inf),
    ("rdbd", 0.01, math.inf), ("adam_rdbd", 5e-7, 10.0),
], ids=["sgd", "adam", "dbd", "rdbd", "adam_rdbd"])
def test_optimizer_defaults_resolution(optimizer, eta, max_ratio):
    for alpha0 in (0.005, 0.003):
        cfg = RunConfig(optimizer=optimizer, alpha0=alpha0).resolved()
        assert (cfg.eta, cfg.alpha_max) == (eta, max_ratio * alpha0)
    cfg = RunConfig(optimizer=optimizer, eta=0.02, alpha_max=0.3).resolved()
    assert (cfg.eta, cfg.alpha_max) == (0.02, 0.3)
    # A default alpha_max scales alpha0, so a bad alpha0 must still be
    # reported as itself, not as the bound it would make.
    for alpha0, text in ((math.nan, "alpha0 must be finite"),
                         (math.inf, "alpha0 must be finite"),
                         (0.0, "alpha0 must be > 0"),
                         (-0.1, "alpha0 must be > 0")):
        with pytest.raises(ConfigError) as exc:
            RunConfig(optimizer=optimizer, alpha0=alpha0).resolved()
        assert str(exc.value) == text


def test_run_is_deterministic_and_csv_bytes_match(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    run(dataclasses.replace(QUICK, out=str(p1)))
    run(dataclasses.replace(QUICK, out=str(p2)))
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_contents_single_vector(tmp_path):
    records = run(QUICK)
    assert len(records) == 120
    steps = records.step.tolist()
    assert steps == list(range(1, 121))
    # full loss present exactly on eval steps and the final step
    assert (~np.isnan(records.full_loss)).tolist() == [
        s % 25 == 0 or s == 120 for s in steps]
    assert check_revert_flags(records) == []
    path = tmp_path / "t.csv"
    write_trace_csv(records, records.ids, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "step,loss,full_loss,grad_norm,alpha,h,reverted"


def test_trace_multi_vector_columns(tmp_path):
    cfg = RunConfig(problem="mlp-blobs", optimizer="rdbd", steps=30,
                    n_samples=64, layer_sizes=(6, 5, 3), batch_size=8,
                    seed=2, problem_seed=5, eval_every=10)
    records = run(cfg)
    ids = list(records.ids)
    assert ids == ["W1", "b1", "W2", "b2"]
    path = tmp_path / "m.csv"
    write_trace_csv(records, ids, str(path))
    header = path.read_text().splitlines()[0].split(",")
    assert "alpha.W1" in header and "reverted.b2" in header
    # independent per-vector schedules diverge
    alphas = records.alpha[-1].tolist()
    assert len({round(a, 12) for a in alphas}) > 1


@pytest.mark.parametrize("ids", [["b1", "W1", "W2", "b2"], ["W1", "b1"],
                                 ["W1", "b1", "W2", "b2", "W3"]],
                         ids=["reordered", "subset", "extra"])
def test_write_trace_csv_rejects_ids_that_are_not_the_traces(tmp_path, ids):
    cfg = RunConfig(problem="mlp-blobs", optimizer="rdbd", steps=3,
                    n_samples=64, layer_sizes=(6, 5, 3), batch_size=8)
    records = run(cfg)
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="are not the trace's group ids"):
        write_trace_csv(records, ids, str(path))
    assert not path.exists()


def test_trace_is_one_float64_array_in_csv_column_order(tmp_path):
    path = tmp_path / "t.csv"
    cfg = dataclasses.replace(QUICK, problem="mlp-blobs", n_samples=64,
                              layer_sizes=(6, 5, 3), batch_size=8, steps=30,
                              eval_every=10, out=str(path))
    trace = run(cfg)
    assert trace.ids == ("W1", "b1", "W2", "b2")
    assert trace.data.shape == (30, 3 + 4 * 4) and trace.data.dtype == np.float64
    assert len(trace) == trace.n == 30
    lines = path.read_text().splitlines()[1:]
    written = [[float(c) if c else math.nan for c in line.split(",")]
               for line in lines]
    assert np.array_equal(written, trace.rows, equal_nan=True)
    assert np.isnan(trace.full_loss).tolist() == [
        t % 10 != 0 for t in range(1, 31)]
    assert set(trace.reverted.ravel().tolist()) <= {0.0, 1.0}


def test_trace_row_view_is_the_benchmarks_contract():
    """Exactly the reads the benchmark makes of `TraceRecord` row views, on
    a multi-group run: group ids from the first row's `grad_norms`, every
    row's `loss` and `full_loss`, the last row's `full_loss`, the
    `reverted` flags, the length, and iteration. Nothing else reads rows."""
    cfg = dataclasses.replace(QUICK, problem="mlp-blobs", n_samples=64,
                              layer_sizes=(6, 5, 3), batch_size=8, steps=30,
                              eval_every=10)
    t = run(cfg)
    assert {name for name in dir(t[0]) if not name.startswith("_")} == {
        "loss", "full_loss", "grad_norms", "reverted"}
    assert list(t[0].grad_norms) == list(t.ids) == ["W1", "b1", "W2", "b2"]
    assert list(t[0].grad_norms.values()) == t.grad_norm[0].tolist()
    assert [r.loss for r in t] == t.loss.tolist()
    # full_loss is None exactly off the eval steps, and the eval otherwise.
    assert [r.full_loss for r in t] == [
        None if s % 10 else f
        for s, f in zip(range(1, 31), t.full_loss.tolist())]
    assert t[-1].full_loss == t.full_loss[-1]
    flags = [r.reverted for r in t]
    assert all(list(f) == list(t.ids) for f in flags)
    assert all(type(v) is bool for f in flags for v in f.values())
    assert sum(sum(f.values()) for f in flags) == t.reverted.sum() > 0
    assert len(t) == 30
    with pytest.raises(AttributeError):
        t[-1].loss = 0.0
    # Iteration follows len: a truncated trace stops at its n.
    t.n = 7
    assert len(t) == len(list(t)) == 7
    assert [r.loss for r in t] == t.data[:7, 1].tolist()


def test_trace_equality_is_ids_and_written_rows():
    def trace(ids, capacity, rows):
        t = Trace(ids, capacity)
        for loss in rows:
            t.data[t.n] = ([t.n + 1, loss, math.nan]
                           + [1.0, 0.5, 0.0, 0.0] * len(ids))
            t.n += 1
        return t

    a = trace(["x"], 3, [1.0, 2.0])
    assert a == trace(["x"], 2, [1.0, 2.0])     # NaN full losses are equal
    assert a != trace(["y"], 3, [1.0, 2.0])
    assert a != trace(["x"], 3, [1.0, 2.0, 3.0])
    assert a != trace(["x"], 3, [1.0, 2.5])
    b = trace(["x"], 3, [1.0, 2.0])
    b.data[1, 2] = 0.25
    assert a != b and a != a.rows.tolist()


def test_trace_checks_find_the_rows_a_per_row_check_finds():
    """The column checks against their per-row definition, on a trace
    with planted revert flags and rates outside the envelope."""
    cfg = dataclasses.replace(QUICK, problem="mlp-blobs", n_samples=64,
                              layer_sizes=(6, 5, 3), batch_size=8, steps=40,
                              alpha_min=-math.inf)
    trace = run(cfg)
    assert check_revert_flags(trace) == []
    assert check_alpha_envelope(trace, cfg.alpha0, cfg.resolved().eta) == []
    trace.reverted[[0, 7, 7, 20], [1, 0, 3, 2]] = 1.0
    trace.h[11:13, 1] = 1.0, -1.0
    trace.reverted[12, 1] = 1.0                # a genuine sign flip
    trace.alpha[[3, 30], [2, 0]] = [1.0, -1.0]
    flags, outside = [], []
    prev_h = dict.fromkeys(trace.ids, 0.0)
    gmax = {i: max(norms)
            for i, norms in zip(trace.ids, trace.grad_norm.T.tolist())}
    for step, hs, alphas, reverted in zip(
            trace.step.astype(int).tolist(), trace.h.tolist(),
            trace.alpha.tolist(), trace.reverted.tolist()):
        for i, h, alpha, flag in zip(trace.ids, hs, alphas, reverted):
            if flag and not h * prev_h[i] < 0.0:
                flags.append((step, i))
            prev_h[i] = h
            drift = step * cfg.resolved().eta * gmax[i] ** 2
            if not (cfg.alpha0 - drift - 1e-10 <= alpha
                    <= cfg.alpha0 + drift + 1e-10):
                outside.append((step, i))
    assert (1, "b1") in flags and (13, "b1") not in flags
    assert check_revert_flags(trace) == flags
    assert outside == [(4, "W2"), (31, "W1")]
    assert check_alpha_envelope(trace, cfg.alpha0, cfg.resolved().eta) == outside


def test_a_trace_holds_its_array_and_little_else():
    import gc
    import tracemalloc

    cfg = preset("logistic-default")
    run(cfg)    # fills the dataset cache and every lazy import
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == cfg.steps == 2000
    assert held <= cfg.steps * len(trace_columns(trace.ids)) * 8 + 16384


def test_a_logistic_n_samples_below_dim_fails_before_any_data(tmp_path):
    # resolved() applies LogisticProblem's shape rule, so neither a run nor
    # a compare draws the 100 x 50000 matrix (40 MB) or caches it first.
    cfg = RunConfig(problem="logistic", n_samples=100, dim=50000,
                    batch_size=4, steps=5)
    out = tmp_path / "c.csv"
    tracemalloc.start()
    try:
        for call in (lambda: run(cfg), lambda: harness.build_problem(cfg),
                     lambda: compare(cfg, ["rdbd", "dbd"], 2, out=str(out))):
            with pytest.raises(ConfigError,
                               match=r"^logistic needs n_samples >= dim$"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert not out.exists()


def test_alpha_envelope_checker_on_unclamped_runs():
    for opt in ("dbd", "rdbd"):
        cfg = dataclasses.replace(QUICK, optimizer=opt, alpha_min=-math.inf)
        records = run(cfg)
        assert check_alpha_envelope(records, cfg.alpha0, cfg.eta) == []


def test_sgd_and_adam_have_constant_alpha():
    for opt in ("sgd", "adam"):
        records = run(dataclasses.replace(QUICK, optimizer=opt))
        assert records.ids == ("x",)
        assert (records.alpha == QUICK.alpha0).all()
        assert not records.reverted.any()


def test_compare_identical_configs_identical_rows():
    rows_a, winner_a = compare(QUICK, ["sgd", "rdbd"], 3, metric="final_loss")
    rows_b, winner_b = compare(QUICK, ["sgd", "rdbd"], 3, metric="final_loss")
    assert winner_a == winner_b
    assert [(r.optimizer, r.median, r.iqr, r.values) for r in rows_a] == \
           [(r.optimizer, r.median, r.iqr, r.values) for r in rows_b]


def test_compare_rejects_a_bad_grid():
    with pytest.raises(ConfigError, match="at least one optimizer"):
        compare(QUICK, [], 2)
    with pytest.raises(ConfigError, match="at least one optimizer"):
        compare(QUICK, ["sgd", "rdbd"], 0)
    with pytest.raises(ConfigError, match="must not repeat"):
        compare(QUICK, ["sgd", "rdbd", "sgd"], 2)


def test_compare_checks_every_input_before_the_first_run(tmp_path,
                                                          monkeypatch):
    from rdbd import harness

    runs = []
    monkeypatch.setattr(harness, "run", runs.append)
    out = tmp_path / "d"
    with pytest.raises(ConfigError, match="unknown metric"):
        compare(QUICK, ["rdbd"], 1, metric="accuracy", out=str(out) + os.sep)
    with pytest.raises(ConfigError, match="must not repeat"):
        compare(QUICK, ["rdbd", "rdbd"], 2, out=str(out) + os.sep)
    assert runs == []
    assert not out.exists()


def test_compare_carries_eta_and_alpha_max_to_the_base_optimizer_only(
        tmp_path, monkeypatch, capsys):
    from rdbd import harness

    runs = []
    monkeypatch.setattr(harness, "run", lambda cfg: runs.append(cfg) or run(cfg))
    compare(dataclasses.replace(QUICK, eta=0.02, alpha_max=0.05),
            ["rdbd", "dbd", "adam_rdbd"], 2)
    lib_runs = list(runs)
    assert [(c.optimizer, c.seed) for c in lib_runs] == [
        (opt, s) for opt in ("rdbd", "dbd", "adam_rdbd") for s in (1, 2)]
    expected = {"rdbd": (0.02, 0.05), "dbd": (0.01, math.inf),
                "adam_rdbd": (5e-7, 10 * QUICK.alpha0)}
    assert all((c.eta, c.alpha_max) == expected[c.optimizer]
               for c in lib_runs)
    assert all(c.out is None for c in lib_runs)

    runs.clear()
    path = tmp_path / "quick.cfg"
    path.write_text("".join(f"{k} = {getattr(QUICK, k)}\n" for k in (
        "problem", "optimizer", "alpha0", "batch_size", "steps", "seed",
        "n_samples", "dim", "problem_seed", "eval_every")))
    assert main(["compare", "--config", str(path), "--eta", "0.02",
                 "--alpha-max", "0.05", "--optimizers", "rdbd,dbd,adam_rdbd",
                 "--seeds", "2"]) == 0
    capsys.readouterr()
    assert runs == lib_runs


def test_compare_calls_the_module_level_run_once_per_cell(monkeypatch,
                                                           capsys):
    # The benchmark counts compare's runs by patching harness.run.
    from rdbd import harness

    calls = []

    def counting_run(cfg):
        calls.append((cfg.optimizer, cfg.seed))
        return run(cfg)

    monkeypatch.setattr(harness, "run", counting_run)
    grid = [(opt, s) for opt in ("sgd", "adam", "rdbd") for s in (1, 2)]
    compare(QUICK, ["sgd", "adam", "rdbd"], 2)
    assert len(calls) == 6 and calls == grid
    calls.clear()
    assert main(["compare", "--problem", "logistic", "--steps", "30",
                 "--seed", "1", "--optimizers", "sgd,adam,rdbd",
                 "--seeds", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == 6 and calls == grid


def test_config_grid_cells():
    base = dataclasses.replace(QUICK, eta=0.02, alpha_max=0.05, out="t.csv")
    cells = config_grid(base, ["rdbd", "sgd", "adam_rdbd"], 2, "alpha0",
                        [0.1, 0.2])
    assert [(c.alpha0, c.optimizer, c.seed) for c in cells] == [
        (a, opt, s) for a in (0.1, 0.2)
        for opt in ("rdbd", "sgd", "adam_rdbd") for s in (1, 2)]
    # eta and alpha_max carry over to the base optimizer only, and the
    # adam_rdbd default cap follows the axis value of its own cell.
    assert [(c.eta, c.alpha_max) for c in cells if c.alpha0 == 0.2] == \
        [(0.02, 0.05)] * 2 + [(0.0, math.inf)] * 2 + [(5e-7, 2.0)] * 2
    assert all(c.out is None and c == c.resolved() for c in cells)
    # Without an axis the grid is optimizer x seed.
    assert config_grid(QUICK, ["rdbd", "sgd"], 1) == [
        dataclasses.replace(QUICK).resolved(),
        dataclasses.replace(QUICK, optimizer="sgd", eta=None).resolved()]
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        config_grid(dataclasses.replace(QUICK, seed=-1), ["rdbd"], 1)
    with pytest.raises(ConfigError, match="batch_size must be >= 1"):
        config_grid(QUICK, ["rdbd"], 1, "batch_size", [4, 0])


def test_metric_values():
    records = run(QUICK)
    final = metric_value(records, "final_loss")
    assert final == records.full_loss[-1]
    steps = metric_value(records, "steps_to_threshold", threshold=final + 1.0)
    assert steps == 25.0  # first eval step already under a generous threshold
    assert metric_value(records, "steps_to_threshold", threshold=-1.0) == math.inf
    gmin = metric_value(records, "min_grad_norm")
    assert gmin <= records.grad_norm[:, 0].min() + 1e-15
    with pytest.raises(ConfigError):
        metric_value(records, "accuracy")


def test_a_finite_direction_whose_squares_overflow_keeps_a_finite_norm(
        tmp_path, capsys):
    # Noise of 1e160 per entry: each entry is finite, its square is not.
    path = tmp_path / "huge-noise.cfg"
    path.write_text("problem = logistic\noptimizer = sgd\nsteps = 3\n"
                    "grad_noise = 1e160\n")
    cfg = parse_config_file(str(path))
    trace = run(cfg)
    norms = trace.grad_norm[:, 0]
    assert np.isfinite(norms).all() and norms.min() > 1e160
    noise = np.random.default_rng(cfg.problem_seed + 1)
    noise.uniform()
    first = noise.uniform(-cfg.grad_noise, cfg.grad_noise, cfg.dim)
    assert math.isclose(norms[0], math.hypot(*first.tolist()), rel_tol=1e-12)
    assert metric_value(trace, "min_grad_norm") == norms.min()
    assert check_alpha_envelope(trace, cfg.alpha0, 0.0) == []
    assert main(["compare", "--config", str(path), "--optimizers", "sgd",
                 "--seeds", "2", "--metric", "min_grad_norm"]) == 0
    assert "winner by min_grad_norm: sgd" in capsys.readouterr().out


def test_trace_readers_take_a_norm_whose_square_overflows():
    trace = run(QUICK)
    least = metric_value(trace, "min_grad_norm")
    trace.grad_norm[5, 0] = 2e160
    assert metric_value(trace, "min_grad_norm") == least
    assert check_alpha_envelope(trace, QUICK.alpha0, QUICK.eta) == []


def test_emit_plot_data_shape_and_round_trip(tmp_path):
    records = run(QUICK)
    path = tmp_path / "plot.csv"
    rows = emit_plot_data([("run0", records)], str(path))
    evals = int((~np.isnan(records.full_loss)).sum())
    assert rows == 2 * len(records) + evals
    lines = path.read_text().splitlines()
    assert lines[0] == "run_id,step,series,value"
    assert len(lines) == 1 + rows
    # round trip: min of the loss series matches the trace
    losses = [float(l.split(",")[3]) for l in lines[1:]
              if l.split(",")[2] == "loss"]
    assert min(losses) == records.loss.min()
    # sparse series are filtered, not written as blanks
    assert sum(l.split(",")[2] == "full_loss" for l in lines[1:]) == evals
    with pytest.raises(ConfigError):
        emit_plot_data([], str(path))


def test_emit_plot_data_labels_each_group_of_a_multi_group_trace(tmp_path):
    cfg = dataclasses.replace(QUICK, problem="mlp-blobs", n_samples=64,
                              layer_sizes=(6, 5, 3), batch_size=8, steps=30,
                              eval_every=10)
    trace = run(cfg)
    path = tmp_path / "plot.csv"
    rows = emit_plot_data([("mlp", trace)], str(path))
    assert rows == 30 * (1 + 4) + 3
    cells = [line.split(",") for line in path.read_text().splitlines()[1:]]
    labels = ["alpha.W1", "alpha.b1", "alpha.W2", "alpha.b2"]
    alphas = [c for c in cells if c[2].startswith("alpha")]
    assert [c[2] for c in alphas] == labels * 30
    assert [int(c[1]) for c in alphas] == [t for t in range(1, 31)
                                           for _ in labels]
    assert [float(c[3]) for c in alphas] == trace.alpha.ravel().tolist()
    assert {c[2] for c in cells} == {"loss", "full_loss", *labels}


def test_presets_and_reserved():
    cfg = preset("logistic-default")
    assert cfg.steps == 2000 and cfg.alpha0 == 0.005 and cfg.eta == 0.01
    cfg.steps = 10
    assert preset("logistic-default").steps == 2000  # copies are isolated
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("imagenet")


@pytest.mark.parametrize("name, axis, values", [
    ("lr-robustness-logistic", "alpha0", [0.01, 0.005, 0.001, 0.0005, 0.0001]),
    ("batch-size-impact", "batch_size", [4, 16, 64, 256]),
])
def test_sweep_runs_its_preset_over_the_axis(tmp_path, monkeypatch, capsys,
                                             name, axis, values):
    from rdbd import cli

    runs = []

    def recorded_run(cfg):
        runs.append(cfg)
        trace = Trace(["x"], 1)
        trace.data[0] = 1, 1.0, 1.0, 1.0, cfg.alpha0, 0.0, 0.0
        trace.n = 1
        return trace

    monkeypatch.setattr(cli, "run", recorded_run)
    assert main(["sweep", "--preset", name, "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    labels = [f"{axis}={v}" for v in values]
    assert runs == [dataclasses.replace(
        preset("logistic-default"), seed=3, **{axis: v},
        out=str(tmp_path / f"{name}__{axis}_{v}.csv")).resolved()
        for v in values]
    assert [line.split(":")[0] for line in
            capsys.readouterr().out.splitlines()[:-1]] == labels


def test_cli_sweep_rejects_an_unknown_sweep(tmp_path, capsys):
    out = tmp_path / "new"
    assert main(["sweep", "--preset", "momentum-sweep",
                 "--out", str(out) + os.sep]) == 2
    assert capsys.readouterr().err == (
        "config error: unknown sweep 'momentum-sweep'; known sweeps: "
        "batch-size-impact, lr-robustness, lr-robustness-logistic\n")
    assert not out.exists()


def test_cli_sweep_with_a_bad_setting_makes_no_directory(tmp_path, capsys):
    out = tmp_path / "new"
    assert main(["sweep", "--preset", "lr-robustness-logistic",
                 "--seed", "-1", "--out", str(out) + os.sep]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0\n"
    assert not out.exists()


def test_numeric_failure_aborts_and_flushes(tmp_path):
    # A huge fixed rate blows the banana-valley iterates up to overflow.
    path = tmp_path / "diverge.csv"
    cfg = RunConfig(problem="rosenbrock", optimizer="sgd", alpha0=1.0,
                    steps=200, batch_size=1, out=str(path))
    with pytest.raises(NumericError):
        run(cfg)
    assert path.exists()
    assert len(path.read_text().splitlines()) > 1


def _write_synthetic_mnist(directory, n=80):
    """Fabricated 28x28 MNIST IDX files: n images (gzipped) and labels."""
    rng = np.random.default_rng(6)
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    labels = (np.arange(n) % 10).astype(np.uint8)
    (directory / "train-images-idx3-ubyte.gz").write_bytes(
        gzip.compress(serialize_idx(images)))
    (directory / "train-labels-idx1-ubyte").write_bytes(serialize_idx(labels))
    return images, labels


def test_mnist_pipeline_with_synthetic_idx_files(tmp_path, monkeypatch):
    # Fabricated 28x28 IDX files exercise the full real-data wiring:
    # loader -> stratified subset -> network problem -> trace.
    monkeypatch.delenv("MNIST_DIR", raising=False)
    _write_synthetic_mnist(tmp_path)
    cfg = dataclasses.replace(preset("mnist-default"), steps=8, n_samples=40,
                              mnist_dir=str(tmp_path), eval_every=4)
    records = run(cfg)
    assert len(records) == 8
    assert list(records.ids) == ["W1", "b1", "W2", "b2", "W3", "b3"]
    assert not math.isnan(records.full_loss[-1])


def test_mnist_subset_converts_only_its_rows(tmp_path):
    images, labels = _write_synthetic_mnist(tmp_path, n=3000)
    cfg = dataclasses.replace(preset("mnist-default"), n_samples=256,
                              problem_seed=4, mnist_dir=str(tmp_path))
    tracemalloc.start()
    try:
        dataset = harness.build_problem(cfg).dataset
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = Dataset(images.reshape(3000, -1).astype(np.float64) / 255.0,
                   labels, 10)
    expected = mnist_subset(full, 256, 4)
    assert dataset.features.tobytes() == expected.features.tobytes()
    assert np.array_equal(dataset.labels, expected.labels)
    assert peak < full.features.nbytes


def test_a_large_quadratic_builds_without_a_dense_matrix():
    tracemalloc.start()
    try:
        problem = harness.build_problem(RunConfig(problem="quadratic",
                                                  dim=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20          # a 2000 x 2000 float64 matrix is 32 MB
    assert problem.dim == 2000 and problem.L == 2000.0


def test_mnist_runs_share_one_read_only_subset(tmp_path):
    _write_synthetic_mnist(tmp_path)
    cfg = dataclasses.replace(preset("mnist-default"), n_samples=40,
                              mnist_dir=str(tmp_path))
    first = harness.build_problem(cfg)
    again = harness.build_problem(dataclasses.replace(cfg, seed=cfg.seed + 1))
    assert again.dataset is first.dataset
    assert not first.dataset.features.flags.writeable
    assert not first.dataset.labels.flags.writeable
    other = harness.build_problem(dataclasses.replace(
        cfg, problem_seed=cfg.problem_seed + 1))
    assert other.dataset is not first.dataset
    assert not np.array_equal(other.dataset.features, first.dataset.features)


@pytest.mark.parametrize("settings", [
    "n_samples = 81\n",                        # above the file's 80 rows
    "n_samples = 9\nbatch_size = 4\n",         # below the 10 classes
    "n_samples = 40\nlayer_sizes = 100,32,10\n",
    "n_samples = 40\nlayer_sizes = 784,32,9\n",
], ids=["above-rows", "below-classes", "input-width", "output-width"])
def test_bad_mnist_settings_exit_with_config_error(tmp_path, monkeypatch,
                                                   capsys, settings):
    monkeypatch.delenv("MNIST_DIR", raising=False)
    _write_synthetic_mnist(tmp_path)
    path = tmp_path / "bad.cfg"
    path.write_text("problem = mlp-mnist\n" + settings)
    assert main(["run", "--config", str(path), "--steps", "5",
                 "--mnist-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: mlp-mnist:")


def test_a_config_file_that_sets_subset_n_exits_2(tmp_path, capsys):
    # n_samples sizes every sampled problem, the MNIST subset included.
    _write_synthetic_mnist(tmp_path)
    path = tmp_path / "old.cfg"
    path.write_text("problem = mlp-mnist\nsubset_n = 40\n")
    assert main(["run", "--config", str(path), "--steps", "5",
                 "--mnist-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}:2: unknown key 'subset_n'\n")


@pytest.mark.parametrize("name, corrupt", [
    ("train-images-idx3-ubyte.gz",              # bad magic number
     lambda data: gzip.compress(b"\0\0\x09\x99" + gzip.decompress(data)[4:])),
    ("train-labels-idx1-ubyte",                 # 79 labels for 80 images
     lambda data: struct.pack(">II", 0x801, 79) + data[8:-1]),
    ("train-images-idx3-ubyte.gz",              # truncated gzip stream
     lambda data: data[:len(data) // 2]),
    ("train-labels-idx1-ubyte",                 # a label of 10
     lambda data: data[:-1] + bytes([10])),
], ids=["bad-magic", "count-mismatch", "truncated-gzip", "label-range"])
def test_corrupt_mnist_files_exit_with_config_error(tmp_path, monkeypatch,
                                                    capsys, name, corrupt):
    monkeypatch.delenv("MNIST_DIR", raising=False)
    _write_synthetic_mnist(tmp_path)
    path = tmp_path / name
    path.write_bytes(corrupt(path.read_bytes()))
    assert main(["run", "--preset", "mnist-default", "--steps", "2",
                 "--mnist-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: mlp-mnist:")


def test_an_unreadable_mnist_file_exits_with_config_error(tmp_path,
                                                         monkeypatch, capsys):
    # A chmod does not deny root a read, so the read itself fails here.
    monkeypatch.delenv("MNIST_DIR", raising=False)
    _write_synthetic_mnist(tmp_path)

    def denied(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "read_bytes", denied)
    assert main(["run", "--preset", "mnist-default", "--steps", "2",
                 "--mnist-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: mlp-mnist: [Errno 13] Permission denied")


def test_mnist_problem_reports_missing_data(tmp_path, monkeypatch):
    monkeypatch.delenv("MNIST_DIR", raising=False)
    cfg = dataclasses.replace(preset("mnist-default"), steps=5,
                              mnist_dir=str(tmp_path))
    with pytest.raises(MissingDataError):
        run(cfg)


def test_config_file_parsing(tmp_path):
    good = tmp_path / "run.cfg"
    good.write_text("# demo\nproblem = logistic\noptimizer=rdbd\n"
                    "alpha0 = 0.01\nbatch-size = 8\nlayer_sizes = 6,5,3\n")
    cfg = parse_config_file(str(good))
    assert cfg.problem == "logistic" and cfg.optimizer == "rdbd"
    assert cfg.alpha0 == 0.01 and cfg.batch_size == 8
    assert cfg.layer_sizes == (6, 5, 3)

    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("momentum = 0.9\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_key))

    bad_val = tmp_path / "bad2.cfg"
    bad_val.write_text("steps = soon\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_val))

    bad_line = tmp_path / "bad3.cfg"
    bad_line.write_text("steps 100\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_line))

    not_utf8 = tmp_path / "bad4.cfg"
    not_utf8.write_bytes(b"\xff\xfes\x00t\x00e\x00p\x00s\x00")  # UTF-16
    with pytest.raises(ConfigError, match="bad4.cfg: not UTF-8"):
        parse_config_file(str(not_utf8))


def test_an_unreadable_config_file_exits_2(tmp_path, monkeypatch, capsys):
    # A chmod does not deny root a read, so the open itself fails here.
    path = tmp_path / "run.cfg"
    path.write_text("steps = 3\n")

    def denied(name, *args, **kwargs):
        raise PermissionError(13, "Permission denied", name)

    monkeypatch.setattr("rdbd.cli.open", denied, raising=False)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot read config file {path}: "
        f"[Errno 13] Permission denied: '{path}'\n")


def test_config_file_sets_every_field(tmp_path):
    expected = RunConfig(
        problem="mlp-blobs", optimizer="adam_rdbd", alpha0=0.25, eta=1e-3,
        batch_size=4, steps=7, seed=3, alpha_min=0.125, alpha_max=2.5,
        eval_every=2, beta1=0.5, beta2=0.75, eps_hat=1e-6, n_samples=64,
        dim=5, problem_seed=9, separation=2.5, grad_noise=0.5,
        grad_noise_prob=0.25, layer_sizes=(6, 5, 3), mnist_dir="data/mnist",
        out="runs/t.csv")
    fields = dataclasses.fields(RunConfig)
    assert all(getattr(expected, f.name) != f.default for f in fields)
    lines = [f"{f.name.replace('_', '-')} = {getattr(expected, f.name)}"
             for f in fields if f.name != "layer_sizes"]
    path = tmp_path / "all.cfg"
    path.write_text("\n".join(lines + ["layer_sizes = 6x5x3"]) + "\n")
    cfg = parse_config_file(str(path))
    assert cfg == expected
    for f in fields:
        assert type(getattr(cfg, f.name)) is type(getattr(expected, f.name))


def test_cli_run_ok(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--problem", "logistic", "--optimizer", "rdbd",
                 "--steps", "60", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "run complete" in capsys.readouterr().out


def test_cli_takes_a_negative_value_in_the_equals_form(capsys):
    # argparse reads "-inf" after a space as an option, so README gives
    # negative values as --flag=value.
    assert main(["run", "--steps", "3", "--alpha-min=-inf"]) == 0
    assert "run complete" in capsys.readouterr().out


def test_module_entry_point_exits_with_the_cli_codes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "rdbd", *argv],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=env, timeout=120)

    bad = module("run", "--steps", "0")
    assert bad.returncode == 2
    assert bad.stderr == "config error: steps must be >= 1\n"
    ok = module("run", "--steps", "3")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("run complete:")


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    assert main(["run", "--preset", "imagenet"]) == 2
    assert main(["run", "--preset", "cifar-default"]) == 2
    monkeypatch.delenv("MNIST_DIR", raising=False)
    assert main(["run", "--preset", "mnist-default", "--steps", "5",
                 "--mnist-dir", str(tmp_path)]) == 3
    assert main(["run", "--problem", "rosenbrock", "--optimizer", "sgd",
                 "--alpha0", "1.0", "--steps", "200"]) == 4
    capsys.readouterr()


def test_cli_run_with_a_huge_steps_exits_2_before_step_1(tmp_path, capsys):
    # 2**62 rows is a trace shape numpy refuses without allocating.
    out = tmp_path / "new" / "t.csv"
    assert main(["run", "--steps", str(2 ** 62), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: steps={2 ** 62} is too large: "
                          f"its trace of {2 ** 62} rows x 7 float64 columns "
                          f"cannot be allocated (")
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()


# Each needs more than the 2**48 bytes a 64-bit address space can map, so
# no allocation succeeds on any machine. They fail in numpy's allocator
# (MemoryError) or its shape check (ValueError), while building the
# dataset or the weights.
@pytest.mark.parametrize("problem, setting", [
    ("quadratic", f"dim = {2 ** 46}"),
    ("logistic", f"n_samples = {10 ** 17}"),
    ("mlp-blobs", f"layer_sizes = 10,{2 ** 24},{2 ** 24},3"),
    ("mlp-blobs", f"layer_sizes = 10,{2 ** 32},{2 ** 32},3"),
], ids=["quadratic-dim", "logistic-samples", "mlp-width", "mlp-shape"])
def test_cli_run_with_a_problem_too_large_exits_2_before_step_1(
        tmp_path, capsys, problem, setting):
    path = tmp_path / "huge.cfg"
    path.write_text(f"problem = {problem}\n{setting}\n")
    out = tmp_path / "new" / "t.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {problem}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv, code", [
    (["compare", "--problem", "quadratic", "--steps", str(2 ** 62),
      "--optimizers", "sgd,rdbd", "--seeds", "1"], 2),
    (["compare", "--preset", "mnist-default", "--optimizers", "rdbd",
      "--seeds", "1"], 3),
    (["sweep", "--preset", "lr-robustness"], 3),
], ids=["compare-huge-steps", "compare-no-mnist", "sweep-no-mnist"])
def test_cli_failed_command_leaves_no_directory(tmp_path, monkeypatch,
                                                capsys, argv, code):
    monkeypatch.delenv("MNIST_DIR", raising=False)
    out = str(tmp_path / "new" / "a") + os.sep
    assert main(argv + ["--out", out]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_run_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("problem = logistic\noptimizer = sgd\nsteps = 40\n"
                   "n_samples = 128\ndim = 6\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--preset", "logistic-default"]) == 2
    capsys.readouterr()


def test_cli_run_out_directory_writes_trace_csv(tmp_path, capsys):
    argv = ["run", "--problem", "logistic", "--steps", "60", "--seed", "3",
            "--out"]
    assert main(argv + [str(tmp_path / "file.csv")]) == 0
    assert main(argv + [str(tmp_path / "new") + os.sep]) == 0
    (tmp_path / "existing").mkdir()
    assert main(argv + [str(tmp_path / "existing")]) == 0
    expected = (tmp_path / "file.csv").read_bytes()
    assert (tmp_path / "new" / "trace.csv").read_bytes() == expected
    assert (tmp_path / "existing" / "trace.csv").read_bytes() == expected
    assert f"trace written to {tmp_path / 'new' / 'trace.csv'}" in \
        capsys.readouterr().out


@pytest.mark.parametrize("taken", ["lr-robustness-logistic__plot.csv",
                                   "lr-robustness-logistic__alpha0_0.01.csv"])
def test_cli_sweep_checks_every_output_before_the_first_run(tmp_path, capsys,
                                                            taken):
    # A directory where the sweep would write one of its files.
    (tmp_path / taken).mkdir()
    assert main(["sweep", "--preset", "lr-robustness-logistic",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write")
    assert os.listdir(tmp_path) == [taken]
    assert os.listdir(tmp_path / taken) == []


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "rosenbrock", "--steps", "5", "--out", "{file}/x.csv"],
    ["sweep", "--preset", "lr-robustness-logistic", "--out", "{file}"],
    ["compare", "--problem", "rosenbrock", "--steps", "5", "--seeds", "1",
     "--out", "{file}/c.csv"],
])
def test_cli_unwritable_out_exits_with_config_error_before_any_step(
        tmp_path, monkeypatch, capsys, argv):
    from rdbd import harness

    build = harness.build_problem
    calls = []

    def counting_build(config):
        problem = build(config)
        oracle = problem.loss_and_grad

        def loss_and_grad(x, batch):
            calls.append(batch)
            return oracle(x, batch)

        monkeypatch.setattr(problem, "loss_and_grad", loss_and_grad)
        return problem

    monkeypatch.setattr(harness, "build_problem", counting_build)
    file = tmp_path / "file"
    file.write_text("kept\n")
    assert main([arg.format(file=file) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write")
    assert calls == []
    assert file.read_text() == "kept\n"


@pytest.mark.parametrize("name", ["a\x00b.csv", "a\x00b/c.csv"])
def test_out_with_a_nul_byte_is_a_config_error(tmp_path, monkeypatch, capsys,
                                               name):
    # Only a config file can carry a NUL byte; a command line cannot.
    cfg = tmp_path / "nul.cfg"
    cfg.write_text(f"problem = rosenbrock\nsteps = 5\nout = {tmp_path}/{name}\n")
    for argv in (["run"], ["compare", "--seeds", "1"]):
        assert main(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="cannot write"):
        run(RunConfig(problem="rosenbrock", steps=5, out=name))
    assert os.listdir(tmp_path) == ["nul.cfg"]


def test_run_and_compare_out_directory_name_their_file(tmp_path):
    run(dataclasses.replace(QUICK, out=str(tmp_path / "file.csv")))
    run(dataclasses.replace(QUICK, out=str(tmp_path)))
    assert (tmp_path / "trace.csv").read_bytes() == \
        (tmp_path / "file.csv").read_bytes()
    compare(QUICK, ["rdbd"], 1, out=str(tmp_path))
    assert (tmp_path / "comparison.csv").read_text().startswith("optimizer,")


def test_cli_compare(tmp_path, capsys):
    code = main(["compare", "--problem", "logistic", "--steps", "80",
                 "--optimizers", "sgd,rdbd", "--seeds", "2",
                 "--out", str(tmp_path) + os.sep])
    assert code == 0
    out = capsys.readouterr().out
    assert "winner by final_loss" in out
    assert (tmp_path / "comparison.csv").exists()


def test_compare_names_no_winner_when_no_median_is_finite(tmp_path, capsys):
    argv = ["compare", "--problem", "logistic", "--optimizers", "sgd,rdbd",
            "--seeds", "2", "--steps", "30", "--metric", "steps_to_threshold",
            "--threshold", "0.0001", "--out", str(tmp_path) + os.sep]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "no winner by steps_to_threshold: no optimizer reached 0.0001 " \
           "on every seed" in out
    assert not any(line.startswith("winner by") for line in out.splitlines())
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert [line.split(",")[:5] for line in lines[1:]] == [
        [opt, "steps_to_threshold", "inf", "inf", "2"]
        for opt in ("rdbd", "sgd")]
    rows, winner = compare(dataclasses.replace(QUICK, steps=30), ["sgd"], 1,
                           metric="steps_to_threshold", threshold=1e-4)
    assert winner is None and rows[0].median == math.inf


@pytest.mark.parametrize("metric", ["final_loss", "min_grad_norm"])
def test_compare_without_a_finite_median_names_no_threshold_its_metric_ignores(
        monkeypatch, capsys, metric):
    from rdbd import cli

    def infinite(base, optimizers, seeds, metric, threshold, out):
        return [harness.ComparisonRow(opt, metric, math.inf, math.inf,
                                      [math.inf] * seeds)
                for opt in optimizers], None

    monkeypatch.setattr(cli, "compare", infinite)
    assert main(["compare", "--problem", "logistic", "--optimizers",
                 "sgd,rdbd", "--seeds", "2", "--metric", metric]) == 0
    out = capsys.readouterr().out
    assert f"no winner by {metric}: no optimizer has a finite median" in out
    assert "reached" not in out and "0.5" not in out


@pytest.mark.parametrize("flags, code", [
    (["--problem", "rosenbrock", "--optimizer", "sgd", "--optimizers", "sgd",
      "--alpha0", "1.0", "--steps", "200"], 4),
    (["--preset", "mnist-default", "--steps", "5", "--mnist-dir", "{empty}"],
     3),
])
def test_failed_compare_leaves_no_comparison_csv(tmp_path, capsys, flags,
                                                 code):
    empty = tmp_path / "empty"
    empty.mkdir()
    flags = [f.format(empty=empty) for f in flags]
    out = tmp_path / "d"
    assert main(["compare", "--seeds", "1", "--out", str(out) + os.sep]
                + flags) == code
    assert not (out / "comparison.csv").exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    assert main(["compare", "--seeds", "1", "--out", str(kept)]
                + flags) == code
    assert kept.read_text() == "kept\n"
    capsys.readouterr()


def test_cli_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        SWEEPS, "tiny-demo",
        ("logistic-default", "alpha0", [0.01, 0.001]))
    monkeypatch.setitem(
        __import__("rdbd.harness", fromlist=["PRESETS"]).PRESETS,
        "logistic-default",
        dataclasses.replace(preset("logistic-default"), steps=50,
                            n_samples=128, dim=6))
    code = main(["sweep", "--preset", "tiny-demo", "--out", str(tmp_path)])
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    assert any(f.endswith("plot.csv") for f in files)
    assert sum(f.endswith(".csv") for f in files) == 3
    capsys.readouterr()


def test_cli_sweep_failure_flushes_partial_trace(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setitem(
        PRESETS, "rosenbrock-sgd",
        RunConfig(problem="rosenbrock", optimizer="sgd", steps=200,
                  batch_size=1))
    monkeypatch.setitem(SWEEPS, "tiny-diverge",
                        ("rosenbrock-sgd", "alpha0", [1.0]))
    code = main(["sweep", "--preset", "tiny-diverge", "--out", str(tmp_path)])
    assert code == 4
    assert "step 5: batch loss inf" in capsys.readouterr().err
    lines = (tmp_path / "tiny-diverge__alpha0_1.0.csv").read_text().splitlines()
    assert lines[0] == "step,loss,full_loss,grad_norm,alpha,h,reverted"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4]


@pytest.mark.parametrize("argv", [
    # A preset's eta still carries over to its own optimizer only.
    ["--preset", "logistic-default", "--optimizers", "sgd,adam"],
    ["--problem", "logistic", "--eta", "5.0", "--alpha-max", "0.1",
     "--optimizers", "rdbd,dbd"],
])
def test_cli_compare_accepts_eta_where_it_applies(capsys, argv):
    assert main(["compare", "--steps", "5", "--seeds", "1"] + argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, config_text", [
    (["run", "--problem", "logistic", "--batch-size", "5000"], None),
    (["run", "--problem", "mlp-blobs", "--batch-size", "3000"], None),
    (["run", "--preset", "mnist-default", "--batch-size", "4096"], None),
    (["run", "--alpha0", "-1", "--optimizer", "sgd"], None),
    (["run", "--alpha0", "0", "--optimizer", "sgd"], None),
    (["run"], "problem = quadratic\ndim = 0\n"),
    (["run"], "problem = logistic\ndim = 0\n"),
    (["run"], "problem = mlp-blobs\nlayer_sizes = 10,0,3\n"),
    (["run"], "problem = mlp-blobs\nlayer_sizes = 10\n"),
    (["run"], "problem = mlp-blobs\nn_samples = 2\nbatch_size = 1\n"
              "layer_sizes = 4,3\n"),
    (["run"], "problem = logistic\nn_samples = 10\nbatch_size = 4\n"),
    (["run"], "problem = logistic\ngrad_noise = 0.1\ngrad_noise_prob = 2\n"),
    (["run", "--seed", "-1"], None),
    (["compare", "--seed", "-4"], None),
    (["run"], "problem_seed = -3\n"),
    (["run"], "beta1 = 1.0\n"),
    (["run"], "beta2 = -0.1\n"),
    (["run"], "eps_hat = 0\n"),
    (["run"], "optimizer = adam\neps_hat = nan\n"),
    (["run"], "separation = nan\n"),
    (["run"], "grad_noise = nan\n"),
    (["run"], "grad_noise = -0.5\n"),
    (["compare", "--optimizers", "rdbd,rdbd", "--seeds", "2"], None),
    (["compare", "--metric", "steps_to_threshold", "--threshold", "nan"], None),
    # --eta and --alpha-max set only the base optimizer (rdbd here), which
    # --optimizers leaves out, so they would have no effect.
    (["compare", "--problem", "logistic", "--eta", "5.0", "--optimizers",
      "dbd", "--seeds", "1"], None),
    (["compare", "--problem", "logistic", "--alpha-max", "0.1",
      "--optimizers", "sgd,dbd", "--seeds", "1"], None),
    # Finite, but X'X overflows, so the logistic constant L cannot be had.
    (["run"], "problem = logistic\nseparation = 1e160\n"),
    # numpy cannot draw from a range 2 * grad_noise wide once that overflows
    (["run"], "problem = logistic\ngrad_noise = 1e308\n"),
    (["run"], "problem = quadratic\ngrad_noise = 1e308\n"),
])
def test_cli_bad_input_exits_with_config_error(tmp_path, capsys, argv,
                                                config_text):
    command, *flags = argv
    if config_text is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config_text)
        flags = ["--config", str(path)] + flags
    assert main([command, "--steps", "5"] + flags) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_run_makes_one_oracle_call_per_step(monkeypatch):
    from rdbd import harness

    calls = []
    build = harness.build_problem

    def counting_build(config):
        problem = build(config)
        oracle = problem.loss_and_grad

        def loss_and_grad(x, batch):
            calls.append(batch)
            return oracle(x, batch)

        monkeypatch.setattr(problem, "loss_and_grad", loss_and_grad)
        return problem

    monkeypatch.setattr(harness, "build_problem", counting_build)
    for cfg in (QUICK, dataclasses.replace(QUICK, grad_noise=0.2),
                preset("quadratic-dbd")):
        calls.clear()
        records = run(dataclasses.replace(cfg, steps=40))
        assert len(records) == 40
        assert len(calls) == 40


@pytest.mark.parametrize("cfg", [
    dataclasses.replace(preset("quadratic-dbd"), grad_noise=0.5,
                        grad_noise_prob=0.25, eval_every=1),
    dataclasses.replace(QUICK, grad_noise=0.3, grad_noise_prob=0.5),
    dataclasses.replace(preset("mlp-blobs-demo"), grad_noise=0.2,
                        grad_noise_prob=1.0),
])
def test_run_adds_replayable_gradient_noise(monkeypatch, cfg):
    # run draws one gate per step from a stream seeded problem_seed + 1,
    # then one uniform(-grad_noise, grad_noise) vector when the gate opens;
    # the eval draws nothing. A reference stream replays every SGD step.
    from rdbd import harness

    calls = []
    build = harness.build_problem

    def recording_build(config):
        problem = build(config)
        oracle = problem.loss_and_grad

        def loss_and_grad(x, batch):
            loss, grad = oracle(x, batch)
            calls.append((x.copy(), grad, grad.copy()))
            return loss, grad

        monkeypatch.setattr(problem, "loss_and_grad", loss_and_grad)
        return problem

    monkeypatch.setattr(harness, "build_problem", recording_build)
    cfg = dataclasses.replace(cfg, optimizer="sgd", steps=40)
    run(cfg)
    assert len(calls) == 40
    ref = np.random.default_rng(cfg.problem_seed + 1)
    noised = 0
    for (x, grad, clean), (x_next, _, _) in zip(calls, calls[1:]):
        assert np.array_equal(grad, clean)  # the oracle's array is untouched
        d = clean
        if ref.uniform() < cfg.grad_noise_prob:
            d = clean + ref.uniform(-cfg.grad_noise, cfg.grad_noise, x.size)
            noised += 1
        assert np.array_equal(x_next, x - cfg.alpha0 * d)
    assert noised == 39 if cfg.grad_noise_prob == 1.0 else 0 < noised < 39


def _force_overlap(monkeypatch):
    """Put every full-dataset eval on the run's worker thread, whatever the
    problem's size."""
    from rdbd import harness

    monkeypatch.setattr(harness, "_OVERLAP_EVAL_SIZE", 1)


DIVERGING_CASES = pytest.mark.parametrize("alpha0, failed_step, detail", [
    # The weights stay finite, but the full-dataset sum in the forward-only
    # eval overflows at the first eval step.
    (1e307, 25, "full loss inf"),
    # The logits overflow at once, so the merged oracle returns a NaN
    # mini-batch loss on the second step.
    (1e308, 2, "batch loss nan"),
])


@DIVERGING_CASES
def test_diverging_sampled_run_raises_and_flushes(tmp_path, capsys, alpha0,
                                                  failed_step, detail):
    path = tmp_path / "diverge.csv"
    cfg = RunConfig(problem="logistic", optimizer="sgd", alpha0=alpha0,
                    steps=200, out=str(path))
    with pytest.raises(NumericError, match=f"step {failed_step}: {detail}"):
        run(cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,full_loss,grad_norm,alpha,h,reverted"
    assert [int(line.split(",")[0]) for line in lines[1:]] == \
        list(range(1, failed_step))
    assert main(["run", "--problem", "logistic", "--optimizer", "sgd",
                 "--alpha0", repr(alpha0), "--steps", "200"]) == 4
    assert "numeric failure" in capsys.readouterr().err


@DIVERGING_CASES
def test_diverging_sampled_run_raises_and_flushes_overlapped(
        tmp_path, capsys, monkeypatch, alpha0, failed_step, detail):
    _force_overlap(monkeypatch)
    test_diverging_sampled_run_raises_and_flushes(tmp_path, capsys, alpha0,
                                                  failed_step, detail)


def _set_b1_gradient_at_step_3(monkeypatch, value):
    """Make the third oracle call of the next run return `value` on b1."""
    from rdbd import harness

    build = harness.build_problem
    calls = []

    def build_with_bad_b1(config):
        problem = build(config)
        oracle = problem.loss_and_grad
        b1 = dict(problem.segments)["b1"]

        def loss_and_grad(x, batch):
            loss, grad = oracle(x, batch)
            calls.append(batch)
            if len(calls) == 3:
                grad[b1] = value
            return loss, grad

        monkeypatch.setattr(problem, "loss_and_grad", loss_and_grad)
        return problem

    monkeypatch.setattr(harness, "build_problem", build_with_bad_b1)


NON_FINITE_CASES = pytest.mark.parametrize("optimizer, value, detail", [
    # A finite gradient whose step overflows only the weights of b1.
    *[(opt, 1e308, "weights of group 'b1'") for opt in ("sgd", "dbd", "rdbd")],
    # Gradient values that contain non-finite entries (the id names the case)
    # fail the gradient check, which names the group. Adam directions too:
    # inf/inf in u is NaN, and so is its group norm.
    *[pytest.param(opt, bad, "gradient of group 'b1'",
                   id=f"{opt}-{bad}-gradient values contains non-finite entries")
      for opt in OPTIMIZERS for bad in (np.inf, -np.inf, np.nan)],
])


@NON_FINITE_CASES
def test_non_finite_step_names_the_failure_and_flushes(tmp_path, monkeypatch,
                                                       optimizer, value,
                                                       detail):
    _set_b1_gradient_at_step_3(monkeypatch, value)
    path = tmp_path / "t.csv"
    cfg = dataclasses.replace(preset("mlp-blobs-demo"), optimizer=optimizer,
                              alpha0=10.0, out=str(path))
    with pytest.raises(NumericError, match=f"step 3: {detail}"):
        run(cfg)
    assert len(path.read_text().splitlines()) == 3   # header and steps 1-2


@NON_FINITE_CASES
def test_non_finite_step_names_the_failure_and_flushes_overlapped(
        tmp_path, monkeypatch, optimizer, value, detail):
    _force_overlap(monkeypatch)
    test_non_finite_step_names_the_failure_and_flushes(
        tmp_path, monkeypatch, optimizer, value, detail)


@pytest.mark.parametrize("optimizer, detail", [
    ("sgd", None),
    ("dbd", "step 3: weights of group 'b1'"),
    ("rdbd", "step 3: weights of group 'b1'"),
    # The square of 1e200 overflows Adam's second moment, which would make
    # u exactly 0 on those weights at every later step.
    ("adam", "step 3: Adam second moment of group 'b1'"),
    ("adam_rdbd", "step 3: Adam second moment of group 'b1'"),
])
def test_finite_gradient_whose_norm_overflows_is_not_non_finite(
        tmp_path, monkeypatch, optimizer, detail):
    # Every entry is finite, but the sum of squares of b1 overflows, so the
    # exact check must find the entries finite, and the trace gets b1's
    # finite norm: 1e200 times the root of its 16 entries.
    _set_b1_gradient_at_step_3(monkeypatch, 1e200)
    path = tmp_path / "t.csv"
    cfg = dataclasses.replace(preset("mlp-blobs-demo"), optimizer=optimizer,
                              alpha0=10.0, out=str(path))
    if detail is None:
        run(cfg)
        header, _, _, row = path.read_text().splitlines()[:4]
        assert row.split(",")[header.split(",").index("grad_norm.b1")] == \
            "4e+200"
    else:
        with pytest.raises(NumericError, match=detail):
            run(cfg)
        assert len(path.read_text().splitlines()) == 3   # header and steps 1-2


def test_all_finite_needs_no_finite_sum_of_squares():
    from rdbd.harness import _all_finite

    # The sum of squares overflows, yet every entry is finite. run calls
    # the check with overflow warnings off, and so does this test.
    with np.errstate(over="ignore"):
        assert _all_finite(np.array([1e200, 1.0]))
        assert _all_finite(np.full(7, -1e300))
    for bad in (np.nan, np.inf, -np.inf):
        for index in (0, 3, 6):
            v = np.ones(7)
            v[index] = bad
            assert not _all_finite(v)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_run_stopped_inside_the_loop_leaves_its_partial_trace(
        tmp_path, monkeypatch, error):
    from rdbd import harness

    build = harness.build_problem
    calls = []

    def build_failing_at_step_3(config):
        problem = build(config)
        oracle = problem.loss_and_grad

        def loss_and_grad(x, batch):
            calls.append(batch)
            if len(calls) == 3:
                raise error("oracle failed")
            return oracle(x, batch)

        monkeypatch.setattr(problem, "loss_and_grad", loss_and_grad)
        return problem

    full = tmp_path / "full.csv"
    run(dataclasses.replace(QUICK, out=str(full)))
    monkeypatch.setattr(harness, "build_problem", build_failing_at_step_3)
    path = tmp_path / "t.csv"
    with pytest.raises(error, match="oracle failed"):
        run(dataclasses.replace(QUICK, out=str(path)))
    # The header and steps 1-2, as an uninterrupted run wrote them.
    assert path.read_text().splitlines() == full.read_text().splitlines()[:3]


def _count_threads(monkeypatch):
    """Make threading.Thread record every thread started, in the list this
    returns."""
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    return started


@pytest.fixture(params=[False, True], ids=["in-order", "overlapped"])
def overlapped(request, monkeypatch):
    """Run every full-dataset eval in order (the default for problems this
    small), or, when True, force each one onto the run's worker thread."""
    if request.param:
        _force_overlap(monkeypatch)
    return request.param


@pytest.mark.parametrize("cfg", [
    preset("mlp-blobs-demo"), preset("logistic-default"),
    RunConfig(problem="logistic", grad_noise=0.5, grad_noise_prob=0.3,
              steps=500)], ids=["mlp-blobs-demo", "logistic-default",
                                "logistic-noise"])
def test_overlapped_eval_keeps_every_trace_byte(tmp_path, monkeypatch, cfg):
    in_order = tmp_path / "in_order.csv"
    records = run(dataclasses.replace(cfg, out=str(in_order)))
    _force_overlap(monkeypatch)
    started = _count_threads(monkeypatch)
    threads = threading.active_count()
    threaded = tmp_path / "threaded.csv"
    assert run(dataclasses.replace(cfg, out=str(threaded))) == records
    assert threaded.read_bytes() == in_order.read_bytes()
    # Every eval ran on the run's one worker thread, now ended.
    assert len(started) == 1
    assert not started[0].is_alive()
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", ["quadratic-dbd", "logistic-default"])
def test_no_eval_sees_its_weights_change_after_it_starts(monkeypatch,
                                                         overlapped, name):
    # Every eval is deferred, so each must get weights the steps after it
    # cannot move.
    build = harness.build_problem
    evals = []

    def build_recording_evals(config):
        problem = build(config)
        loss = problem.loss

        def recording_loss(x):
            evals.append((x, x.copy()))
            return loss(x)

        monkeypatch.setattr(problem, "loss", recording_loss)
        return problem

    monkeypatch.setattr(harness, "build_problem", build_recording_evals)
    trace = run(preset(name))
    assert len(evals) == np.count_nonzero(~np.isnan(trace.full_loss))
    for x, snapshot in evals:
        assert np.array_equal(x, snapshot)


HERMETIC_PRESETS = ("quadratic-dbd", "rosenbrock-rdbd", "logistic-default",
                    "logistic-adam-rdbd", "mlp-blobs-demo")


def test_small_problems_start_no_thread_and_large_ones_do(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a small problem started a thread")

    with monkeypatch.context() as patch:
        patch.setattr(threading, "Thread", no_thread)
        for name in HERMETIC_PRESETS:
            run(preset(name))
    # The MNIST-shaped network (2048 rows x 109,386 weights) is large.
    started = _count_threads(monkeypatch)
    cfg = RunConfig(problem="mlp-blobs", layer_sizes=(784, 128, 64, 10),
                    n_samples=2048, steps=30, eval_every=10)
    run(cfg)
    assert len(started) == 1    # one worker evaluates steps 10, 20 and 30
    assert not started[0].is_alive()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("eval_fails", [False, True])
def test_failure_while_an_eval_is_pending_flushes_its_full_loss(
        tmp_path, monkeypatch, overlapped, error, eval_fails):
    from rdbd import harness

    full = tmp_path / "full.csv"
    run(dataclasses.replace(QUICK, out=str(full)))
    build = harness.build_problem
    failed = threading.Event()
    evals = []

    def build_failing_at_step_30(config):
        problem = build(config)
        oracle, loss = problem.loss_and_grad, problem.loss
        calls = []

        def loss_and_grad(x, batch):
            calls.append(batch)
            if len(calls) == 30:
                failed.set()
                raise error("oracle failed")
            return oracle(x, batch)

        def slow_loss(x):
            # On a thread, the step-25 eval is still running when step 30
            # fails; in order, it starts only once step 30 has failed.
            if overlapped:
                evals.append(failed.wait(timeout=30))
            return math.inf if eval_fails else loss(x)

        monkeypatch.setattr(problem, "loss_and_grad", loss_and_grad)
        monkeypatch.setattr(problem, "loss", slow_loss)
        return problem

    monkeypatch.setattr(harness, "build_problem", build_failing_at_step_30)
    path = tmp_path / "t.csv"
    threads = threading.active_count()
    # A failed step-25 eval wins over the later failure, as it would in order.
    with pytest.raises(NumericError if eval_fails else error,
                       match="step 25: full loss inf" if eval_fails
                       else "oracle failed"):
        run(dataclasses.replace(QUICK, out=str(path)))
    assert threading.active_count() == threads
    assert evals == ([True] if overlapped else [])
    lines = path.read_text().splitlines()
    if eval_fails:   # the header and steps 1-24
        assert lines == full.read_text().splitlines()[:25]
    else:   # the header and steps 1-29, step 25's full loss included
        assert lines == full.read_text().splitlines()[:30]
        assert lines[25].split(",")[2] != ""


@pytest.mark.parametrize("eval_step", [25, 50])
def test_eval_that_raises_raises_the_same_exception(tmp_path, monkeypatch,
                                                    overlapped, eval_step):
    from rdbd import harness

    full = tmp_path / "full.csv"
    run(dataclasses.replace(QUICK, out=str(full)))
    build = harness.build_problem
    boom = ValueError("eval failed")

    def build_with_failing_eval(config):
        problem = build(config)
        loss, evals = problem.loss, []

        def failing_loss(x):
            evals.append(x)
            if len(evals) == eval_step // QUICK.eval_every:
                raise boom
            return loss(x)

        monkeypatch.setattr(problem, "loss", failing_loss)
        return problem

    monkeypatch.setattr(harness, "build_problem", build_with_failing_eval)
    path = tmp_path / "t.csv"
    threads = threading.active_count()
    with pytest.raises(ValueError) as info:
        run(dataclasses.replace(QUICK, out=str(path)))
    assert info.value is boom
    assert threading.active_count() == threads
    # The steps before the failed eval, as an uninterrupted run wrote them.
    assert path.read_text().splitlines() == \
        full.read_text().splitlines()[:eval_step]


def test_overlapped_eval_that_overflows_does_not_warn(overlapped):
    # The eval at step 25 overflows (see the diverging test above); the run
    # turns that into a NumericError, on the worker thread too.
    cfg = RunConfig(problem="logistic", optimizer="sgd", alpha0=1e307,
                    steps=60)
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="step 25: full loss inf"):
            run(cfg)
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", ["mlp-blobs-demo", "logistic-default"])
def test_mlp_blobs_runs_share_one_read_only_dataset(name):
    from rdbd.harness import build_problem

    cfg = preset(name)
    first = build_problem(cfg)
    again = build_problem(dataclasses.replace(cfg, seed=cfg.seed + 1))
    assert again.dataset is first.dataset
    assert not first.dataset.features.flags.writeable
    assert not first.dataset.labels.flags.writeable
    other = build_problem(dataclasses.replace(cfg, problem_seed=cfg.problem_seed + 1))
    assert other.dataset is not first.dataset
    assert not np.array_equal(other.dataset.features, first.dataset.features)
    # A repeated run still reproduces its trace exactly.
    assert run(cfg) == run(cfg)


@pytest.mark.parametrize("optimizer, kernels", [
    ("sgd", ["FlatSchedule"]), ("adam", ["AdamState", "FlatSchedule"]),
    ("dbd", ["FlatSchedule"]), ("rdbd", ["FlatSchedule"]),
    ("adam_rdbd", ["AdamState", "FlatSchedule"]),
], ids=["sgd", "adam", "dbd", "rdbd", "adam_rdbd"])
def test_run_builds_only_the_kernels_its_optimizer_reads(monkeypatch,
                                                         optimizer, kernels):
    built = []
    for name in ("AdamState", "FlatSchedule"):
        def counting(*args, name=name, kernel=getattr(harness, name)):
            if args[0]:  # resolved() checks the settings on zero-width kernels
                built.append(name)
            return kernel(*args)

        monkeypatch.setattr(harness, name, counting)
    run(dataclasses.replace(QUICK, optimizer=optimizer, eta=None, steps=5))
    assert sorted(built) == kernels


def _per_group_reference(cfg):
    """The rows of `run(cfg)`, with the rule written out per weight group.

    Every group keeps its own rate, previous direction and dot product,
    applied increment and AdamState, and none of the kernel's code runs, so
    the result pins down the segment offsets, the rate per group, the
    revert mask and the increment a revert takes back. Also returns how
    many reverts took back an increment that a clamp had cut.
    """
    from rdbd.data import batch_stream
    from rdbd.harness import build_problem

    cfg = cfg.resolved()
    problem = build_problem(cfg)
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    x = problem.initial_point(np.random.default_rng(init_ss))
    batches = batch_stream(problem.n_samples, cfg.batch_size, batch_ss)
    groups = []
    for _, sl in problem.segments:
        n = sl.stop - sl.start
        groups.append(dict(sl=sl, alpha=cfg.alpha0, prev=np.zeros(n),
                           prev_dot=0.0, applied=0.0, clamped=False,
                           adam=AdamState(n, cfg.beta1, cfg.beta2,
                                          cfg.eps_hat)))
    clamp_reverts = 0
    rows = []
    for t in range(1, cfg.steps + 1):
        loss, grad = problem.loss_and_grad(x, next(batches))
        row = [loss]
        for group in groups:
            sl = group["sl"]
            d = grad[sl]
            if cfg.optimizer in ("adam", "adam_rdbd"):
                d = group["adam"].advance(d)
            alpha, h, reverted = cfg.alpha0, 0.0, False
            if cfg.optimizer in ("sgd", "adam"):
                x[sl] -= alpha * d
            else:
                h = float(np.dot(d, group["prev"]))
                alpha = group["alpha"]
                reverted = (cfg.optimizer != "dbd"
                            and h * group["prev_dot"] < 0.0)
                if reverted:
                    x[sl] += group["applied"] * group["prev"]
                    alpha -= group["applied"]
                    clamp_reverts += group["clamped"]
                raw = alpha + cfg.eta * h
                new = min(max(raw, cfg.alpha_min), cfg.alpha_max)
                group["clamped"] = new != raw
                group["applied"] = (new - alpha if group["clamped"]
                                    else cfg.eta * h)
                x[sl] -= new * d
                alpha = new
                group.update(alpha=new, prev=d.copy(), prev_dot=h)
            row += [float(np.linalg.norm(d)), alpha, h, reverted]
        if t % cfg.eval_every == 0 or t == cfg.steps:
            row.append(problem.loss(x))
        rows.append([v.hex() if isinstance(v, float) else v for v in row])
    return rows, clamp_reverts


@pytest.mark.parametrize("optimizer, alpha_max", [
    ("sgd", None), ("adam", None), ("dbd", None), ("rdbd", None),
    ("adam_rdbd", None),
    # A cap that binds often, so reverts take back clamped increments.
    ("rdbd", 0.01),
], ids=["sgd", "adam", "dbd", "rdbd", "adam_rdbd", "rdbd-capped"])
def test_flat_kernel_matches_per_group_reference(optimizer, alpha_max):
    cfg = dataclasses.replace(preset("mlp-blobs-demo"), optimizer=optimizer,
                              eta=None, alpha_max=alpha_max, steps=60)
    records = run(cfg)
    assert len(records.ids) == 6
    rows = []
    for loss, full, groups in zip(
            records.loss.tolist(), records.full_loss.tolist(),
            records.rows[:, 3:].reshape(len(records), 6, 4).tolist()):
        row = [loss]
        for norm, alpha, h, reverted in groups:
            row += [norm, alpha, h, bool(reverted)]
        if not math.isnan(full):
            row.append(full)
        rows.append([v.hex() if isinstance(v, float) else v for v in row])
    reference, clamp_reverts = _per_group_reference(cfg)
    assert rows == reference
    if optimizer in ("rdbd", "adam_rdbd"):
        # Some step reverts in one group but not in another.
        assert any(len(set(flags)) > 1 for flags in records.reverted.tolist())
    if alpha_max is not None:
        assert clamp_reverts == 11


@pytest.mark.parametrize("optimizer", ["sgd", "rdbd", "adam_rdbd"])
def test_step_writes_only_its_groups_cells_of_a_trace_row(optimizer):
    """The kernel, handed a view of a sentinel-filled trace row, fills each
    group's four cells with the per-group reference values and leaves
    `step`, `loss` and `full_loss` alone; a block of another shape raises
    before anything moves."""
    from rdbd.data import batch_stream

    cfg = dataclasses.replace(preset("mlp-blobs-demo"), optimizer=optimizer,
                              eta=None, steps=4).resolved()
    reference, _ = _per_group_reference(cfg)
    problem = harness.build_problem(cfg)
    ids, segments = zip(*problem.segments)
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    x = problem.initial_point(np.random.default_rng(init_ss))
    batches = batch_stream(problem.n_samples, cfg.batch_size, batch_ss)
    direction, rule, _, _ = harness.OPTIMIZER_TABLE[optimizer]
    adam = (AdamState(x.size, cfg.beta1, cfg.beta2, cfg.eps_hat)
            if direction == "adam" else None)
    sched = FlatSchedule(segments, x.size, cfg.alpha0, cfg.eta,
                         cfg.alpha_min, cfg.alpha_max, rule)
    trace = Trace(ids, cfg.steps)
    trace.data[:] = -7.0
    for t, expected in enumerate(reference):
        grad = problem.loss_and_grad(x, next(batches))[1]
        sched.step(x, adam.advance(grad) if adam else grad,
                   trace.data[t, 3:].reshape(len(ids), 4))
        cells = [bool(v) if i % 4 == 3 else v.hex()
                 for i, v in enumerate(trace.data[t, 3:].tolist())]
        assert cells == expected[1:1 + 4 * len(ids)]
    assert (trace.data[:, :3] == -7.0).all()
    before = x.copy()
    for shape in [(len(ids), 3), (len(ids) + 1, 4)]:
        with pytest.raises(ValueError, match=re.escape(f"out {shape}")):
            sched.step(x, grad, np.zeros(shape))
    assert np.array_equal(x, before)
