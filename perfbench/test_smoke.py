"""Smoke test of the benchmark itself (not part of the library's suite).

    python -m pytest perfbench/test_smoke.py

Runs every workload briefly, traced and untraced, and checks that each
metric BENCHMARK.json declares is printed with its unit. Also checks that
runs which diverge are counted as failed without stopping the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        printed = [line for line in lines[:-1]
                   if line.startswith(m["name"] + " = ")]
        assert len(printed) == 1 and printed[0].endswith(" " + m["unit"])


def test_diverging_runs_are_counted_as_failed_without_stopping(tmp_path):
    sys.path.insert(0, str(HERE))
    import run
    bench = run.load_bench()
    from rdbd.harness import RunConfig

    configs = [
        ("converges", RunConfig(problem="logistic", steps=200)),
        # Overflows to a non-finite loss: the run raises NumericError.
        ("huge-alpha0", RunConfig(problem="logistic", optimizer="sgd",
                                  alpha0=1e307, steps=200)),
        # Gradient ascent: finite, but the loss ends above where it began.
        ("ascent", RunConfig(problem="logistic", optimizer="sgd",
                             alpha0=-0.5, steps=200)),
    ]
    workload = bench.workloads.Workload("diverging", lambda seed, out: configs)
    result = bench.run_benchmark(workload, 0, 0.1, 1, tmp_path / "out")
    assert result["correct"] is False
    assert result["attempted"] >= 9 and result["attempted"] % 3 == 0
    assert result["metrics"]["failed_ratio"] == pytest.approx(2 / 3)
    failed_labels = {label for label, _ in result["failures"]}
    assert failed_labels == {"huge-alpha0", "ascent"}


def test_a_diverging_compare_through_the_cli_is_counted_as_failed(tmp_path):
    sys.path.insert(0, str(HERE))
    import run
    bench = run.load_bench()
    from rdbd.harness import RunConfig

    workload = bench.workloads.Workload(
        "diverging-compare",
        lambda seed, out: [("logistic-sgd", RunConfig(optimizer="sgd"))],
        lambda seed: ["compare", "--problem", "logistic", "--optimizers",
                      "sgd", "--seeds", "1", "--alpha0", "1e307",
                      "--steps", "200", "--seed", str(seed)])
    result = bench.run_benchmark(workload, 0, 0.1, 1, tmp_path / "out")
    assert result["correct"] is False
    assert result["attempted"] >= 3
    assert result["failed"] == result["attempted"]
