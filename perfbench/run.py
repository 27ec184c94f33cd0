"""rdbd benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload mlp-784 --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository: rdbd is imported from its `src/`.
With `--trace 0` the run reports the end-to-end metrics BENCHMARK.json
names, and with `--trace 1` the per-layer ones. Every metric is printed as
`name = value unit`, the full result (machine, digests, every span) goes to
`.bench_out/<workload>-seed<n>-trace<t>/result.json`, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
BLAS is pinned to one thread before numpy loads.
"""

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def load_bench():
    """Pin BLAS threads, put the checkout's src/ first and import the bench."""
    src = ROOT / "src"
    if not (src / "rdbd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rdbd package under {src}; "
                         "run from a checkout of the repository")
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sys.path.insert(0, str(src))
    import bench
    return bench


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"], list(
        w["name"] for w in spec["workloads"])


def main(argv=None):
    end_to_end, per_layer, names = declared_metrics()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = load_bench()

    out_dir = (ROOT / ".bench_out"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    result = bench.run_benchmark(bench.workloads.WORKLOADS[args.workload],
                                 args.seed, args.seconds,
                                 args.trace, out_dir)

    declared = per_layer if args.trace else end_to_end
    # A declared span or config that this workload never reaches reads 0.
    measured = {m["name"]: 0.0 for m in declared} | result["metrics"]
    print(f"rdbd benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}"
                                 for k, v in result["machine"].items()))
    print(f"passes: 1 warm-up + {result['timed_passes']} timed untraced; "
          f"runs attempted {result['attempted']}, failed {result['failed']}")
    for label, problems in result["failures"]:
        print(f"FAILED {label}: {'; '.join(problems)}")
    for name in sorted(measured):
        print(f"{name} = {measured[name]!r} {bench.unit_of(name)}")
    print(f"result written to {out_dir.relative_to(ROOT) / 'result.json'}")
    values = [measured[m["name"]] for m in declared]
    correct = result["correct"] and all(math.isfinite(v) for v in values)
    # JSON has no NaN: a metric that could not be measured reads 0 and the
    # run is marked incorrect.
    metrics = {m["name"]: {"value": v if math.isfinite(v) else 0.0,
                           "unit": m["unit"]}
               for m, v in zip(declared, values)}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
