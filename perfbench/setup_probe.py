"""Child process behind the `setup_s` metric.

It imports rdbd from the checkout's `src/`, builds each distinct problem of
one workload with `harness.build_problem`, then prints `ready`. The parent
times it from process start to that line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rdbd import harness  # noqa: E402
import workloads  # noqa: E402


def main(name, seed):
    configs = workloads.WORKLOADS[name].configs(int(seed), Path("."))
    for cfg in workloads.distinct_problems(configs):
        harness.build_problem(cfg)
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:3])
