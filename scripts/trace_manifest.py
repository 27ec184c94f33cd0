"""Print the sha256 of the trace CSV of a fixed list of seeded runs, of
the files six CLI commands write, and of the two datasets the benchmark
builds.

    python3 scripts/trace_manifest.py > tests/golden/trace_manifest.txt

A change that must keep traces byte-identical prints the same lines as its
parent, and a change that alters the arithmetic shows exactly which runs
moved. `tests/test_trace_manifest.py` compares every line with
`tests/golden/trace_manifest.txt`. The first line, `# python ...`, names
the Python, numpy and BLAS versions and the machine type, which the hashes
depend on; every other line is `<label> seed=<n> <sha256>`. rdbd is
imported from the `src/` next to this script, and the MNIST file writer
from `tests/reference.py`.
BLAS is pinned to one thread before numpy loads, as in `perfbench/run.py`:
the last bits of the MLP gradient depend on OpenBLAS's thread count, so
without the pin the MLP lines would differ between machines. The lines are
computed on up to two worker processes and printed in the order below.

The configs are the five hermetic presets, the benchmark's MNIST-shaped
`mlp-784`, the same network under `adam_rdbd` (`mlp-784-adam_rdbd`: the
RDBD schedule on Adam directions at MNIST scale; both runs are large
enough that `harness.run` evaluates their full loss on a worker thread),
logistic regression with each optimizer, logistic with sparse
gradient noise, `logistic-odd-batch` (`rdbd` on blobs at separation 12
with batches of 13: the sigmoid saturates, the final loss is ~2e-4, and
no batch length is a multiple of a SIMD width), `quadratic-dbd` with the
same noise (noise over a deterministic problem), `mlp-blobs-demo` with the
same noise (noise over a six-group vector), `mlp-blobs-demo` on Adam directions, and
`mlp-blobs-demo-capped` (`rdbd` with `alpha_max=0.01`), and
`mlp-blobs-demo` with layer sizes (10, 3) (`mlp-blobs-shallow`, one weight
matrix, so the backward pass never propagates through a ReLU) and
(10, 16, 16, 8, 3) (`mlp-blobs-deep`, eight groups), each at seeds 0, 1
and 2. The capped runs revert increments that a clamp cut (hundreds of
times per run), so they guard the applied-increment path of the revert.

The fifteen lines after the runs guard the CLI write path: the six files of
`rdbd sweep --preset lr-robustness-logistic --seed 0 --out <dir>`, the
`comparison.csv` of `rdbd compare --problem logistic --optimizers
sgd,adam,dbd,rdbd,adam_rdbd --seeds 2 --steps 300 --out <dir>/`, the
`comparison.csv` of `rdbd compare --preset logistic-adam-rdbd --optimizers
adam_rdbd,rdbd,adam --seeds 2 --steps 300 --out <dir>/`, the five
files of `rdbd sweep --preset batch-size-impact --seed 0 --out <dir>`, and
the `comparison.csv` of `rdbd compare --preset mlp-blobs-demo --optimizers
rdbd,sgd --seeds 2 --steps 300 --out <dir>/` under `--metric
min_grad_norm` and under `--metric steps_to_threshold --threshold 1.11`.
The `logistic-adam-rdbd` preset's `eta` (5e-7) and `alpha_max` (0.05)
equal `adam_rdbd`'s own defaults, so its line would not move if they
stopped carrying over to the base optimizer; the rule that they carry
over to it only is guarded by `tests/test_harness.py::
test_compare_carries_eta_and_alpha_max_to_the_base_optimizer_only`, at
eta 0.02 and alpha_max 0.05. The first sweep's
axis is `alpha0`; the second's is `batch_size`, which is part of the
problem signature, so the two guard both kinds of sweep axis. The last
two guard the other two metric readers on a six-group trace; every one
of their four runs reaches the threshold, at steps 50 to 200, so their
values are finite. Their label is `<label>/<file name>`, at seed 0.

The next four lines hash the bytes of the features and the labels of the
`synthetic_blobs` datasets behind the benchmark's `mlp-784`
(2048, 784, 10, 7, 4.0) and `logistic-default` (2048, 20, 2, 7, 4.0), so
they guard the dataset builder directly. Their label is
`dataset-<name>/features` or `dataset-<name>/labels`, and their seed is
the problem seed, 7.

The last line, `mlp-mnist seed=0`, is the trace of the `mnist-default`
preset cut down to a 16-8-10 network, 300 steps and batches of 8, on the
`n_samples = 40` stratified subset of a seeded IDX pair of 80 4x4 images
that the script writes into a temporary directory. It guards the MNIST
path: reading the IDX files, choosing the subset and converting its rows.
"""

import contextlib
import dataclasses
import hashlib
import io
import multiprocessing
import os
import platform
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402
from rdbd import cli, harness  # noqa: E402
from rdbd.data import synthetic_blobs  # noqa: E402
from rdbd.harness import RunConfig  # noqa: E402
from reference import write_mnist  # noqa: E402
from workloads import HERMETIC_PRESETS, MLP_784  # noqa: E402


def configs():
    """(label, config) pairs, without a seed."""
    out = [(name, harness.preset(name)) for name in HERMETIC_PRESETS]
    out.append(("mlp-784", MLP_784))
    out.append(("mlp-784-adam_rdbd", dataclasses.replace(
        MLP_784, optimizer="adam_rdbd", eta=None)))
    out += [(f"logistic-{opt}", RunConfig(problem="logistic", optimizer=opt))
            for opt in harness.OPTIMIZERS]
    out.append(("logistic-noise", RunConfig(problem="logistic", grad_noise=0.5,
                                            grad_noise_prob=0.3, steps=500)))
    out.append(("logistic-odd-batch", RunConfig(problem="logistic",
                                                batch_size=13,
                                                separation=12.0)))
    out.append(("quadratic-noise", dataclasses.replace(
        harness.preset("quadratic-dbd"), grad_noise=0.5, grad_noise_prob=0.3)))
    demo = harness.preset("mlp-blobs-demo")
    out.append(("mlp-blobs-demo-noise", dataclasses.replace(
        demo, grad_noise=0.5, grad_noise_prob=0.3)))
    out += [(f"mlp-blobs-demo-{opt}", dataclasses.replace(demo, optimizer=opt,
                                                          eta=None))
            for opt in ("adam", "adam_rdbd")]
    out.append(("mlp-blobs-demo-capped",
                dataclasses.replace(demo, alpha_max=0.01)))
    out += [(f"mlp-blobs-{label}", dataclasses.replace(demo, layer_sizes=sizes))
            for label, sizes in (("shallow", (10, 3)),
                                 ("deep", (10, 16, 16, 8, 3)))]
    return out


CLI_COMMANDS = (
    ("sweep", ["sweep", "--preset", "lr-robustness-logistic", "--seed", "0",
               "--out"]),
    ("compare", ["compare", "--problem", "logistic", "--optimizers",
                 "sgd,adam,dbd,rdbd,adam_rdbd", "--seeds", "2", "--steps",
                 "300", "--out"]),
    ("compare-preset", ["compare", "--preset", "logistic-adam-rdbd",
                        "--optimizers", "adam_rdbd,rdbd,adam", "--seeds", "2",
                        "--steps", "300", "--out"]),
    ("sweep-batch", ["sweep", "--preset", "batch-size-impact", "--seed", "0",
                     "--out"]),
    ("compare-min-grad-norm", ["compare", "--preset", "mlp-blobs-demo",
                               "--optimizers", "rdbd,sgd", "--seeds", "2",
                               "--steps", "300", "--metric", "min_grad_norm",
                               "--out"]),
    ("compare-steps-to-threshold", ["compare", "--preset", "mlp-blobs-demo",
                                    "--optimizers", "rdbd,sgd", "--seeds", "2",
                                    "--steps", "300", "--metric",
                                    "steps_to_threshold", "--threshold",
                                    "1.11", "--out"]),
)


# (name, synthetic_blobs arguments) of each dataset the benchmark builds
DATASETS = (("mlp-784", (2048, 784, 10, 7, 4.0)),
            ("logistic-default", (2048, 20, 2, 7, 4.0)))


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def header():
    """The first line: the versions and the machine the hashes depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return (f"# python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas}, machine {platform.machine()}")


def run_lines(label, cfg, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "trace.csv")
        harness.run(dataclasses.replace(cfg, seed=seed, out=path))
        return [f"{label} seed={seed} {digest(path)}"]


def cli_lines(label, argv):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / label
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv + [str(out_dir) + os.sep])
        if status != 0:
            raise SystemExit(f"rdbd {label} exited with {status}")
        return [f"{label}/{name} seed=0 {digest(out_dir / name)}"
                for name in sorted(os.listdir(out_dir))]


def dataset_lines(name, args):
    dataset = synthetic_blobs(*args)
    return [f"dataset-{name}/{part} seed={args[3]} "
            f"{hashlib.sha256(getattr(dataset, part).tobytes()).hexdigest()}"
            for part in ("features", "labels")]


def mnist_lines():
    with tempfile.TemporaryDirectory() as tmp:
        mnist_dir = Path(tmp) / "mnist"
        mnist_dir.mkdir()
        write_mnist(mnist_dir, side=4, gzipped=())
        path = str(Path(tmp) / "trace.csv")
        harness.run(dataclasses.replace(
            harness.preset("mnist-default"), layer_sizes=(16, 8, 10),
            n_samples=40, steps=300, batch_size=8, mnist_dir=str(mnist_dir),
            seed=0, out=path))
        return [f"mlp-mnist seed=0 {digest(path)}"]


def tasks():
    """(function, arguments) of each block of output lines, in output
    order."""
    out = [(run_lines, (label, cfg, seed))
           for label, cfg in configs() for seed in range(3)]
    out += [(cli_lines, command) for command in CLI_COMMANDS]
    out += [(dataset_lines, dataset) for dataset in DATASETS]
    out.append((mnist_lines, ()))
    return out


def main():
    print(header(), flush=True)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1), spawn) as pool:
        blocks = [pool.submit(function, *args) for function, args in tasks()]
        for block in blocks:
            print("\n".join(block.result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
