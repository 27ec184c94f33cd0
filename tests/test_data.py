import gzip
import os
import struct

import numpy as np
import pytest

from rdbd.data import (Dataset, batch_stream, load_mnist, mnist_files,
                       parse_idx, stratified_rows, synthetic_blobs)
from rdbd.harness import MissingDataError, RunConfig, build_problem
from reference import (mnist_subset, serialize_idx, stacked_blobs,
                       traced_memory, write_mnist)


def test_parse_idx_labels():
    data = struct.pack(">II", 0x00000801, 3) + bytes([7, 2, 1])
    assert list(parse_idx(data)) == [7, 2, 1]


def test_parse_idx_images():
    data = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes([0, 1, 2, 3])
    img = parse_idx(data)
    assert img.shape == (1, 2, 2)
    assert img.dtype == np.uint8
    assert list(img.ravel()) == [0, 1, 2, 3]


def test_parse_idx_returns_a_view_of_the_bytes():
    data = serialize_idx(np.arange(24, dtype=np.uint8).reshape(2, 3, 4))
    img = parse_idx(data)
    assert not img.flags.owndata
    assert np.shares_memory(img, np.frombuffer(data, np.uint8))


def test_parse_idx_rejects_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        parse_idx(struct.pack(">II", 0x00000999, 1) + b"\x00")


def test_parse_idx_rejects_truncation():
    for short in (b"\x00\x00", b"\x00\x00\x08"):
        with pytest.raises(ValueError, match="shorter than its magic number"):
            parse_idx(short)
    with pytest.raises(ValueError, match="truncated"):
        parse_idx(struct.pack(">II", 0x00000801, 5) + bytes([1, 2]))
    with pytest.raises(ValueError, match="truncated"):
        parse_idx(struct.pack(">I", 0x00000803))
    with pytest.raises(ValueError, match="has 2 trailing bytes"):
        parse_idx(struct.pack(">II", 0x00000801, 1) + bytes([1, 2, 3]))
    with pytest.raises(ValueError, match="overflow"):
        parse_idx(struct.pack(">IIII", 0x00000803, 2 ** 30, 2 ** 30, 4))
    # 2**40 payload bytes is the most a header may claim
    with pytest.raises(ValueError, match="truncated"):
        parse_idx(struct.pack(">IIII", 0x00000803, 16384, 8192, 8192))
    with pytest.raises(ValueError, match="overflow"):     # 2**40 + 1 bytes
        parse_idx(struct.pack(">IIII", 0x00000803, 257, 4278255361, 1))
    packed = gzip.compress(serialize_idx(np.arange(200, dtype=np.uint8)))
    for corrupt in (packed[:len(packed) // 2],               # EOFError
                    packed[:10] + bytes(20) + packed[30:],   # zlib.error
                    packed[:-8] + bytes(8)):                 # BadGzipFile
        with pytest.raises(ValueError, match="corrupt gzip"):
            parse_idx(corrupt)


def test_idx_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        if rng.uniform() < 0.5:
            arr = rng.integers(0, 256, size=rng.integers(1, 40),
                               dtype=np.uint8)
        else:
            shape = tuple(rng.integers(1, 6, size=3))
            arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
        again = parse_idx(serialize_idx(arr))
        assert again.shape == arr.shape
        assert np.array_equal(again, arr)


def test_parse_idx_transparent_gzip():
    arr = np.arange(12, dtype=np.uint8).reshape(1, 3, 4)
    packed = gzip.compress(serialize_idx(arr))
    assert np.array_equal(parse_idx(packed), arr)


def test_batch_stream_epoch_is_permutation():
    stream = batch_stream(37, 5, seed=3)
    batches = [next(stream) for _ in range(8)]
    assert [len(b) for b in batches] == [5, 5, 5, 5, 5, 5, 5, 2]
    flat = np.sort(np.concatenate(batches))
    assert np.array_equal(flat, np.arange(37))
    # next epoch reshuffles but stays a permutation
    batches2 = [next(stream) for _ in range(8)]
    assert np.array_equal(np.sort(np.concatenate(batches2)), np.arange(37))
    assert not np.array_equal(np.concatenate(batches2),
                              np.concatenate(batches))


def test_batch_stream_deterministic():
    a = batch_stream(100, 16, seed=9)
    b = batch_stream(100, 16, seed=9)
    for _ in range(20):
        assert np.array_equal(next(a), next(b))
    ones = batch_stream(3, 1, seed=0)
    assert sorted(int(next(ones)[0]) for _ in range(3)) == [0, 1, 2]
    with pytest.raises(ValueError):
        batch_stream(10, 0, seed=0)
    with pytest.raises(ValueError):
        batch_stream(10, 11, seed=0)


def test_synthetic_blobs_deterministic():
    a = synthetic_blobs(64, 5, 3, seed=4)
    b = synthetic_blobs(64, 5, 3, seed=4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.num_classes == 3


def test_synthetic_blobs_single_class():
    ds = synthetic_blobs(10, 4, 1, seed=0)
    assert np.all(ds.labels == 0)
    with pytest.raises(ValueError):
        synthetic_blobs(2, 4, 3, seed=0)


@pytest.mark.parametrize("n, dim, classes, seed", [
    (10, 4, 1, 0), (7, 3, 2, 5), (400, 6, 2, 1), (2048, 20, 2, 7),
    (13, 5, 3, 2), (101, 8, 10, 3), (10, 3, 10, 1), (2, 5, 2, 9)])
def test_synthetic_blobs_equals_the_stacked_construction(n, dim, classes,
                                                         seed):
    ds = synthetic_blobs(n, dim, classes, seed)
    features, labels = stacked_blobs(n, dim, classes, seed)
    assert ds.features.tobytes() == features.tobytes()
    assert np.array_equal(ds.labels, labels)


def test_synthetic_blobs_is_built_at_its_final_size():
    synthetic_blobs(10, 2, 10, 7)   # the first call imports modules lazily
    ds, _, peak = traced_memory(lambda: synthetic_blobs(2048, 784, 10, 7))
    assert peak <= 1.05 * ds.features.nbytes


def test_synthetic_blobs_two_class_gap():
    ds = synthetic_blobs(400, 6, 2, seed=1, separation=10.0)
    m0 = ds.features[ds.labels == 0].mean(axis=0)
    m1 = ds.features[ds.labels == 1].mean(axis=0)
    assert abs(np.linalg.norm(m1 - m0) - 10.0) < 1.0


def test_mnist_subset_identity_and_stratification():
    labels = np.repeat(np.arange(10), 20)
    features = np.arange(200, dtype=float)[:, None] * np.ones((1, 3))
    ds = Dataset(features, labels, 10)

    full = mnist_subset(ds, 200, seed=0)
    assert np.array_equal(full.features, ds.features)
    assert np.array_equal(full.labels, ds.labels)

    ten = mnist_subset(ds, 10, seed=5)
    assert np.array_equal(np.sort(ten.labels), np.arange(10))

    sub = mnist_subset(ds, 55, seed=5)
    counts = np.bincount(sub.labels, minlength=10)
    assert counts.min() >= 5 and counts.max() <= 6

    again = mnist_subset(ds, 55, seed=5)
    assert np.array_equal(sub.features, again.features)

    with pytest.raises(ValueError):
        mnist_subset(ds, 5, seed=0)
    with pytest.raises(ValueError):
        mnist_subset(ds, 201, seed=0)
    with pytest.raises(ValueError, match="labels must lie in"):
        stratified_rows(labels, 9, 55, seed=0)       # label 9 >= 9 classes
    with pytest.raises(ValueError, match="labels must lie in"):
        stratified_rows(labels - 1, 10, 55, seed=0)  # label -1


@pytest.mark.parametrize("counts, n, take", [
    ([50, 30, 20], 7, [4, 2, 1]),    # unbalanced: the largest fraction, 0.5
    ([13, 5, 2], 7, [4, 2, 1]),      # two extra rows, not to the largest class
    ([10, 10, 10], 10, [4, 3, 3]),   # a remainder of 1 among equal fractions
    ([6, 3, 3], 6, [3, 2, 1]),       # a fractional tie goes to the lower id
    ([4, 6], 5, [2, 3]),             # no remainder
], ids=["unbalanced", "two-extra-rows", "remainder-1", "tie-to-lower-id",
        "no-remainder"])
def test_stratified_rows_apportion_by_largest_remainder(counts, n, take):
    labels = np.random.default_rng(1).permutation(
        np.repeat(np.arange(len(counts)), counts))
    rows = stratified_rows(labels, len(counts), n, seed=4)
    assert len(rows) == n
    assert np.all(np.diff(rows) > 0)
    assert np.bincount(labels[rows], minlength=len(counts)).tolist() == take


def test_subset_preserves_original_order():
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    features = np.arange(8, dtype=float)[:, None]
    ds = Dataset(features, labels, 2)
    sub = mnist_subset(ds, 4, seed=3)
    assert np.all(np.diff(sub.features[:, 0]) > 0)


def test_load_mnist_from_dir_and_env(tmp_path, monkeypatch):
    images, labels = write_mnist(tmp_path, 32, side=4, seed=0,
                                 gzipped=("images", "labels"))
    ds = load_mnist(str(tmp_path), 32, seed=0)   # n = 32 keeps every row
    assert len(ds) == 32
    assert ds.dim == 16
    assert np.array_equal(ds.labels, labels)
    # exact /255 scaling
    assert np.array_equal(ds.features,
                          images.reshape(32, 16).astype(float) / 255.0)
    # $MNIST_DIR is applied by build_problem alone, not by the loader
    cfg = RunConfig(problem="mlp-mnist", layer_sizes=(16, 10), n_samples=32,
                    batch_size=4)
    monkeypatch.setenv("MNIST_DIR", str(tmp_path))
    assert load_mnist(None, 32, 0) is None
    assert build_problem(cfg).dataset.features.tobytes() == \
        ds.features.tobytes()
    monkeypatch.setenv("MNIST_DIR", str(tmp_path / "nope"))
    with pytest.raises(MissingDataError):
        build_problem(cfg)


def test_load_mnist_missing_returns_none(tmp_path):
    assert mnist_files(str(tmp_path)) is None
    assert load_mnist(str(tmp_path), 10, 0) is None
    write_mnist(tmp_path, 32, side=4, seed=0, gzipped=())
    assert mnist_files(None) is None
    assert mnist_files(str(tmp_path)) == [
        str(tmp_path / "train-images-idx3-ubyte"),
        str(tmp_path / "train-labels-idx1-ubyte")]
    os.remove(tmp_path / "train-labels-idx1-ubyte")
    assert mnist_files(str(tmp_path)) is None


def test_dataset_validation():
    assert len(Dataset(np.zeros((1, 2)), np.array([1]), 2)) == 1
    for bad in ([0, 2], [-1, 1]):   # a label of num_classes, a negative one
        with pytest.raises(ValueError, match="labels must lie in"):
            Dataset(np.zeros((2, 2)), np.array(bad), 2)
    for value in (-np.inf, np.inf):   # one non-finite entry among finite ones
        features = np.zeros((2, 2))
        features[1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features, np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0]), 2)
    with pytest.raises(ValueError):
        Dataset(np.full((2, 2), np.nan), np.array([0, 1]), 2)
    with pytest.raises(ValueError, match="nonempty"):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValueError, match="num_classes must be >= 1"):
        Dataset(np.zeros((2, 2)), np.array([0, 0]), 0)
