"""Dataset ingestion: IDX container parsing, deterministic stratified row
choice, synthetic cluster generators, and the without-replacement batch
stream. Each dataset is built at its final size."""

from __future__ import annotations

import gzip
import math
import os
import pathlib
import struct
import zlib

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class Dataset:
    """Feature matrix plus integer labels in [0, num_classes)."""

    def __init__(self, features, labels, num_classes):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must be a nonempty n x d matrix")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length must match feature rows")
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if labels.min() < 0 or labels.max() >= num_classes:
            raise ValueError("labels must lie in [0, num_classes)")
        # min and max copy nothing, and are NaN or infinite when an entry is
        if features.size and not (np.isfinite(features.min())
                                  and np.isfinite(features.max())):
            raise ValueError("features contain non-finite entries")
        self.features = features
        self.labels = labels
        self.num_classes = int(num_classes)

    def __len__(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


def parse_idx(data: bytes) -> np.ndarray:
    """Decode an IDX byte stream (gzip accepted transparently).

    Big-endian header: magic, then one dimension per header slot
    (0x00000801 = 1-D labels, 0x00000803 = 3-D images), then the uint8
    payload, whose length must equal the product of the dimensions. The
    array is a read-only view of the (decompressed) bytes, not a copy.
    Every malformed stream, a corrupt or truncated gzip one included,
    raises ValueError.
    """
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise ValueError(f"corrupt gzip stream: {exc}") from exc
    if len(data) < 4:
        raise ValueError("IDX stream shorter than its magic number")
    (magic,) = struct.unpack(">I", data[:4])
    ndim = {LABELS_MAGIC: 1, IMAGES_MAGIC: 3}.get(magic)
    if ndim is None:
        raise ValueError(f"bad IDX magic 0x{magic:08x}")
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise ValueError("IDX header truncated")
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    count = math.prod(dims)
    if count > 2 ** 40:
        raise ValueError(f"IDX dims {dims} overflow any sane payload")
    payload = len(data) - header_len
    if payload < count:
        raise ValueError(
            f"IDX payload truncated: header claims {count} bytes, got {payload}")
    if payload > count:
        raise ValueError(f"IDX payload has {payload - count} trailing bytes")
    return np.frombuffer(data, np.uint8, count, offset=header_len).reshape(dims)


def batch_stream(n, batch_size, seed):
    """Without-replacement mini-batch index stream: each epoch walks a
    fresh seeded permutation of [0, n) in batch_size chunks (the last may
    be short), one chunk per next(). Deterministic for a given seed; a
    batch_size outside [1, n] raises ValueError at once."""
    if batch_size < 1 or batch_size > n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    rng = np.random.default_rng(seed)

    def stream():
        while True:
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                yield order[start:start + batch_size]
    return stream()


def stratified_rows(labels, num_classes, n, seed) -> np.ndarray:
    """Sorted indices of a deterministic stratified sample of n rows.

    Per-class counts follow largest-remainder apportionment of the class
    proportions in `labels` (balance within +-1); the indices come back in
    their original order, so n == len(labels) selects every row.
    """
    total = len(labels)
    if n > total:
        raise ValueError(f"subset size {n} exceeds dataset size {total}")
    if n < num_classes:
        raise ValueError(f"subset size {n} below class count {num_classes}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("labels must lie in [0, num_classes)")

    counts = np.bincount(labels, minlength=num_classes)
    quotas = n * counts / total
    take = np.floor(quotas).astype(int)
    remainder = n - take.sum()
    if remainder > 0:
        # Break fraction ties toward lower class ids for determinism.
        fracs = quotas - take
        order = np.lexsort((np.arange(len(fracs)), -fracs))
        for c in order[:remainder]:
            take[c] += 1
    take = np.minimum(take, counts)

    rng = np.random.default_rng(seed)
    chosen = []
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        if take[c] == idx.size:
            chosen.append(idx)
        else:
            chosen.append(rng.choice(idx, size=take[c], replace=False))
    return np.sort(np.concatenate(chosen))


def synthetic_blobs(n, dim, num_classes, seed, separation=4.0) -> Dataset:
    """Gaussian clusters with unit covariance, labels by cluster.

    For two classes the cluster means sit at +-separation/2 along a random
    unit direction, so the mean gap is exactly `separation`. Row order is
    a seeded permutation. Deterministic for a given seed.

    The dataset is built at its final size: each class block is drawn
    into the one (n, dim) feature matrix, and the rows are permuted in
    place, one row of scratch at a time.
    """
    if n < num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    if num_classes == 1:
        means = np.zeros((1, dim))
    elif num_classes == 2:
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        means = np.vstack([-u, u]) * (separation / 2.0)
    else:
        dirs = rng.normal(size=(num_classes, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        means = dirs * (separation / 2.0)

    counts = np.full(num_classes, n // num_classes)
    counts[: n % num_classes] += 1
    features = np.empty((n, dim))
    for block, mean in zip(np.split(features, np.cumsum(counts)[:-1]), means):
        rng.standard_normal(out=block)  # the draws of normal(size=block.shape)
        block += mean
    labels = np.repeat(np.arange(num_classes), counts)
    perm = rng.permutation(n)
    _permute_rows(features, perm)
    return Dataset(features, labels[perm], num_classes)


def _permute_rows(a, perm):
    """Set a[i] = a[perm[i]] for every row i in place, walking each cycle
    of perm with one row of scratch."""
    perm = perm.tolist()  # a row is marked done by perm[i] = i
    for first in range(len(perm)):
        if perm[first] == first:
            continue
        saved = a[first].copy()
        i = first
        while perm[i] != first:
            source = perm[i]
            a[i] = a[source]
            perm[i] = i
            i = source
        a[i] = saved
        perm[i] = i


def _find_file(directory, stem):
    for name in (stem, stem + ".gz", stem.replace("-idx", ".idx"),
                 stem.replace("-idx", ".idx") + ".gz"):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            return path
    return None


def mnist_files(mnist_dir):
    """The paths of the MNIST training images and labels under mnist_dir,
    raw or gzipped, found without reading them; None when either is not."""
    paths = [mnist_dir and _find_file(mnist_dir, stem)
             for stem in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")]
    return paths if all(paths) else None


def load_mnist(mnist_dir, n, seed):
    """The `stratified_rows(labels, 10, n, seed)` subset of the MNIST
    training set under mnist_dir, pixels scaled to [0,1] by /255, as a
    Dataset (n = the files' row count keeps every row); None when
    `mnist_files` finds no files, so callers can skip real-data tiers.

    Only the chosen rows are converted, from a view of the file's bytes,
    so no float64 copy of every image is made.
    """
    paths = mnist_files(mnist_dir)
    if paths is None:
        return None
    images, labels = (parse_idx(pathlib.Path(path).read_bytes())
                      for path in paths)
    labels = labels.astype(np.int64)
    if images.shape[0] != labels.shape[0]:
        raise ValueError("image/label counts disagree")
    rows = stratified_rows(labels, 10, n, seed)
    features = images.reshape(images.shape[0], -1)[rows].astype(np.float64)
    features /= 255.0
    return Dataset(features, labels[rows], 10)
