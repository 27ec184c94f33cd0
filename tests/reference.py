"""Reference oracles the tests check the library against: a finite-difference
gradient, an empirical update-norm bound, a revert-exactness predicate, an
IDX serializer, and the dataset builders as they were before each dataset
was built at its final size. Nothing in a run calls them."""

import struct

import numpy as np

from rdbd.data import IMAGES_MAGIC, LABELS_MAGIC, Dataset, stratified_rows


def finite_difference_gradient(problem, x, step) -> np.ndarray:
    """Central-difference gradient of problem.loss, one coordinate at a time."""
    if step <= 0:
        raise ValueError("step must be > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for j in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[j] += step
        backward[j] -= step
        grad[j] = (problem.loss(forward) - problem.loss(backward)) / (2.0 * step)
    return grad


def estimate_sigma(problem, region_samples, radius=1.0, rng=None) -> float:
    """Empirical update-norm bound: 1.1 times the largest full-gradient
    norm seen over points sampled uniformly from the ball of `radius`
    about the origin."""
    if region_samples < 1:
        raise ValueError("need at least one sample")
    rng = rng or np.random.default_rng(0)
    largest = 0.0
    for _ in range(int(region_samples)):
        direction = rng.normal(size=problem.dim)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        r = radius * rng.uniform() ** (1.0 / problem.dim)
        point = direction / norm * r
        grad = problem.loss_and_grad(point, None)[1]
        largest = max(largest, float(np.linalg.norm(grad)))
    return 1.1 * largest


def revert_exactness_check(before, after_step_then_revert, eta, h_prev,
                           g_prev, rel_tol=1e-12) -> bool:
    """Verify that a revert undid the previous rate increment exactly.

    `before` is the (x, alpha) pair recorded right after the step that
    applied the increment a = eta*h_prev (when a clamp cut it, pass the
    applied increment as h_prev with eta=1). `after_step_then_revert` is
    the pair after the revert. True iff the rate dropped by exactly a
    (restoring its pre-increment value) and the weights received exactly
    +a*g_prev, both to rel_tol relative tolerance.
    """
    x_before, alpha_before = before
    x_after, alpha_after = after_step_then_revert
    x_before = np.asarray(x_before, dtype=np.float64)
    x_after = np.asarray(x_after, dtype=np.float64)
    g_prev = np.asarray(g_prev, dtype=np.float64)

    increment = eta * h_prev
    expected_alpha = alpha_before - increment
    alpha_scale = max(1.0, abs(alpha_before), abs(expected_alpha))
    if abs(alpha_after - expected_alpha) > rel_tol * alpha_scale:
        return False

    correction = x_after - x_before
    expected = increment * g_prev
    scale = max(1.0, float(np.max(np.abs(x_before))),
                float(np.max(np.abs(expected))))
    return bool(np.all(np.abs(correction - expected) <= rel_tol * scale))


def serialize_idx(arr) -> bytes:
    """Encode a uint8 tensor (1-D labels or 3-D images) as IDX bytes."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    magic = {1: LABELS_MAGIC, 3: IMAGES_MAGIC}.get(arr.ndim)
    if magic is None:
        raise ValueError("only 1-D label or 3-D image tensors are supported")
    header = struct.pack(">I", magic) + struct.pack(
        f">{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def stacked_blobs(n, dim, num_classes, seed, separation=4.0):
    """`synthetic_blobs` as first written: every class block drawn on its
    own, stacked, then copied in permuted order. Returns (features,
    labels)."""
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
    features = np.vstack([
        means[c] + rng.normal(size=(counts[c], dim))
        for c in range(num_classes)
    ])
    labels = np.repeat(np.arange(num_classes), counts)
    perm = rng.permutation(n)
    return features[perm], labels[perm]


def mnist_subset(dataset, n, seed):
    """The stratified subset of n rows of an in-memory Dataset, chosen by
    `stratified_rows` after every row was converted, as the MNIST loader
    did before it chose the rows from the labels first."""
    keep = stratified_rows(dataset.labels, dataset.num_classes, n, seed)
    return Dataset(dataset.features[keep], dataset.labels[keep],
                   dataset.num_classes)
