import functools
import math
import warnings

import numpy as np
import pytest

from rdbd.data import batch_stream, synthetic_blobs
from rdbd.problems import (LogisticProblem, MlpProblem, QuadraticProblem,
                           RosenbrockProblem)
from reference import estimate_sigma, finite_difference_gradient


def test_quadratic_identity():
    prob = QuadraticProblem(np.ones(2))
    x = np.array([3.0, 4.0])
    assert prob.loss(x) == 12.5
    assert np.array_equal(prob.loss_and_grad(x, None)[1], x)
    assert prob.L == 1.0


def test_quadratic_constants():
    prob = QuadraticProblem([1.0, 4.0])
    assert prob.L == 4.0
    prob2 = QuadraticProblem([1.0, 4.0], np.array([1.0, 4.0]))
    assert prob2.L == 4.0
    assert RosenbrockProblem().L is None


def test_quadratic_rejects_bad_matrices():
    for a in ([1.0, -2.0], [1.0, math.nan], [math.inf, 1.0], np.eye(2)):
        with pytest.raises(ValueError, match="finite curvatures >= 0"):
            QuadraticProblem(a)
    with pytest.raises(ValueError, match="b length"):
        QuadraticProblem([1.0, 2.0], np.ones(3))


def test_diagonal_quadratic_matches_the_dense_formula_bit_for_bit():
    # The dense forms x'Ax/2 - b'x and Ax - b with A = diag(a) are the
    # reference: zeros off the diagonal add nothing to a BLAS sum.
    rng = np.random.default_rng(12)
    for dim in [*range(1, 65), 100, 257, 1000]:
        for _ in range(3 if dim <= 64 else 1):
            a = np.exp(rng.normal(0.0, 2.0, dim))
            x = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
            for b in (np.zeros(dim), rng.normal(size=dim)):
                A = np.diag(a)
                loss, grad = QuadraticProblem(a, b).loss_and_grad(x, None)
                assert _bits(loss) == _bits(0.5 * x @ A @ x - b @ x)
                assert grad.tobytes() == (A @ x - b).tobytes()


def test_rosenbrock_values():
    prob = RosenbrockProblem()
    assert prob.loss([1.0, 1.0]) == 0.0
    assert np.array_equal(prob.loss_and_grad([1.0, 1.0], None)[1], [0.0, 0.0])
    assert prob.loss([0.0, 0.0]) == 1.0
    assert np.array_equal(prob.loss_and_grad([0.0, 0.0], None)[1], [-2.0, 0.0])


def test_rosenbrock_gradient_matches_fd():
    prob = RosenbrockProblem()
    x = np.array([-1.2, 1.0])
    fd = finite_difference_gradient(prob, x, 1e-6)
    analytic = prob.loss_and_grad(x, None)[1]
    assert np.all(np.abs(fd - analytic) <= 1e-5 * np.maximum(1.0, np.abs(analytic)))


def test_fd_gradient_property_random_points():
    prob = RosenbrockProblem()
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 2)
        fd = finite_difference_gradient(prob, x, 1e-6)
        analytic = prob.loss_and_grad(x, None)[1]
        assert np.all(np.abs(fd - analytic)
                      <= 1e-5 * np.maximum(1.0, np.abs(analytic)))


def test_fd_gradient_basics():
    quad = QuadraticProblem(np.ones(2))
    fd = finite_difference_gradient(quad, np.array([1.0, 0.0]), 1e-6)
    assert np.all(np.abs(fd - [1.0, 0.0]) <= 1e-8)
    flat = QuadraticProblem(np.zeros(2))
    assert np.all(finite_difference_gradient(flat, np.ones(2), 1e-6) == 0.0)
    with pytest.raises(ValueError):
        finite_difference_gradient(quad, np.zeros(2), 0.0)


def test_logistic_zero_weights_loss_is_ln2():
    prob = LogisticProblem(synthetic_blobs(256, 8, 2, seed=3))
    assert abs(prob.loss(np.zeros(8)) - math.log(2.0)) < 1e-12


def test_logistic_validation():
    with pytest.raises(ValueError):
        LogisticProblem(synthetic_blobs(4, 8, 2, seed=0))
    # n_samples == dim is the smallest dataset accepted
    LogisticProblem.check_shape(8, 8)
    assert LogisticProblem(synthetic_blobs(8, 8, 2, seed=0)).dim == 8
    with pytest.raises(ValueError):
        LogisticProblem(synthetic_blobs(64, 4, 3, seed=0))
    # Finite features whose X'X overflows leave no Lipschitz constant, and
    # say so without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="X'X overflows"):
            LogisticProblem(synthetic_blobs(64, 4, 2, seed=0, separation=1e160))


def test_logistic_full_gradient_is_mean_of_per_sample():
    prob = LogisticProblem(synthetic_blobs(64, 6, 2, seed=1))
    rng = np.random.default_rng(0)
    w = rng.normal(size=6)
    singles = [prob.loss_and_grad(w, [i])[1] for i in range(64)]
    assert np.allclose(np.mean(singles, axis=0),
                       prob.loss_and_grad(w, None)[1], rtol=1e-10, atol=1e-14)


def test_unbiasedness_over_epoch_partition():
    # Mean of equal-size batch gradients over one epoch = full gradient.
    for prob in (LogisticProblem(synthetic_blobs(128, 6, 2, seed=2)),
                 MlpProblem((4, 5, 3), synthetic_blobs(32, 4, 3, seed=6))):
        rng = np.random.default_rng(1)
        x = prob.initial_point(rng)
        stream = batch_stream(prob.n_samples, 8, seed=4)
        batches = [next(stream) for _ in range(prob.n_samples // 8)]
        mean = np.mean([prob.loss_and_grad(x, b)[1] for b in batches],
                       axis=0)
        full = prob.loss_and_grad(x, None)[1]
        assert np.all(np.abs(mean - full) <= 1e-10 * np.maximum(1.0, np.abs(full)))


def test_far_separated_blobs_train_to_near_zero_loss():
    # Mean gap of ten cluster widths: full-batch descent at rate 0.5 drives
    # the cross-entropy under 0.1 well inside 500 steps.
    prob = LogisticProblem(synthetic_blobs(512, 8, 2, seed=3,
                                           separation=10.0))
    w = np.zeros(8)
    for _ in range(500):
        w = w - 0.5 * prob.loss_and_grad(w, None)[1]
    assert prob.loss(w) < 0.1


def test_logistic_sgd_run_decreases_loss():
    # Frozen reference trajectory: 2000 steps, rate 0.1, batch 16, seed 7.
    prob = LogisticProblem(synthetic_blobs(2048, 20, 2, seed=7))
    w = np.zeros(20)
    initial = prob.loss(w)
    stream = batch_stream(2048, 16, seed=7)
    for _ in range(2000):
        _, g = prob.loss_and_grad(w, next(stream))
        w = w - 0.1 * g
    final = prob.loss(w)
    assert final < initial
    assert abs(final - 0.053730624776038) <= 1e-9


def test_lipschitz_constant_bounds_gradient_differences():
    rng = np.random.default_rng(9)
    logistic = LogisticProblem(synthetic_blobs(128, 5, 2, seed=8))
    for prob, scale in ((QuadraticProblem([0.5, 2.0, 5.0]), 4.0),
                        (logistic, 3.0)):
        L = prob.L
        for _ in range(100):
            x = rng.normal(size=prob.dim) * scale
            y = rng.normal(size=prob.dim) * scale
            lhs = np.linalg.norm(prob.loss_and_grad(x, None)[1]
                                 - prob.loss_and_grad(y, None)[1])
            assert lhs <= L * np.linalg.norm(x - y) + 1e-10
    # The logistic bound is lambda_max(X'X) / (4n), the square of X's
    # largest singular value over 4n, not merely some upper bound.
    X = logistic.dataset.features
    assert math.isclose(logistic.L, np.linalg.norm(X, 2) ** 2 / (4 * len(X)),
                        rel_tol=1e-12)


def test_mlp_uniform_logits_loss():
    # Zero weights give identical logits, so loss is ln(num_classes).
    ds = synthetic_blobs(12, 4, 3, seed=1)
    prob = MlpProblem((4, 6, 3), ds)
    assert abs(prob.loss(np.zeros(prob.dim)) - math.log(3.0)) < 1e-12
    # smallest case: a single linear layer on one sample
    one = synthetic_blobs(2, 4, 2, seed=1)
    single = MlpProblem((4, 2), one)
    assert abs(single.loss_and_grad(np.zeros(single.dim), np.array([0]))[0]
               - math.log(2.0)) < 1e-12


def test_mlp_gradient_matches_fd_small_batch():
    ds = synthetic_blobs(3, 5, 3, seed=4)
    prob = MlpProblem((5, 4, 3), ds)
    x = prob.initial_point(np.random.default_rng(12))
    analytic = prob.loss_and_grad(x, None)[1]
    fd = finite_difference_gradient(prob, x, 1e-5)
    assert np.all(np.abs(fd - analytic) <= 1e-4 * np.maximum(1.0, np.abs(analytic)))


def test_mlp_dead_relu_zeroes_first_layer_gradient():
    ds = synthetic_blobs(8, 3, 2, seed=2)
    ds.features[:] = np.abs(ds.features)   # nonnegative inputs
    prob = MlpProblem((3, 4, 2), ds)
    x = np.zeros(prob.dim)
    segs = dict(prob.segments)
    x[segs["b1"]] = -1.0                   # all first-layer pre-activations < 0
    grad = prob.loss_and_grad(x, None)[1]
    assert np.all(grad[segs["W1"]] == 0.0)
    assert np.all(grad[segs["b1"]] == 0.0)


def test_mlp_layout_and_validation():
    ds = synthetic_blobs(10, 4, 2, seed=0)
    prob = MlpProblem((4, 3, 2), ds)
    assert [name for name, _ in prob.segments] == ["W1", "b1", "W2", "b2"]
    assert prob.dim == 4 * 3 + 3 + 3 * 2 + 2
    with pytest.raises(ValueError, match="input width 5 != feature dim 4"):
        MlpProblem((5, 3, 2), ds)
    with pytest.raises(ValueError, match="output width 3 != classes 2"):
        MlpProblem((4, 3, 3), ds)
    with pytest.raises(ValueError,
                       match="layer_sizes needs an input and an output width"):
        MlpProblem((4,), ds)
    # A zero width fails here, not later in initial_point's 1/sqrt(0).
    with pytest.raises(ValueError, match="every layer width must be >= 1"):
        MlpProblem((4, 0, 2), ds)


def _per_layer_loss_grad(sizes, dataset, x, batch):
    """The MLP oracle with one gradient piece per layer, collected backwards,
    reversed and joined, an out-of-place ReLU and a two-pass softmax (row
    max and exp computed once for the loss and again for the
    probabilities): the form the flat views and the one-pass softmax must
    reproduce. Returns (loss, grad, logits)."""
    params, offset = [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        W = x[offset:offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        params.append((W, x[offset:offset + n_out]))
        offset += n_out
    X, Y = dataset.features, np.eye(sizes[-1])[dataset.labels]
    if batch is not None:
        X, Y = X[batch], Y[batch]
    activations, pre, a = [X], [], X
    for j, (W, b) in enumerate(params):
        z = a @ W + b
        pre.append(z)
        a = np.maximum(z, 0.0) if j < len(params) - 1 else z
        activations.append(a)
    logits = activations[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    loss = float(np.mean(logsumexp - (logits * Y).sum(axis=1)))
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    delta = (probs - Y) / len(X)
    grads = []
    for j in range(len(params) - 1, -1, -1):
        grads.append((activations[j].T @ delta, delta.sum(axis=0)))
        if j > 0:
            delta = (delta @ params[j][0].T) * (pre[j - 1] > 0.0)
    grads.reverse()
    return loss, np.concatenate([g for gW, gb in grads
                                 for g in (gW.ravel(), gb)]), logits


@pytest.mark.parametrize("sizes", [(10, 3), (10, 16, 8, 3),
                                   (10, 16, 16, 8, 3)])
def test_mlp_gradient_and_initial_point_follow_the_segment_layout(sizes):
    dataset = synthetic_blobs(64, sizes[0], sizes[-1], seed=5)
    prob = MlpProblem(sizes, dataset)
    widths = [n_in * n_out + n_out for n_in, n_out in zip(sizes, sizes[1:])]
    assert prob.dim == sum(widths) == sum(
        sl.stop - sl.start for _, sl in prob.segments)

    rng = np.random.default_rng(11)
    draws = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(n_in)
        draws += [rng.uniform(-bound, bound, n_in * n_out),
                  rng.uniform(-bound, bound, n_out)]
    x = prob.initial_point(np.random.default_rng(11))
    assert np.array_equal(x, np.concatenate(draws))

    batch = np.random.default_rng(2).choice(64, 16, replace=False)
    for b in (batch, None):
        loss, grad = prob.loss_and_grad(x, b)
        ref_loss, ref_grad, _ = _per_layer_loss_grad(sizes, dataset, x, b)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
    # Each call returns a fresh gradient array.
    again = prob.loss_and_grad(x, batch)[1]
    assert not np.shares_memory(again, prob.loss_and_grad(x, batch)[1])


def _mask_split_sigmoid(z):
    p = np.empty_like(z)
    pos = z >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    p[~pos] = ez / (1.0 + ez)
    return p


def _mask_split_logistic_loss_grad(dataset, w, batch):
    """The logistic oracle with labels cast on every call, np.mean, and a
    sigmoid split on the sign of z by boolean masks: the form the
    one-exponential sigmoid must reproduce. Returns (loss, grad, z)."""
    X, y = dataset.features, dataset.labels
    if batch is not None:
        X, y = X[batch], y[batch]
    y = y.astype(np.float64)
    z = X @ w
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return loss, X.T @ (_mask_split_sigmoid(z) - y) / y.size, z


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("sizes", [None, (6, 3), (6, 16, 8, 3)],
                         ids=["logistic", "mlp-6-3", "mlp-6-16-8-3"])
def test_oracles_match_their_reference_forms_byte_for_byte(sizes):
    # Batches of 1-40 rows (most lengths no multiple of a SIMD width), at
    # zero weights, at the initial point, and with the output layer scaled
    # so that |z| reaches 800, where exp(-|z|) underflows to zero. Row 0
    # is all zeros, so every logistic batch has a z of exactly 0.0.
    dataset = synthetic_blobs(64, 6, 2 if sizes is None else sizes[-1],
                              seed=5)
    dataset.features[0] = 0.0
    if sizes is None:
        prob, reference, output = (LogisticProblem(dataset),
                                   _mask_split_logistic_loss_grad, 0)
    else:
        prob = MlpProblem(sizes, dataset)
        reference = functools.partial(_per_layer_loss_grad, sizes)
        output = prob.segments[-2][1].start
    x = prob.initial_point(np.random.default_rng(3))
    z_max = np.abs(reference(dataset, x, None)[2]).max()
    saturated = x.copy()
    saturated[output:] *= 800.0 / z_max
    assert 790.0 < np.abs(reference(dataset, saturated, None)[2]).max()
    for w in (np.zeros(prob.dim), x, saturated):
        for size in range(1, 41):
            batch = np.arange(size) * 37 % 64
            loss, grad = prob.loss_and_grad(w, batch)
            ref_loss, ref_grad, _ = reference(dataset, w, batch)
            assert _bits(loss) == _bits(ref_loss)
            assert grad.tobytes() == ref_grad.tobytes()
        ref_loss, ref_grad, _ = reference(dataset, w, None)
        assert _bits(prob.loss(w)) == _bits(ref_loss)
        assert prob.loss_and_grad(w, None)[1].tobytes() == ref_grad.tobytes()


def test_one_exponential_sigmoid_and_add_reduce_mean_match_the_old_forms():
    # X @ w does not yield -0.0 (its sum starts at +0.0), so the
    # identities the logistic oracle relies on are also checked directly,
    # on vectors with +-0.0, +-inf, and entries where exp overflows
    # (709.8) or underflows to zero (745.2).
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 709.8, -709.8, 745.2,
                        -745.2])
    for _ in range(2000):
        z = rng.normal(scale=300.0, size=rng.integers(1, 70))
        hits = rng.random(z.size) < 0.3
        z[hits] = rng.choice(special, hits.sum())
        t = np.exp(-np.abs(z))
        assert (np.where(z >= 0, 1.0, t) / (1.0 + t)).tobytes() == \
            _mask_split_sigmoid(z).tobytes()
        finite = np.where(np.isfinite(z), z, 1.0)
        assert _bits(np.add.reduce(finite) / finite.size) == \
            _bits(np.mean(finite))


def test_estimate_sigma_identity_quadratic():
    prob = QuadraticProblem(np.ones(2))
    sigma = estimate_sigma(prob, 500, radius=5.0, rng=np.random.default_rng(3))
    assert abs(sigma - 5.5) < 0.2


def test_estimate_sigma_zero_problem():
    prob = QuadraticProblem(np.zeros(3))
    assert estimate_sigma(prob, 50) == 0.0


def test_estimate_sigma_monotone_in_radius():
    prob = QuadraticProblem(np.ones(3))
    values = [estimate_sigma(prob, 200, radius=r, rng=np.random.default_rng(5))
              for r in (1.0, 2.0, 4.0)]
    assert values[0] <= values[1] <= values[2]


def test_forward_only_loss_matches_loss_and_grad_bit_for_bit():
    # loss() reads the dataset in place and skips the backward pass; the
    # value must equal the one-pass oracle over every index exactly.
    blobs = synthetic_blobs(96, 6, 3, seed=4)
    for prob in (LogisticProblem(synthetic_blobs(96, 6, 2, seed=5)),
                 MlpProblem((6, 7, 3), blobs)):
        x = prob.initial_point(np.random.default_rng(2))
        loss, grad = prob.loss_and_grad(x, np.arange(prob.n_samples))
        assert prob.loss(x) == loss
        assert prob.loss_and_grad(x, None)[1].tobytes() == grad.tobytes()


def test_deterministic_loss_and_grad_loss_is_the_forward_only_loss():
    for prob, x in ((QuadraticProblem([1.0, 3.0]), np.array([2.0, -1.0])),
                    (RosenbrockProblem(), np.array([-1.2, 1.0]))):
        assert prob.loss_and_grad(x, None)[0] == prob.loss(x)
