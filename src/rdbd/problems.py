"""Loss/gradient oracles with known constants, so bound formulas have
something checkable to run against: closed-form quadratics, the classic
banana valley, mini-batch logistic regression over a two-class dataset,
and a small ReLU network with a hand-derived backward pass."""

from __future__ import annotations

import numpy as np

from .data import Dataset


class Problem:
    """Base oracle: a loss over a flat parameter vector of length dim.

    `segments` holds one (id, slice) pair per schedulable weight group, cut
    from `layout`'s (id, size) pairs; by default one group, ("x", dim).
    `dim` is the total length of the segments, so a layout gives it alone.
    `n_samples` is the length of `dataset`, 0 for deterministic problems.

    Subclasses implement the one oracle, _loss_grad(x, batch,
    need_grad=True): the per-sample mean loss and gradient over the dataset
    rows `batch` from a single pass, or over every row, read in place, when
    batch is None; deterministic problems ignore batch. Without need_grad it
    skips the backward pass and returns (loss, None). loss_and_grad(x,
    batch) is the one oracle call per step, and loss_and_grad(x, None)
    the whole-dataset loss and gradient; loss(x) is the forward-only
    whole-dataset loss.
    """

    def __init__(self, dim=None, layout=None, known_constants=None,
                 dataset=None):
        self.segments = []
        offset = 0
        for name, size in layout or [("x", int(dim))]:
            self.segments.append((name, slice(offset, offset + size)))
            offset += size
        self.dim = offset
        self.known_constants = dict(known_constants or {})
        self.dataset = dataset
        self.n_samples = 0 if dataset is None else len(dataset)

    def _loss_grad(self, x, batch, need_grad=True):
        raise NotImplementedError

    def loss(self, x) -> float:
        return self._loss_grad(np.asarray(x, float), None, need_grad=False)[0]

    def loss_and_grad(self, x, batch) -> tuple[float, np.ndarray]:
        return self._loss_grad(np.asarray(x, float), batch)

    def initial_point(self, rng) -> np.ndarray:
        return np.ones(self.dim)


class QuadraticProblem(Problem):
    """f(x) = x'Ax/2 - b'x with A symmetric PSD; gradient Ax - b."""

    def __init__(self, A, b=None):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        eigs = np.linalg.eigvalsh(A)
        if eigs[0] < -1e-10:
            raise ValueError("A must be positive semidefinite")
        dim = A.shape[0]
        b = np.zeros(dim) if b is None else np.asarray(b, dtype=np.float64)
        if b.shape != (dim,):
            raise ValueError("b length must match A")

        constants = {"L": float(eigs[-1])}
        if eigs[0] > 1e-12:
            minimizer = np.linalg.solve(A, b)
            constants["minimizer"] = minimizer
            constants["f_star"] = float(0.5 * minimizer @ A @ minimizer - b @ minimizer)
        super().__init__(dim, known_constants=constants)
        self.A = A
        self.b = b

    def _loss_grad(self, x, batch, need_grad=True):
        loss = float(0.5 * x @ self.A @ x - self.b @ x)
        return loss, (self.A @ x - self.b if need_grad else None)


class RosenbrockProblem(Problem):
    """f(x, y) = (1-x)^2 + 100(y - x^2)^2; minimum 0 at (1, 1)."""

    def __init__(self):
        super().__init__(2, known_constants={"f_star": 0.0,
                                             "minimizer": np.array([1.0, 1.0])})

    def _loss_grad(self, p, batch, need_grad=True):
        x, y = p
        loss = float((1.0 - x) ** 2 + 100.0 * (y - x ** 2) ** 2)
        if not need_grad:
            return loss, None
        return loss, np.array([
            -2.0 * (1.0 - x) - 400.0 * x * (y - x ** 2),
            200.0 * (y - x ** 2),
        ])

    def initial_point(self, rng):
        return np.array([-1.2, 1.0])


class LogisticProblem(Problem):
    """Binary cross-entropy with a sigmoid link over a two-class dataset."""

    def __init__(self, dataset: Dataset):
        X = dataset.features
        n, dim = X.shape
        if dataset.num_classes != 2:
            raise ValueError(f"need two classes, got {dataset.num_classes}")
        self.check_shape(n, dim)
        # sigmoid' <= 1/4 makes lambda_max(X'X)/(4n) a Lipschitz constant.
        with np.errstate(over="ignore"):
            gram = X.T @ X
        if not np.isfinite(gram).all():
            raise ValueError("features too large: X'X overflows")
        L = float(np.linalg.eigvalsh(gram)[-1] / (4.0 * n))
        super().__init__(dim, known_constants={"L": L}, dataset=dataset)
        self._y = dataset.labels.astype(np.float64)

    @staticmethod
    def check_shape(n, dim):
        """The dataset shape rule, checkable before any row is drawn."""
        if n < dim:
            raise ValueError("logistic needs n_samples >= dim")

    def _loss_grad(self, w, batch, need_grad=True):
        X, y = self.dataset.features, self._y
        if batch is not None:
            X, y = X[batch], y[batch]
        z = X @ w
        loss = float(np.add.reduce(np.logaddexp(0.0, z) - y * z) / y.size)
        if not need_grad:
            return loss, None
        # Overflow-safe sigmoid: t = exp(-|z|) never overflows, and is
        # exactly exp(-z) where z >= 0 and exp(z) elsewhere.
        t = np.exp(-np.abs(z))
        p = np.where(z >= 0, 1.0, t) / (1.0 + t)
        grad = X.T @ (p - y) / y.size
        return loss, grad

    def initial_point(self, rng):
        bound = 1.0 / np.sqrt(self.dim)
        return rng.uniform(-bound, bound, self.dim)


class MlpProblem(Problem):
    """Fully connected ReLU network, softmax outputs, mean cross-entropy.

    One parameter segment per weight matrix and per bias vector, so every
    tensor can carry its own scheduled rate. Backward pass is written out
    by hand (no autodiff).
    """

    def __init__(self, layer_sizes, dataset: Dataset):
        layer_sizes = tuple(int(s) for s in layer_sizes)
        if len(layer_sizes) < 2:
            raise ValueError("need at least one weight matrix")
        if layer_sizes[0] != dataset.dim:
            raise ValueError(
                f"input width {layer_sizes[0]} != feature dim {dataset.dim}")
        if layer_sizes[-1] != dataset.num_classes:
            raise ValueError(
                f"output width {layer_sizes[-1]} != classes {dataset.num_classes}")

        layout = []
        for i in range(1, len(layer_sizes)):
            layout.append((f"W{i}", layer_sizes[i - 1] * layer_sizes[i]))
            layout.append((f"b{i}", layer_sizes[i]))
        super().__init__(layout=layout, dataset=dataset)
        self.layer_sizes = layer_sizes
        self._onehot = np.eye(dataset.num_classes)[dataset.labels]

    def _unpack(self, x):
        views = [x[sl] for _, sl in self.segments]
        shapes = zip(self.layer_sizes, self.layer_sizes[1:])
        return [(W.reshape(shape), b)
                for W, b, shape in zip(views[::2], views[1::2], shapes)]

    def _loss_grad(self, x, batch, need_grad=True):
        params = self._unpack(x)
        X, Y = self.dataset.features, self._onehot
        if batch is not None:
            X, Y = X[batch], Y[batch]

        activations = [X]  # X may be the read-only dataset; z is always fresh
        for j, (W, b) in enumerate(params):
            z = activations[-1] @ W
            z += b
            activations.append(np.maximum(z, 0.0, out=z) if j < len(params) - 1 else z)

        logits = activations[-1]
        top = np.maximum.reduce(logits, axis=1)
        probs = np.exp(logits - top[:, None])
        total = np.add.reduce(probs, axis=1)
        v = np.log(total) + top - np.add.reduce(logits * Y, axis=1)
        loss = float(np.add.reduce(v) / v.size)
        if not need_grad:
            return loss, None

        probs /= total[:, None]
        delta = (probs - Y) / len(X)
        grad = np.empty(self.dim)  # the layer views below cover all of it
        for j, (gW, gb) in reversed(list(enumerate(self._unpack(grad)))):
            np.matmul(activations[j].T, delta, out=gW)
            np.add.reduce(delta, axis=0, out=gb)
            if j > 0:
                delta = delta @ params[j][0].T
                delta *= activations[j] > 0.0
        return loss, grad

    def initial_point(self, rng):
        x = np.empty(self.dim)
        for W, b in self._unpack(x):
            bound = 1.0 / np.sqrt(W.shape[0])
            W[...] = rng.uniform(-bound, bound, W.shape)
            b[...] = rng.uniform(-bound, bound, b.size)
        return x
