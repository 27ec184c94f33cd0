"""The two step kernels of a run: the rate rule, driven by the agreement of
consecutive updates, and the Adam direction that it may descend along.

The base rule raises the rate by eta times the dot product of the current
and previous update directions (agreement -> larger steps, opposition ->
smaller steps), the last direction only: the hypergradient form of Baydin
et al. (2018), not Jacobs' (1988) exponential average, the "bar". The
revertible variant additionally watches the sign of that dot product: when
it flips relative to the previous step, the previous rate increment is
judged biased and undone, both on the rate and on the weight displacement
it caused, before the current step proceeds.

`FlatSchedule.step(x, d, out)` is the one kernel for every rate rule
(`fixed`, `dbd`, `rdbd`) over every weight group of a flat vector; it
writes each group's direction norm, rate, h and revert flag into its row of
`out`, a `(groups, 4)` block: in a run, the trace row's group cells. A
schedule owns its state; a single group is `FlatSchedule([slice(None)], n,
alpha0, eta, lo, hi, rule)`. The direction is the gradient, or
`AdamState.advance(g)`, Adam's bias-corrected `u`, at a fixed rate (`adam`)
or a scheduled one (`adam_rdbd`).
"""

from __future__ import annotations

import math

import numpy as np


class FlatSchedule:
    """Scheduler state of every weight group of one flat weight vector.

    Entry k of `alpha`, `prev_dot` and `applied` belongs to the weights
    `x[segments[k]]`; `prev_update`, the previous direction over the whole
    `dim`-long vector, starts at zero (None under `fixed`), every rate at
    `alpha0`, `prev_dot` and `applied` at 0.0. ValueError unless the rule
    is known, alpha0 is finite, eta is finite and >= 0, and alpha_min <=
    alpha_max, neither NaN, alpha_min not +inf and alpha_max not -inf.
    """

    def __init__(self, segments, dim, alpha0, eta, alpha_min, alpha_max, rule):
        if rule not in ("fixed", "dbd", "rdbd"):
            raise ValueError(f"unknown rate rule {rule!r}")
        if not math.isfinite(alpha0):
            raise ValueError("alpha0 must be finite")
        if not math.isfinite(eta):
            raise ValueError("eta must be finite")
        if not eta >= 0:
            raise ValueError("eta must be >= 0")
        for name, bound, wrong in (("alpha_min", alpha_min, math.inf),
                                   ("alpha_max", alpha_max, -math.inf)):
            if math.isnan(bound):
                raise ValueError(f"{name} must not be NaN")
            if bound == wrong:
                raise ValueError(f"{name} must not be {wrong:+}")
        if not alpha_min <= alpha_max:
            raise ValueError("alpha_min must be <= alpha_max")
        self.segments, self.dim, self.rule = segments, dim, rule
        self.alpha0, self.alpha = alpha0, [alpha0] * len(segments)
        self.prev_dot, self.applied = [0.0] * len(segments), [0.0] * len(segments)
        self.prev_update = None if rule == "fixed" else np.zeros(dim)
        self.eta, self.alpha_min, self.alpha_max = eta, alpha_min, alpha_max

    def step(self, x, d, out):
        """One step of the rule over every group; x descends in place, and
        row k of the (groups, 4) float array `out` gets group k's (norm of
        d, alpha, h, reverted), or (norm, alpha0, 0.0, 0.0) under `fixed`.

        Under `fixed`, x -= alpha0 * d. Otherwise, per group, h = <d,
        prev_update> on its segment; under `rdbd`, a sign flip (h * prev_dot
        < 0) first undoes the previous increment on the rate and on the
        weights (+applied*prev). The rate then moves by eta*h and clamps to
        [alpha_min, alpha_max]; `applied` keeps the increment that survived
        the clamp (exactly eta*h when it did not bind). The segment descends
        along d at the new rate. d, computed at the un-reverted weights,
        becomes the next prev_update without a copy: do not modify it.
        ValueError unless x, d have shape (dim,) and out (groups, 4).
        """
        dim, block = (self.dim,), (len(self.segments), 4)
        if not (x.shape, d.shape, out.shape) == (dim, dim, block):
            raise ValueError(f"shapes differ: x {x.shape}, d {d.shape}, "
                             f"out {out.shape}, schedule {dim} and {block}")
        if self.rule == "fixed":
            for k, sl in enumerate(self.segments):
                out[k] = _norm(d[sl]), self.alpha0, 0.0, 0.0
            x -= self.alpha0 * d
            return
        for k, sl in enumerate(self.segments):
            xk, dk, prev = x[sl], d[sl], self.prev_update[sl]
            h = float(np.dot(dk, prev))
            alpha = self.alpha[k]
            reverted = self.rule == "rdbd" and h * self.prev_dot[k] < 0.0
            if reverted:
                xk += self.applied[k] * prev
                alpha -= self.applied[k]
            raw = alpha + self.eta * h
            new_alpha = min(max(raw, self.alpha_min), self.alpha_max)
            self.applied[k] = (self.eta * h if new_alpha == raw
                               else new_alpha - alpha)
            xk -= new_alpha * dk
            self.alpha[k], self.prev_dot[k] = new_alpha, h
            out[k] = _norm(dk), new_alpha, h, reverted
        self.prev_update = d


class AdamState:
    """First/second moment accumulators of `dim` weights, zero before the
    first step, and the decay constants. Raises ValueError unless beta1
    and beta2 lie in [0, 1) and eps_hat is finite and > 0."""

    def __init__(self, dim, beta1, beta2, eps_hat):
        if not 0 <= beta1 < 1:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0 <= beta2 < 1:
            raise ValueError("beta2 must lie in [0, 1)")
        if not 0 < eps_hat < math.inf:
            raise ValueError("eps_hat must be finite and > 0")
        self.m, self.v = np.zeros(dim), np.zeros(dim)
        self.beta1, self.beta2, self.eps_hat = beta1, beta2, eps_hat
        self.step = 0

    def advance(self, g) -> np.ndarray:
        """Fold the gradient g into the moments, rebinding `m` and `v` to
        new arrays, and return the bias-corrected direction
        u = m_hat / (sqrt(v_hat) + eps_hat). ValueError unless g has the
        moments' shape."""
        if g.shape != self.m.shape:
            raise ValueError(f"gradient shape {g.shape} != moment shape "
                             f"{self.m.shape}")
        self.step += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g ** 2
        m_hat = self.m / (1.0 - self.beta1 ** self.step)
        v_hat = self.v / (1.0 - self.beta2 ** self.step)
        return m_hat / (np.sqrt(v_hat) + self.eps_hat)


def _norm(v) -> float:
    """sqrt(v . v), rescaled by the largest magnitude of v where v . v
    overflows, so that finite entries get their finite norm."""
    norm = math.sqrt(np.dot(v, v))
    if norm == math.inf:
        scale = float(np.abs(v).max())
        if math.isfinite(scale):
            v = v / scale
            norm = scale * math.sqrt(np.dot(v, v))
    return norm
