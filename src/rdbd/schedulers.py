"""Learning-rate schedulers driven by the agreement of consecutive updates.

The base rule raises the rate by eta times the dot product of the current
and previous update directions (agreement -> larger steps, opposition ->
smaller steps). The revertible variant additionally watches the sign of
that dot product: when it flips relative to the previous step, the previous
rate increment is judged biased and undone, both on the rate and on the
weight displacement it caused, before the current step proceeds.

`FlatSchedule.step` is the one kernel for every rate rule (`fixed`, `dbd`,
`rdbd`) over every weight group of a flat vector; it also computes each
group's direction norm, the trace's `grad_norm`. A schedule owns its state;
a single group is `FlatSchedule([slice(None)], n, alpha0, eta, lo, hi, rule)`.
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
    alpha_max, not NaN.
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
        for name, bound in (("alpha_min", alpha_min), ("alpha_max", alpha_max)):
            if math.isnan(bound):
                raise ValueError(f"{name} must not be NaN")
        if not alpha_min <= alpha_max:
            raise ValueError("alpha_min must be <= alpha_max")
        self.segments, self.dim, self.rule = segments, dim, rule
        self.alpha0, self.alpha = alpha0, [alpha0] * len(segments)
        self.prev_dot, self.applied = [0.0] * len(segments), [0.0] * len(segments)
        self.prev_update = None if rule == "fixed" else np.zeros(dim)
        self.eta, self.alpha_min, self.alpha_max = eta, alpha_min, alpha_max

    def step(self, x, d):
        """One step of the rule over every group; x descends in place.

        Under `fixed`, x -= alpha0 * d. Otherwise, per group, h = <d,
        prev_update> on its segment; under `rdbd`, a sign flip (h * prev_dot
        < 0) first undoes the previous increment on the rate and on the
        weights (+applied*prev). The rate then moves by eta*h and clamps to
        [alpha_min, alpha_max]; `applied` keeps the increment that survived
        the clamp (exactly eta*h when it did not bind). The segment descends
        along d at the new rate. d, computed at the un-reverted weights,
        becomes the next prev_update without a copy: do not modify it.
        Returns the per-group lists (norm of d, alpha, h, reverted), h 0.0
        and no flag under `fixed`. ValueError unless x, d have shape (dim,).
        """
        if not x.shape == d.shape == (self.dim,):
            raise ValueError(f"shapes differ: x {x.shape}, d {d.shape}, "
                             f"schedule ({self.dim},)")
        if self.rule == "fixed":
            norms = [_norm(d[sl]) for sl in self.segments]
            x -= self.alpha0 * d
            return norms, self.alpha, [0.0] * len(norms), [False] * len(norms)
        norms, hs, flags = [], [], []
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
            norms.append(_norm(dk))
            hs.append(h)
            flags.append(reverted)
        self.prev_update = d
        return norms, list(self.alpha), hs, flags


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
