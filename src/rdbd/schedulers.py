"""Learning-rate schedulers driven by the agreement of consecutive updates.

The base rule raises the rate by eta times the dot product of the current
and previous update directions (agreement -> larger steps, opposition ->
smaller steps). The revertible variant additionally watches the sign of
that dot product: when it flips relative to the previous step, the previous
rate increment is judged biased and undone, both on the rate and on the
weight displacement it caused, before the current step proceeds.

`FlatSchedule.step` is the one kernel for both rules, over every weight
group of a flat vector; the direction it is fed is the gradient or an Adam
direction. A schedule is built from a run's settings and owns its state; a
single group is `FlatSchedule([slice(None)], n, alpha0, eta, lo, hi)`.
"""

from __future__ import annotations

import math

import numpy as np


class FlatSchedule:
    """Scheduler state of every weight group of one flat weight vector.

    Entry k of `alpha`, `prev_dot` and `applied` belongs to the weights
    `x[segments[k]]`; `prev_update` is the previous direction over the
    whole `dim`-long vector. A new schedule has every rate at `alpha0`,
    `prev_dot` and `applied` at 0.0 and a zero `prev_update`. Raises
    ValueError unless eta is finite and >= 0 and alpha_min <= alpha_max.
    """

    def __init__(self, segments, dim, alpha0, eta, alpha_min, alpha_max):
        if not math.isfinite(eta):
            raise ValueError("eta must be finite")
        if not eta >= 0:
            raise ValueError("eta must be >= 0")
        if not alpha_min <= alpha_max:
            raise ValueError("alpha_min must be <= alpha_max")
        self.segments = segments
        self.alpha = [alpha0] * len(segments)
        self.prev_dot, self.applied = [0.0] * len(segments), [0.0] * len(segments)
        self.prev_update = np.zeros(dim)
        self.eta, self.alpha_min, self.alpha_max = eta, alpha_min, alpha_max

    def step(self, x, d, revert):
        """One delta-bar-delta step of every group; x descends in place.

        Per group, h = <d, prev_update> on its segment. With `revert`, a
        sign flip (h * prev_dot < 0) first undoes the previous increment on
        the rate and on the weights (+applied*prev). The rate then moves by
        eta*h and clamps to [alpha_min, alpha_max]; `applied` keeps the
        increment that survived the clamp (exactly eta*h when it did not
        bind). The segment descends along d at the new rate. d must be
        computed at the current, un-reverted weights. It becomes the next
        prev_update without a copy, so the caller must not modify it.
        Returns the per-group lists (h, reverted). Raises ValueError
        unless x, d and prev_update have one shape.
        """
        if not x.shape == d.shape == self.prev_update.shape:
            raise ValueError(f"shapes differ: x {x.shape}, d {d.shape}, "
                             f"prev_update {self.prev_update.shape}")
        hs, flags = [], []
        for k, sl in enumerate(self.segments):
            xk, dk, prev = x[sl], d[sl], self.prev_update[sl]
            h = float(np.dot(dk, prev))
            alpha = self.alpha[k]
            reverted = revert and h * self.prev_dot[k] < 0.0
            if reverted:
                xk += self.applied[k] * prev
                alpha -= self.applied[k]
            raw = alpha + self.eta * h
            new_alpha = min(max(raw, self.alpha_min), self.alpha_max)
            self.applied[k] = (self.eta * h if new_alpha == raw
                               else new_alpha - alpha)
            xk -= new_alpha * dk
            self.alpha[k], self.prev_dot[k] = new_alpha, h
            hs.append(h)
            flags.append(reverted)
        self.prev_update = d
        return hs, flags
