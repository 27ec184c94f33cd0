"""The Adam baseline: moment accumulators and the bias-corrected direction
that the harness feeds to `schedulers.FlatSchedule` as the update direction,
at a fixed rate (`adam`) or a scheduled one (`adam_rdbd`)."""

from __future__ import annotations

import math

import numpy as np


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


def adam_advance(state: AdamState, g) -> np.ndarray:
    """Fold the gradient g into the moments, rebinding `state.m` and
    `state.v` to new arrays, and return the bias-corrected direction
    u = m_hat / (sqrt(v_hat) + eps_hat)."""
    if g.size != state.m.size:
        raise ValueError(f"gradient dim {g.size} != moment dim {state.m.size}")
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g ** 2
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    return m_hat / (np.sqrt(v_hat) + state.eps_hat)

