"""The Adam baseline: moment accumulators and the bias-corrected direction
that the harness applies at a fixed rate (`adam`) or feeds to
`schedulers.FlatSchedule` as the update direction (`adam_rdbd`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    """First/second moment accumulators plus the decay constants."""

    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.05
    beta2: float = 0.99
    eps_hat: float = 1e-8
    step: int = 0

    def __post_init__(self):
        if not (0 <= self.beta1 < 1) or not (0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.eps_hat <= 0:
            raise ValueError("eps_hat must be > 0")
        self.m = np.asarray(self.m, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)

    @classmethod
    def fresh(cls, dim, beta1=0.05, beta2=0.99, eps_hat=1e-8):
        return cls(m=np.zeros(int(dim)), v=np.zeros(int(dim)),
                   beta1=beta1, beta2=beta2, eps_hat=eps_hat, step=0)


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

