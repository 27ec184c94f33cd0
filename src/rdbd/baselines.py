"""The Adam baseline and the composition that lets the revertible scheduler
drive Adam's global rate per vector. Plain SGD is `schedulers.plain_step`."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import GradientEstimate, ParamVector, ScheduleState, StepOutcome
from .schedulers import rdbd_step


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
    """Fold the gradient g into the moments, in place, and return the
    bias-corrected direction u = m_hat / (sqrt(v_hat) + eps_hat)."""
    if g.size != state.m.size:
        raise ValueError(f"gradient dim {g.size} != moment dim {state.m.size}")
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g ** 2
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    return m_hat / (np.sqrt(v_hat) + state.eps_hat)


def adam_step(state: AdamState, x: ParamVector, g: GradientEstimate,
              alpha: float):
    """One Adam step at fixed rate alpha.

    Returns (new_x, new_state, u_t) where u_t is the bias-corrected
    direction, so callers can feed it to a scheduler as the weight update.
    The input state is left unchanged.
    """
    if g.dim != x.dim:
        raise ValueError(f"gradient dim {g.dim} != vector dim {x.dim}")
    new_state = dataclasses.replace(state)
    u = adam_advance(new_state, g.values)
    return x.values - alpha * u, new_state, u


def adam_rdbd_step(adam: AdamState, sched: ScheduleState, x: ParamVector,
                   g: GradientEstimate) -> StepOutcome:
    """Adam direction, rate scheduled by the revertible rule.

    The bias-corrected direction u_t plays the role of the weight update:
    it feeds both the agreement dot product and the descent step, so the
    scheduler tunes Adam's global rate for this vector. The Adam moments
    are advanced in place; sched advances as in rdbd_step. Callers should
    keep sched.alpha_max finite: with near-unit-norm directions the rate
    otherwise ratchets upward on any long agreement streak.
    """
    if g.dim != x.dim:
        raise ValueError(f"gradient dim {g.dim} != vector dim {x.dim}")
    u = adam_advance(adam, g.values)
    return rdbd_step(sched, x, GradientEstimate(u, step=g.step))
