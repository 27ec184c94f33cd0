"""Shared domain types for the scheduler library: weight vectors, gradient
estimates, per-vector scheduler state, and the constants feeding the bound
calculators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_vector(values, name="values"):
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def dot(a, b) -> float:
    """Inner product sum(a_i * b_i). Raises ValueError on length mismatch."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


class ParamVector:
    """A named weight vector with its dimension fixed at construction."""

    def __init__(self, id, values):
        v = _as_vector(values)
        if v.size < 1:
            raise ValueError("ParamVector must have length >= 1")
        self.id = str(id)
        self.values = v.copy()

    @property
    def dim(self) -> int:
        return self.values.size

    def update(self, new_values):
        """Replace the stored weights; the length may not change."""
        v = _as_vector(new_values)
        if v.shape != self.values.shape:
            raise ValueError(
                f"ParamVector '{self.id}' has fixed length {self.dim}, "
                f"got {v.size}")
        self.values = v.copy()

    def __repr__(self):
        return f"ParamVector(id={self.id!r}, dim={self.dim})"


class GradientEstimate:
    """One stochastic update direction with its step index and cached norm."""

    def __init__(self, values, step=0, norm2=None):
        self.values = _as_vector(values, "gradient values")
        if step < 0 or int(step) != step:
            raise ValueError("step must be a nonnegative integer")
        self.step = int(step)
        true_norm = float(np.linalg.norm(self.values))
        if norm2 is None:
            self.norm2 = true_norm
        else:
            if abs(norm2 - true_norm) > 1e-12 * max(1.0, true_norm):
                raise ValueError(
                    f"cached norm {norm2} disagrees with actual {true_norm}")
            self.norm2 = float(norm2)

    @property
    def dim(self) -> int:
        return self.values.size

    def __repr__(self):
        return f"GradientEstimate(step={self.step}, norm2={self.norm2:.6g})"


@dataclass
class ScheduleState:
    """Per-vector scheduler state: the current rate, the previous update
    direction, the previous update-agreement dot product, and the rate
    increment the previous step applied (None means eta*prev_dot).

    A fresh state starts with a zero previous update and zero dot product,
    so the first scheduled step leaves the rate unchanged.
    """

    alpha: float
    eta: float
    prev_update: np.ndarray
    prev_dot: float = 0.0
    alpha_min: float = 0.0
    alpha_max: float = math.inf
    step: int = 0
    applied: float | None = None

    def __post_init__(self):
        if self.applied is None:
            self.applied = self.eta * self.prev_dot
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.alpha_min > self.alpha_max:
            raise ValueError("alpha_min must be <= alpha_max")
        self.prev_update = np.asarray(self.prev_update, dtype=np.float64)

    @classmethod
    def fresh(cls, dim, alpha, eta, alpha_min=0.0, alpha_max=math.inf):
        """State for step 0: zero previous update, zero previous dot."""
        return cls(alpha=float(alpha), eta=float(eta),
                   prev_update=np.zeros(int(dim)), prev_dot=0.0,
                   alpha_min=float(alpha_min), alpha_max=float(alpha_max),
                   step=0)


@dataclass
class StepOutcome:
    """Result of one scheduled step: the new weights, the new rate, whether
    the previous rate increment was reverted, and this step's dot product."""

    new_values: np.ndarray
    new_alpha: float
    reverted: bool
    h_t: float


@dataclass
class TheoryParams:
    """Constants feeding the closed-form bound calculators.

    lipschitz_L : gradient Lipschitz constant, > 0
    sigma       : bound on update norms, > 0
    mu          : gradient/update alignment constant, > 0
    tau         : floor on consecutive-update dot products, > 0
    gamma       : rate-drift fraction, in [0, 1)
    epsilon     : target gradient norm, > 0
    f_gap       : initial loss minus the optimum, >= 0
    """

    lipschitz_L: float = 1.0
    sigma: float = 1.0
    mu: float = 1.0
    tau: float = 1.0
    gamma: float = 0.5
    epsilon: float = 0.1
    f_gap: float = 1.0


def validate_theory_params(p: TheoryParams) -> list[str]:
    """Range-check every field; returns the list of violations (empty = ok)."""
    checks = [
        (p.lipschitz_L > 0, "lipschitz_L must be > 0"),
        (p.sigma > 0, "sigma must be > 0"),
        (p.mu > 0, "mu must be > 0"),
        (p.tau > 0, "tau must be > 0"),
        (p.gamma >= 0, "gamma must be >= 0"),
        (p.gamma < 1, "gamma must be < 1"),
        (p.epsilon > 0, "epsilon must be > 0"),
        (p.f_gap >= 0, "f_gap must be >= 0"),
    ]
    violations = [msg for ok, msg in checks if not ok]
    for name in ("lipschitz_L", "sigma", "mu", "tau", "gamma", "epsilon",
                 "f_gap"):
        if not math.isfinite(getattr(p, name)):
            violations.append(f"{name} must be finite")
    return violations
