"""Closed-form calculators for the convergence bounds and admissibility
conditions attached to the schedulers, so empirical runs can be checked
against what the formulas promise."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TheoryParams:
    """Constants feeding the closed-form bound calculators. Construction
    raises ValueError unless every field is finite and in its range:

    lipschitz_L : gradient Lipschitz constant, > 0
    sigma       : bound on update norms, > 0
    mu          : gradient/update alignment constant, > 0
    gamma       : rate-drift fraction, in [0, 1)
    epsilon     : target gradient norm, > 0
    f_gap       : initial loss minus the optimum, >= 0
    """

    lipschitz_L: float = 1.0
    sigma: float = 1.0
    mu: float = 1.0
    gamma: float = 0.5
    epsilon: float = 0.1
    f_gap: float = 1.0

    def __post_init__(self):
        violations = [msg for ok, msg in (
            (self.lipschitz_L > 0, "lipschitz_L must be > 0"),
            (self.sigma > 0, "sigma must be > 0"),
            (self.mu > 0, "mu must be > 0"),
            (self.gamma >= 0, "gamma must be >= 0"),
            (self.gamma < 1, "gamma must be < 1"),
            (self.epsilon > 0, "epsilon must be > 0"),
            (self.f_gap >= 0, "f_gap must be >= 0")) if not ok]
        violations += [f"{name} must be finite"
                       for name, value in vars(self).items()
                       if not math.isfinite(value)]
        if violations:
            raise ValueError("invalid theory params: " + "; ".join(violations))


@dataclass
class BoundReport:
    """One bound evaluation: the formula value, the observed value, and
    whether the observation respects the bound.

    `applicable` is False when the bound's hypotheses do not hold at the
    queried point; `satisfied` is then vacuously True (inapplicable is not
    a failure) and the numeric fields are NaN.
    """

    name: str
    theoretical_value: float
    empirical_value: float
    satisfied: bool
    margin: float
    applicable: bool = True


def dbd_iteration_bound(p: TheoryParams) -> float:
    """Iterations sufficient for the plain scheduler to drive the minimum
    gradient norm below epsilon in full-batch mode:
    2*L*f_gap / ((1 - gamma^2) * epsilon^2)."""
    return 2.0 * p.lipschitz_L * p.f_gap / ((1.0 - p.gamma ** 2) * p.epsilon ** 2)


def rdbd_iteration_bound(p: TheoryParams) -> float:
    """Iterations sufficient for the revertible scheduler in mini-batch mode:
    sigma * sqrt(L*f_gap) * (1/(1-gamma) + (1+gamma)/2) / epsilon^2."""
    return (p.sigma * math.sqrt(p.lipschitz_L * p.f_gap)
            * (1.0 / (1.0 - p.gamma) + 0.5 * (1.0 + p.gamma))
            / p.epsilon ** 2)


def rdbd_theoretical_hyperparams(p: TheoryParams, T: int) -> tuple[float, float]:
    """The (alpha0, eta) pair the mini-batch convergence guarantee assumes
    for a horizon of T steps:

        alpha0 = sqrt(f_gap) / (sigma * sqrt(L*T))
        eta    = gamma * sqrt(f_gap) / (T * sigma^3 * sqrt(L*T))
    """
    if T <= 0 or int(T) != T:
        raise ValueError("T must be a positive integer")
    root = math.sqrt(p.lipschitz_L * T)
    alpha0 = math.sqrt(p.f_gap) / (p.sigma * root)
    eta = p.gamma * math.sqrt(p.f_gap) / (T * p.sigma ** 3 * root)
    return alpha0, eta


def alpha_envelope(alpha0: float, eta: float, sigma: float, t: int) -> tuple[float, float]:
    """Widest possible rate drift after t unclamped steps with update norms
    bounded by sigma: (alpha0 - t*eta*sigma^2, alpha0 + t*eta*sigma^2)."""
    # sigma * sigma overflows to inf where sigma ** 2 raises, and (t * eta)
    # first keeps a zero eta's drift at zero however large sigma is.
    drift = t * eta * sigma * sigma
    return alpha0 - drift, alpha0 + drift


def descent_coefficient_bound(alpha_t: float, L: float, gamma: float) -> BoundReport:
    """Check 2/(2*alpha_t - alpha_t^2*L) <= 2L/(1 - gamma^2).

    Only applicable for alpha_t in (0, 2/L), where the denominator is
    positive; outside that range the report is marked inapplicable. Raises
    ValueError, as `TheoryParams` does, unless L is finite and > 0 and
    gamma lies in [0, 1).
    """
    TheoryParams(lipschitz_L=L, gamma=gamma)
    name = "descent_coefficient"
    rhs = 2.0 * L / (1.0 - gamma ** 2)
    if not (0.0 < alpha_t < 2.0 / L):
        return BoundReport(name=name, theoretical_value=rhs,
                           empirical_value=math.nan, satisfied=True,
                           margin=math.nan, applicable=False)
    lhs = 2.0 / (2.0 * alpha_t - alpha_t ** 2 * L)
    margin = rhs - lhs
    return BoundReport(name=name, theoretical_value=rhs, empirical_value=lhs,
                       satisfied=lhs <= rhs + 1e-12, margin=margin)


def steeper_descent_conditions(p: TheoryParams, eta: float, alpha: float) -> tuple[bool, bool]:
    """Admissibility of (eta, alpha) for the per-step improvement guarantee:
    eta <= 2/(L*sigma^2) and alpha <= 2*mu/L, both non-strict."""
    eta_ok = eta <= 2.0 / (p.lipschitz_L * p.sigma ** 2)
    alpha_ok = alpha <= 2.0 * p.mu / p.lipschitz_L
    return eta_ok, alpha_ok


def dbd_hypergradient(grad_now, grad_prev) -> float:
    """Derivative of the loss after one descent step with respect to the
    rate used for that step: -<grad(x_t), grad(x_{t-1})>. Negative when the
    gradients agree, so descent on the rate raises it. Raises ValueError
    when the shapes differ."""
    a = np.asarray(grad_now, dtype=np.float64)
    b = np.asarray(grad_prev, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return -float(np.dot(a, b))


def measure_tau(h_values, rel_tol=1e-9):
    """Smallest observed |h_t| over a run, with near-zero steps flagged.

    The consecutive-update dot-product floor has no constructive definition
    for a given run, so it is measured: h_values are the per-step dot
    products; the first entry (against the zero initial update) is ignored.
    Returns (tau, flagged) where flagged lists the indices whose |h| is
    within rel_tol of zero relative to the largest |h| seen.
    """
    h = np.asarray(h_values, dtype=np.float64)
    if h.size <= 1:
        return 0.0, []
    body = np.abs(h[1:])
    scale = float(np.max(body)) if body.size else 0.0
    flagged = [i + 1 for i, v in enumerate(body) if v <= rel_tol * max(scale, 1e-300)]
    return float(np.min(body)), flagged
