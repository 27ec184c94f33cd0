import dataclasses
import math

import numpy as np
import pytest

from rdbd.data import synthetic_blobs
from rdbd.problems import LogisticProblem, QuadraticProblem
from rdbd.theory import (TheoryParams, alpha_envelope, dbd_iteration_bound,
                         descent_coefficient_bound, measure_tau,
                         rdbd_iteration_bound, rdbd_theoretical_hyperparams,
                         steeper_descent_conditions)


def close(a, b, rel=1e-14):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def test_dbd_iteration_bound_values():
    assert close(dbd_iteration_bound(
        TheoryParams(lipschitz_L=1, f_gap=1, gamma=0, epsilon=1)), 2.0)
    assert close(dbd_iteration_bound(
        TheoryParams(lipschitz_L=2, f_gap=1, gamma=0.5, epsilon=0.1)),
        2 * 2 * 1 / (0.75 * 0.01))
    assert close(dbd_iteration_bound(
        TheoryParams(lipschitz_L=2, f_gap=3, gamma=0.5, epsilon=0.1)),
        2 * 2 * 3 / (0.75 * 0.01))
    # monotone decreasing toward 2*L*f_gap/eps^2 as gamma -> 0
    values = [dbd_iteration_bound(TheoryParams(gamma=g))
              for g in (0.9, 0.5, 0.1, 0.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert close(values[-1], 2 * 1 * 1 / 0.01)


def test_rdbd_iteration_bound_values():
    assert close(rdbd_iteration_bound(
        TheoryParams(sigma=1, lipschitz_L=1, f_gap=1, gamma=0.5, epsilon=1)), 2.75)
    assert close(rdbd_iteration_bound(
        TheoryParams(sigma=2, lipschitz_L=3, f_gap=5, gamma=0.5, epsilon=0.5)),
        2 * math.sqrt(3 * 5) * 2.75 / 0.25)
    base = rdbd_iteration_bound(TheoryParams(epsilon=0.2))
    assert close(rdbd_iteration_bound(TheoryParams(epsilon=0.1)), 4 * base)
    assert close(rdbd_iteration_bound(TheoryParams(gamma=0.0, epsilon=1.0)), 1.5)
    with pytest.raises(ValueError):
        rdbd_iteration_bound(TheoryParams(gamma=1.0))


def test_rdbd_theoretical_hyperparams():
    p = TheoryParams(sigma=1, lipschitz_L=1, f_gap=1, gamma=0.5)
    alpha0, eta = rdbd_theoretical_hyperparams(p, 4)
    assert close(alpha0, 0.5)
    assert close(eta, 0.0625)
    # ratio identity eta/alpha0 = gamma/(T sigma^2)
    for T in (1, 3, 10, 250):
        for gamma in (0.1, 0.5, 0.9):
            for sigma in (0.5, 2.0):
                q = TheoryParams(sigma=sigma, lipschitz_L=3.0, f_gap=2.0,
                                 gamma=gamma)
                a0, e = rdbd_theoretical_hyperparams(q, T)
                assert close(e / a0, gamma / (T * sigma ** 2))
    a0, e = rdbd_theoretical_hyperparams(TheoryParams(f_gap=0.0), 4)
    assert a0 == 0.0 and e == 0.0
    for T in (0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^T must be a positive integer$"):
            rdbd_theoretical_hyperparams(p, T)


def test_theoretical_hyperparams_keep_rate_positive():
    # Envelope floor after T steps is alpha0*(1-gamma) > 0.
    p = TheoryParams(sigma=2.0, lipschitz_L=3.0, f_gap=1.5, gamma=0.5)
    T = 100
    alpha0, eta = rdbd_theoretical_hyperparams(p, T)
    lower, upper = alpha_envelope(alpha0, eta, p.sigma, T)
    assert close(lower, alpha0 * (1 - p.gamma))
    assert close(upper, alpha0 * (1 + p.gamma))
    assert lower > 0


def test_alpha_envelope_values():
    assert alpha_envelope(0.7, 0.1, 2.0, 0) == (0.7, 0.7)
    lo, hi = alpha_envelope(0.005, 0.01, 1.0, 10)
    assert close(lo, -0.095) and close(hi, 0.105)
    for t in (1, 5, 20):
        lo, hi = alpha_envelope(0.0, 0.3, 1.5, t)
        assert close(hi - lo, 2 * t * 0.3 * 1.5 ** 2)


def test_descent_coefficient_bound():
    for L in (1.0, 2.5):
        for gamma in (0.0, 0.5, 0.9):
            rep = descent_coefficient_bound(1.0 / L, L, gamma)
            assert rep.applicable and rep.satisfied
            assert close(rep.empirical_value, 2 * L)
            assert close(rep.margin, 2 * L * (1 / (1 - gamma ** 2) - 1))
    rep = descent_coefficient_bound(1.0, 1.0, 0.0)
    assert rep.satisfied and close(rep.margin, 0.0)
    # satisfied means lhs <= rhs + 1e-12, where lhs - rhs ~ 2 (alpha - 1)^2:
    # the first alpha lands exactly on rhs + 1e-12, the second 1.5e-12 above
    assert descent_coefficient_bound(1 + math.sqrt(5e-13), 1.0, 0.0).satisfied
    assert not descent_coefficient_bound(1 + math.sqrt(7.5e-13), 1.0,
                                         0.0).satisfied
    # envelope edge alpha = (1-gamma)/L gives equality
    rep = descent_coefficient_bound((1 - 0.5) / 1.0, 1.0, 0.5)
    assert rep.satisfied
    assert close(rep.empirical_value, 8.0 / 3.0)
    assert close(rep.theoretical_value, 8.0 / 3.0)


def test_descent_coefficient_inapplicable_is_not_failure():
    for alpha, L in ((0.0, 1.0), (-0.5, 1.0), (2.0, 1.0), (5.0, 1.0),
                     (2.0 / 2.5, 2.5)):   # the 2/L edge is excluded
        rep = descent_coefficient_bound(alpha, L, 0.3)
        assert not rep.applicable
        assert rep.satisfied
        assert math.isnan(rep.empirical_value)


def test_steeper_descent_conditions():
    p = TheoryParams(lipschitz_L=1.0, sigma=1.0, mu=1.0)
    assert p == TheoryParams()   # the defaults of L, sigma and mu
    assert steeper_descent_conditions(p, 2.0, 2.0) == (True, True)
    assert steeper_descent_conditions(p, 2.0 + 1e-9, 2.0) == (False, True)
    assert steeper_descent_conditions(p, 2.0, 2.0 + 1e-9) == (True, False)
    # doubling sigma divides the eta threshold by four
    p2 = TheoryParams(lipschitz_L=1.0, sigma=2.0, mu=1.0)
    assert steeper_descent_conditions(p2, 0.5, 0.1) == (True, True)
    assert steeper_descent_conditions(p2, 0.5 + 1e-9, 0.1) == (False, True)
    # the alpha threshold is 2 mu / L
    p3 = TheoryParams(lipschitz_L=2.0, sigma=1.0, mu=3.0)
    assert steeper_descent_conditions(p3, 1.0, 3.0) == (True, True)
    assert steeper_descent_conditions(p3, 1.0, 3.0 + 1e-9) == (True, False)


@pytest.mark.parametrize("call", [
    lambda: steeper_descent_conditions(TheoryParams(lipschitz_L=0.0), 0.1, 0.1),
    lambda: steeper_descent_conditions(TheoryParams(lipschitz_L=-1.0), 0.1, 0.1),
    lambda: steeper_descent_conditions(TheoryParams(sigma=math.nan), 0.1, 0.1),
    lambda: steeper_descent_conditions(TheoryParams(mu=math.inf), 0.1, 0.1),
    lambda: descent_coefficient_bound(0.1, 0.0, 0.5),
    lambda: descent_coefficient_bound(
        0.1, QuadraticProblem(np.zeros(2)).L, 0.5),
    lambda: descent_coefficient_bound(0.1, -1.0, 0.5),
    lambda: descent_coefficient_bound(0.1, math.inf, 0.5),
    lambda: descent_coefficient_bound(0.1, math.nan, 0.5),
    lambda: descent_coefficient_bound(0.1, 1.0, 1.0),
    lambda: descent_coefficient_bound(0.1, 1.0, -0.1),
    lambda: descent_coefficient_bound(0.1, 1.0, math.nan),
], ids=["steeper-L0", "steeper-L-neg", "steeper-sigma-nan", "steeper-mu-inf",
        "coef-L0", "coef-L-of-zero-quadratic", "coef-L-neg", "coef-L-inf",
        "coef-L-nan", "coef-gamma1", "coef-gamma-neg", "coef-gamma-nan"])
def test_calculators_reject_invalid_theory_params(call):
    with pytest.raises(ValueError, match="invalid theory params"):
        call()


def test_measure_tau():
    tau, flagged = measure_tau([0.0, 2.0, -3.0, 0.5])
    assert tau == 0.5 and flagged == []
    tau, flagged = measure_tau([0.0, 1.0, 0.0, 2.0])
    assert tau == 0.0 and flagged == [2]
    assert measure_tau([0.0]) == (0.0, [])
    # flagged means |h| <= rel_tol * max |h|, here 4e-9 against a largest 4
    assert measure_tau([1.0, 4.0, 4e-9, 6e-9]) == (4e-9, [2])
    assert measure_tau([1.0, 4.0, 4e-9, 6e-9], rel_tol=2e-9)[1] == [2, 3]
    assert measure_tau([0.0, 0.0, 0.0]) == (0.0, [1, 2])


def test_smoothness_inequality_on_known_L_problems():
    # f(x) <= f(y) + <grad f(y), x - y> + L/2 ||x-y||^2 on random pairs.
    rng = np.random.default_rng(17)
    quad = QuadraticProblem([1.0, 3.0, 0.5], np.array([1.0, 0.0, -2.0]))
    logi = LogisticProblem(synthetic_blobs(256, 6, 2, seed=5))
    for prob, scale in ((quad, 3.0), (logi, 2.0)):
        L = prob.L
        for _ in range(100):
            x = rng.normal(size=prob.dim) * scale
            y = rng.normal(size=prob.dim) * scale
            gap = (prob.loss(x) - prob.loss(y)
                   - float(prob.loss_and_grad(y, None)[1] @ (x - y))
                   - 0.5 * L * float((x - y) @ (x - y)))
            assert gap <= 1e-10


def _violations(**fields):
    """The violations TheoryParams(**fields) raises with."""
    with pytest.raises(ValueError, match="^invalid theory params: ") as exc:
        TheoryParams(**fields)
    return str(exc.value).split(": ", 1)[1].split("; ")


def test_theory_params_construction_raises_on_every_violation():
    p = TheoryParams(gamma=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.gamma = 1.0
    assert "gamma must be < 1" in _violations(gamma=1.0)
    assert "epsilon must be > 0" in _violations(epsilon=0.0)
    bad = _violations(lipschitz_L=-1.0, sigma=0.0, gamma=-0.2, f_gap=-1.0)
    assert "lipschitz_L must be > 0" in bad
    assert "sigma must be > 0" in bad
    assert "gamma must be >= 0" in bad
    assert "f_gap must be >= 0" in bad
    assert "mu must be > 0" in _violations(mu=0.0)
    assert any("finite" in v for v in _violations(f_gap=np.inf))
