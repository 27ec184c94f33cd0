import math

import numpy as np
import pytest

from rdbd.harness import RunConfig, run
from rdbd.schedulers import AdamState, FlatSchedule
from reference import step_columns


def scalar_sgd(alpha0, steps):
    """SGD on f(x) = x^2/2 from x = 1 (the 1-D `quadratic` problem)."""
    return run(RunConfig(problem="quadratic", dim=1, optimizer="sgd",
                         alpha0=alpha0, steps=steps, eval_every=1))


def one_group(n, alpha, eta, alpha_max):
    return FlatSchedule([slice(None)], n, alpha, eta, 0.0, alpha_max, "rdbd")


def test_sgd_step_basic():
    # x = 1, g = 1: one step at rate 0.25 lands on 0.75, where f = 0.28125.
    trace = scalar_sgd(0.25, 2)
    assert trace.ids == ("x",) and trace.grad_norm[0].tolist() == [1.0]
    assert trace.loss[0] == 0.5
    assert trace.full_loss[0] == 0.28125 == trace.loss[1]


def test_sgd_one_step_to_optimum_on_scalar_quadratic():
    # f(x) = x^2/2, g = x: with alpha=1 the iterate lands on 0 immediately.
    records = scalar_sgd(1.0, 3)
    assert records.full_loss.tolist() == [0.0, 0.0, 0.0]


def test_adam_first_step_bias_correction():
    st = AdamState(1, 0.05, 0.99, 1e-8)
    x = np.array([0.0])
    u = st.advance(np.array([1.0]))
    x -= 0.1 * u
    assert abs(u[0] - 1.0 / (1.0 + 1e-8)) < 1e-15
    assert st.step == 1
    assert abs(x[0] + 0.1 * u[0]) < 1e-15


def test_adam_zero_gradient_is_identity():
    st = AdamState(3, 0.05, 0.99, 1e-8)
    x = np.array([1.0, -2.0, 0.5])
    u = st.advance(np.zeros(3))
    assert np.all(u == 0.0)
    assert np.array_equal(x - 0.5 * u, x)


def test_adam_constant_gradient_sign_limit():
    # Under a constant update the direction is c/(|c|+eps) from step one on.
    for c in (0.3, -2.0):
        st = AdamState(1, 0.05, 0.99, 1e-8)
        for _ in range(200):
            u = st.advance(np.array([c]))
            expected = c / (abs(c) + st.eps_hat)
            assert abs(u[0] - expected) < 1e-12


def test_adam_zero_betas_is_normalized_sgd():
    st = AdamState(1, 0.0, 0.0, 1e-8)
    for c in (1.5, -0.25, 3.0):
        u = st.advance(np.array([c]))
        assert abs(u[0] - c / (abs(c) + 1e-8)) < 1e-15


def test_adam_state_validation():
    with pytest.raises(ValueError):
        AdamState(2, 1.0, 0.99, 1e-8)
    with pytest.raises(ValueError):
        AdamState(2, 0.05, 0.99, 0.0)
    st = AdamState(2, 0.05, 0.99, 1e-8)
    with pytest.raises(ValueError):
        st.advance(np.array([1.0]))


def test_adam_advance_rejects_a_gradient_of_another_shape():
    # A (3, 1) gradient has the moments' size, but would broadcast m, v
    # and the direction to (3, 3).
    st = AdamState(3, 0.05, 0.99, 1e-8)
    with pytest.raises(ValueError, match=r"\(3, 1\).*\(3,\)"):
        st.advance(np.ones((3, 1)))
    assert st.step == 0 and st.m.shape == st.v.shape == (3,)
    assert not st.m.any() and not st.v.any()


@pytest.mark.parametrize("eps_hat", [math.nan, math.inf])
def test_adam_state_rejects_a_non_finite_eps_hat(eps_hat):
    # A NaN eps_hat made every direction NaN, an infinite one every one 0.
    with pytest.raises(ValueError, match=r"eps_hat must be finite and > 0"):
        AdamState(2, 0.05, 0.99, eps_hat)


def test_adam_v_stays_nonnegative():
    rng = np.random.default_rng(0)
    st = AdamState(4, 0.05, 0.99, 1e-8)
    for t in range(50):
        st.advance(rng.normal(size=4))
        assert np.all(st.v >= 0.0)


def test_adam_rdbd_first_step_is_plain_adam():
    g = np.array([0.4, -1.0])
    x = np.array([1.0, 2.0])
    plain_x = x - 0.005 * AdamState(2, 0.05, 0.99, 1e-8).advance(g)
    adam = AdamState(2, 0.05, 0.99, 1e-8)
    sched = one_group(2, 0.005, 5e-7, alpha_max=0.05)
    _, _, (h,), (reverted,) = step_columns(sched, x, adam.advance(g))
    assert not reverted
    assert h == 0.0
    assert np.allclose(x, plain_x, rtol=1e-15)
    assert adam.step == 1


def test_adam_rdbd_eta_zero_reproduces_adam():
    rng = np.random.default_rng(21)
    grads = [rng.normal(size=3) for _ in range(50)]
    x_a = np.array([0.5, -0.5, 1.0])
    adam_a = AdamState(3, 0.05, 0.99, 1e-8)
    x_b = x_a.copy()
    adam_b = AdamState(3, 0.05, 0.99, 1e-8)
    sched = one_group(3, 0.01, 0.0, alpha_max=0.1)
    for g in grads:
        x_a -= 0.01 * adam_a.advance(g)
        step_columns(sched, x_b, adam_b.advance(g))
        assert sched.alpha == [0.01]
        assert np.allclose(x_a, x_b, rtol=1e-15, atol=0.0)


def test_adam_rdbd_cap_engages():
    # Persistent agreement with a large meta rate drives alpha into the cap.
    adam = AdamState(2, 0.05, 0.99, 1e-8)
    sched = one_group(2, 0.005, 1e-3, alpha_max=0.05)
    x = np.array([5.0, 5.0])
    hit = False
    for t in range(200):
        step_columns(sched, x, adam.advance(np.array([1.0, 1.0])))
        assert sched.alpha[0] <= 0.05 + 1e-15
        hit = hit or sched.alpha[0] == 0.05
    assert hit


def test_adam_rdbd_deterministic():
    def trajectory():
        adam = AdamState(2, 0.05, 0.99, 1e-8)
        sched = one_group(2, 0.005, 5e-7, alpha_max=0.05)
        x = np.array([1.0, -1.0])
        rng = np.random.default_rng(9)
        vals = []
        for t in range(30):
            step_columns(sched, x, adam.advance(rng.normal(size=2)))
            vals.append(x.copy())
        return vals
    for a, b in zip(trajectory(), trajectory()):
        assert np.array_equal(a, b)
