import copy
import math

import numpy as np
import pytest

from rdbd.baselines import AdamState, adam_rdbd_step, adam_step
from rdbd.core import GradientEstimate, ParamVector, ScheduleState
from rdbd.schedulers import plain_step


def test_sgd_step_basic():
    x = ParamVector("x", [2.0])
    assert list(plain_step(x, GradientEstimate([4.0]), 0.25)) == [1.0]
    assert list(plain_step(x, GradientEstimate([4.0]), 0.0)) == [2.0]


def test_sgd_one_step_to_optimum_on_scalar_quadratic():
    # f(x) = x^2/2, g = x: with alpha=1 the iterate lands on 0 immediately.
    x = ParamVector("x", [1.0])
    for _ in range(3):
        x.update(plain_step(x, GradientEstimate(x.values.copy()), 1.0))
        assert x.values[0] == 0.0


def test_adam_first_step_bias_correction():
    st = AdamState.fresh(1, beta1=0.05, beta2=0.99, eps_hat=1e-8)
    x = ParamVector("x", [0.0])
    new_x, st2, u = adam_step(st, x, GradientEstimate([1.0]), 0.1)
    assert abs(u[0] - 1.0 / (1.0 + 1e-8)) < 1e-15
    assert st2.step == 1
    assert st.step == 0  # input state untouched
    assert abs(new_x[0] + 0.1 * u[0]) < 1e-15


def test_adam_zero_gradient_is_identity():
    st = AdamState.fresh(3)
    x = ParamVector("x", [1.0, -2.0, 0.5])
    new_x, _, u = adam_step(st, x, GradientEstimate(np.zeros(3)), 0.5)
    assert np.all(u == 0.0)
    assert np.array_equal(new_x, x.values)


def test_adam_constant_gradient_sign_limit():
    # Under a constant update the direction is c/(|c|+eps) from step one on.
    for c in (0.3, -2.0):
        st = AdamState.fresh(1)
        x = ParamVector("x", [0.0])
        for _ in range(200):
            _, st, u = adam_step(st, x, GradientEstimate([c]), 0.0)
            expected = c / (abs(c) + st.eps_hat)
            assert abs(u[0] - expected) < 1e-12


def test_adam_zero_betas_is_normalized_sgd():
    st = AdamState.fresh(1, beta1=0.0, beta2=0.0, eps_hat=1e-8)
    x = ParamVector("x", [0.0])
    for c in (1.5, -0.25, 3.0):
        _, st, u = adam_step(st, x, GradientEstimate([c]), 0.0)
        assert abs(u[0] - c / (abs(c) + 1e-8)) < 1e-15


def test_adam_state_validation():
    with pytest.raises(ValueError):
        AdamState.fresh(2, beta1=1.0)
    with pytest.raises(ValueError):
        AdamState.fresh(2, eps_hat=0.0)
    st = AdamState.fresh(2)
    with pytest.raises(ValueError):
        adam_step(st, ParamVector("x", [1.0, 2.0]), GradientEstimate([1.0]), 0.1)


def test_adam_v_stays_nonnegative():
    rng = np.random.default_rng(0)
    st = AdamState.fresh(4)
    x = ParamVector("x", np.zeros(4))
    for t in range(50):
        _, st, _ = adam_step(st, x, GradientEstimate(rng.normal(size=4)), 0.0)
        assert np.all(st.v >= 0.0)


def test_adam_rdbd_first_step_is_plain_adam():
    g = GradientEstimate([0.4, -1.0])
    x = ParamVector("x", [1.0, 2.0])
    adam = AdamState.fresh(2)
    plain_x, _, _ = adam_step(copy.deepcopy(adam), x, g, 0.005)
    sched = ScheduleState.fresh(2, 0.005, 5e-7, alpha_max=0.05)
    out = adam_rdbd_step(adam, sched, x, g)
    assert not out.reverted
    assert out.h_t == 0.0
    assert np.allclose(out.new_values, plain_x, rtol=1e-15)
    assert adam.step == 1 and sched.step == 1


def test_adam_rdbd_eta_zero_reproduces_adam():
    rng = np.random.default_rng(21)
    grads = [rng.normal(size=3) for _ in range(50)]
    x_a = ParamVector("x", [0.5, -0.5, 1.0])
    adam_a = AdamState.fresh(3)
    x_b = ParamVector("x", [0.5, -0.5, 1.0])
    adam_b = AdamState.fresh(3)
    sched = ScheduleState.fresh(3, 0.01, 0.0, alpha_max=0.1)
    for t, g_vals in enumerate(grads):
        g = GradientEstimate(g_vals, step=t + 1)
        new_a, adam_a, _ = adam_step(adam_a, x_a, g, 0.01)
        x_a.update(new_a)
        out = adam_rdbd_step(adam_b, sched, x_b, g)
        x_b.update(out.new_values)
        assert sched.alpha == 0.01
        assert np.allclose(x_a.values, x_b.values, rtol=1e-15, atol=0.0)


def test_adam_rdbd_cap_engages():
    # Persistent agreement with a large meta rate drives alpha into the cap.
    adam = AdamState.fresh(2)
    sched = ScheduleState.fresh(2, 0.005, 1e-3, alpha_max=0.05)
    x = ParamVector("x", [5.0, 5.0])
    hit = False
    for t in range(200):
        out = adam_rdbd_step(adam, sched, x, GradientEstimate([1.0, 1.0], step=t + 1))
        x.update(out.new_values)
        assert out.new_alpha <= 0.05 + 1e-15
        hit = hit or out.new_alpha == 0.05
    assert hit


def test_adam_rdbd_deterministic():
    def trajectory():
        adam = AdamState.fresh(2)
        sched = ScheduleState.fresh(2, 0.005, 5e-7, alpha_max=0.05)
        x = ParamVector("x", [1.0, -1.0])
        rng = np.random.default_rng(9)
        vals = []
        for t in range(30):
            g = GradientEstimate(rng.normal(size=2), step=t + 1)
            out = adam_rdbd_step(adam, sched, x, g)
            x.update(out.new_values)
            vals.append(out.new_values.copy())
        return vals
    for a, b in zip(trajectory(), trajectory()):
        assert np.array_equal(a, b)
