import copy
import math

import numpy as np
import pytest

from rdbd.core import GradientEstimate, ParamVector, ScheduleState
from rdbd.schedulers import (dbd_step, plain_step, rdbd_step,
                             revert_exactness_check)


def make_state(alpha=0.005, eta=0.01, prev_update=(0.0, 0.0), prev_dot=0.0,
               alpha_min=-math.inf, alpha_max=math.inf):
    return ScheduleState(alpha=alpha, eta=eta,
                         prev_update=np.asarray(prev_update, float),
                         prev_dot=prev_dot, alpha_min=alpha_min,
                         alpha_max=alpha_max)


def test_plain_step():
    x = ParamVector("x", [1.0, 1.0])
    g = GradientEstimate([1.0, 0.0])
    assert list(plain_step(x, g, 0.5)) == [0.5, 1.0]
    assert list(plain_step(x, g, 0.0)) == [1.0, 1.0]
    assert list(plain_step(x, GradientEstimate([0.0, 0.0]), 0.7)) == [1.0, 1.0]
    with pytest.raises(ValueError):
        plain_step(x, GradientEstimate([1.0]), 0.5)


def test_dbd_first_step_rate_unchanged():
    # Zero previous update forces h=0, so the starting rate stays put.
    st = make_state()
    x = ParamVector("x", [1.0, 2.0])
    g = GradientEstimate([1.0, 1.0], step=1)
    out = dbd_step(st, x, g)
    assert out.h_t == 0.0
    assert out.new_alpha == 0.005
    assert np.allclose(out.new_values, [1.0 - 0.005, 2.0 - 0.005])
    assert not out.reverted
    assert st.step == 1 and st.prev_dot == 0.0
    assert np.all(st.prev_update == g.values)


def test_dbd_rate_increment():
    st = make_state(prev_update=(2.0, 0.0))
    out = dbd_step(st, ParamVector("x", [0.0, 0.0]), GradientEstimate([1.0, 0.0]))
    assert out.h_t == 2.0
    assert abs(out.new_alpha - 0.025) < 1e-15


def test_dbd_clamp_floor():
    st = make_state(prev_update=(-2.0, 0.0), alpha_min=0.0)
    x = ParamVector("x", [1.0, 1.0])
    out = dbd_step(st, x, GradientEstimate([1.0, 0.0]))
    # raw alpha would be 0.005 + 0.01*(-2) = -0.015
    assert out.new_alpha == 0.0
    assert np.allclose(out.new_values, x.values)


def test_dbd_errors():
    st = make_state()
    with pytest.raises(ValueError):
        dbd_step(st, ParamVector("x", [1.0, 1.0]), GradientEstimate([1.0]))
    with pytest.raises(ValueError):
        GradientEstimate([np.nan, 1.0])


def test_rdbd_zero_prev_dot_matches_dbd():
    # h_t * 0 is never < 0, so the first two steps cannot revert.
    for g_vals in ([1.0, 0.5], [-3.0, 2.0]):
        st_a = make_state()
        st_b = make_state()
        x = ParamVector("x", [0.3, -0.7])
        g = GradientEstimate(g_vals)
        out_a = dbd_step(st_a, x, g)
        out_b = rdbd_step(st_b, x, g)
        assert not out_b.reverted
        assert np.array_equal(out_a.new_values, out_b.new_values)
        assert out_a.new_alpha == out_b.new_alpha


def test_rdbd_revert_worked_example():
    # prev_dot=+2 then h=-3: product negative, revert fires.
    st = make_state(prev_dot=2.0, prev_update=(1.0, 0.0), alpha_min=0.0)
    x = ParamVector("x", [1.0, 1.0])
    out = rdbd_step(st, x, GradientEstimate([-3.0, 0.0]))
    assert out.reverted
    assert out.h_t == -3.0
    # alpha: 0.005 - 0.01*2 = -0.015, then -0.015 + 0.01*(-3) = -0.045 -> clamp 0
    assert out.new_alpha == 0.0
    # weights get +0.01*2*[1,0] correction, then descend at alpha=0
    assert np.allclose(out.new_values, [1.02, 1.0])


def test_rdbd_revert_after_clamp_undoes_applied_increment():
    # Step 2 asks for +2 on the rate but the cap lets only +0.5 through, so
    # the revert at step 3 takes back 0.5 on the rate and 0.5*[2,0] on the
    # weights, not the eta*h_prev = 2 the rule asked for.
    st = ScheduleState.fresh(2, alpha=1.0, eta=1.0, alpha_max=1.5)
    x = ParamVector("x", [0.0, 0.0])
    for g in ([1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]):
        out = rdbd_step(st, x, GradientEstimate(g))
        x.update(out.new_values)
        if g[0] == 2.0:
            assert st.alpha == 1.5 and st.applied == 0.5
    assert out.reverted
    assert list(x.values) == [-3.0, 0.0]
    assert st.alpha == 0.0


def test_rdbd_sign_agreement_stream():
    # Three aligned updates: alpha: 0.005 -> 0.005 -> 0.015 -> 0.025.
    st = make_state()
    x = ParamVector("x", [1.0, 1.0])
    for t in range(3):
        out = rdbd_step(st, x, GradientEstimate([1.0, 0.0], step=t + 1))
        x.update(out.new_values)
        assert not out.reverted
    assert abs(st.alpha - 0.025) < 1e-15


def test_rdbd_nonreverting_step_equals_dbd_from_same_state():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = rng.integers(1, 6)
        st = ScheduleState(alpha=rng.normal(), eta=abs(rng.normal()),
                           prev_update=rng.normal(size=n),
                           prev_dot=rng.normal(), alpha_min=-math.inf)
        g = GradientEstimate(rng.normal(size=n))
        if float(g.values @ st.prev_update) * st.prev_dot < 0:
            continue
        x = ParamVector("x", rng.normal(size=n))
        out_r = rdbd_step(copy.deepcopy(st), x, g)
        out_d = dbd_step(copy.deepcopy(st), x, g)
        assert not out_r.reverted
        assert np.array_equal(out_r.new_values, out_d.new_values)
        assert out_r.new_alpha == out_d.new_alpha


def _run_stream(step_fn, scalars, alpha0=0.005, eta=0.01):
    """Drive a fixed 2-D gradient stream; returns (alphas, xs, reverts)."""
    st = make_state(alpha=alpha0, eta=eta)
    x = ParamVector("x", [0.0, 0.0])
    alphas, xs, revs = [], [], []
    for t, s in enumerate(scalars):
        g = GradientEstimate([s, 0.5 * s], step=t + 1)
        out = step_fn(st, x, g)
        x.update(out.new_values)
        alphas.append(out.new_alpha)
        xs.append(out.new_values.copy())
        revs.append(out.reverted)
    return alphas, xs, revs


def test_trajectory_equality_when_products_nonnegative():
    # Same-sign scalars keep every h*h_prev >= 0: trajectories coincide.
    rng = np.random.default_rng(5)
    scalars = rng.uniform(0.1, 2.0, size=40)
    a_d, x_d, _ = _run_stream(dbd_step, scalars)
    a_r, x_r, revs = _run_stream(rdbd_step, scalars)
    assert not any(revs)
    for ad, ar in zip(a_d, a_r):
        assert abs(ad - ar) <= 1e-12 * max(1.0, abs(ad))
    for xd, xr in zip(x_d, x_r):
        assert np.allclose(xd, xr, rtol=1e-12, atol=1e-15)


def test_alternating_stream_reverts_fire():
    scalars = [1.0, 2.0, -1.0, 3.0, -2.0, 2.5, -1.5, 1.0]
    _, _, revs = _run_stream(rdbd_step, scalars)
    assert any(revs)


def test_alpha_envelope_random_streams():
    rng = np.random.default_rng(11)
    for step_fn in (dbd_step, rdbd_step):
        for _ in range(20):
            st = make_state(alpha=0.01, eta=0.02, prev_update=(0.0, 0.0, 0.0))
            x = ParamVector("x", [0.0, 0.0, 0.0])
            gmax = 0.0
            for t in range(50):
                g = GradientEstimate(rng.normal(size=3))
                gmax = max(gmax, g.norm2)
                out = step_fn(st, x, g)
                x.update(out.new_values)
                bound = (t + 1) * st.eta * gmax ** 2
                assert abs(st.alpha - 0.01) <= bound + 1e-10


def test_revert_exactness_trivial():
    # eta=0.01, h=2, g=[1,0]: rate drops by exactly 0.02, weights gain [0.02, 0].
    before = (np.array([1.0, 1.0]), 0.025)
    after = (np.array([1.02, 1.0]), 0.005)
    assert revert_exactness_check(before, after, 0.01, 2.0, [1.0, 0.0])
    # h=0 is a no-op on both
    same = (np.array([0.5, 0.5]), 0.01)
    assert revert_exactness_check(same, same, 0.01, 0.0, [1.0, 0.0])
    # wrong alpha or wrong correction fails
    assert not revert_exactness_check(before, (after[0], 0.006), 0.01, 2.0, [1.0, 0.0])
    assert not revert_exactness_check(before, (np.array([1.03, 1.0]), 0.005),
                                      0.01, 2.0, [1.0, 0.0])


def test_revert_exactness_randomized():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = rng.integers(1, 5)
        eta = 10.0 ** rng.uniform(-6, -1)
        h = rng.normal() * 10.0 ** rng.uniform(-3, 2)
        g_prev = rng.normal(size=n)
        x_after_step = rng.normal(size=n)
        alpha_after_step = rng.normal()
        x_rev = x_after_step + eta * h * g_prev
        alpha_rev = alpha_after_step - eta * h
        assert revert_exactness_check((x_after_step, alpha_after_step),
                                      (x_rev, alpha_rev), eta, h, g_prev)


def test_determinism_identical_streams():
    scalars = list(np.random.default_rng(3).normal(size=30))
    first = _run_stream(rdbd_step, scalars)
    second = _run_stream(rdbd_step, scalars)
    assert first[0] == second[0]
    assert all(np.array_equal(a, b) for a, b in zip(first[1], second[1]))
    assert first[2] == second[2]
