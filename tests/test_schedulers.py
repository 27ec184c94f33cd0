import math

import numpy as np
import pytest

from rdbd.schedulers import FlatSchedule
from reference import one_group, revert_exactness_check, step_columns


def one_step(sched, x, g):
    """Step a copy of x; returns (new_x, new_alpha, h, reverted)."""
    new_x = np.array(x, float)
    _, (alpha,), (h,), (reverted,) = step_columns(sched, new_x,
                                                  np.array(g, float))
    assert sched.alpha == [alpha]
    return new_x, alpha, h, reverted


def test_flat_schedule_validation():
    with pytest.raises(ValueError):
        one_group(alpha=0.1, eta=-1e-3)
    with pytest.raises(ValueError):
        one_group(alpha=0.1, eta=0.0, alpha_min=1.0, alpha_max=0.5)


@pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan])
def test_flat_schedule_rejects_a_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta must be finite"):
        FlatSchedule([slice(None)], 2, 0.1, eta, 0.0, 1.0, "dbd")


@pytest.mark.parametrize("rule", ["fixed", "dbd", "rdbd"])
@pytest.mark.parametrize("alpha0", [math.nan, math.inf, -math.inf])
def test_flat_schedule_rejects_a_non_finite_alpha0(rule, alpha0):
    # Checked before the bounds, since every default alpha_max is a multiple
    # of alpha0: a NaN or -inf alpha0 must not be reported as a bound.
    with pytest.raises(ValueError, match="^alpha0 must be finite$"):
        FlatSchedule([slice(None)], 2, alpha0, 0.01, 0.0, 10 * alpha0, rule)


def test_flat_schedule_rejects_an_unknown_rule():
    with pytest.raises(ValueError, match="unknown rate rule 'adam'"):
        FlatSchedule([slice(None)], 2, 0.1, 0.0, 0.0, 1.0, "adam")


def test_fixed_rule_keeps_every_rate_and_descends_the_whole_vector():
    segments = [slice(0, 2), slice(2, 5)]
    sched = FlatSchedule(segments, 5, 0.25, 0.5, 0.0, 1.0, "fixed")
    assert sched.prev_update is None        # no previous direction is kept
    rng = np.random.default_rng(4)
    x = rng.normal(size=5)
    for _ in range(3):
        d = rng.normal(size=5)
        expected = x - 0.25 * d
        norms, alphas, hs, flags = step_columns(sched, x, d)
        assert np.array_equal(x, expected)
        assert norms == [math.sqrt(np.dot(d[sl], d[sl])) for sl in segments]
        assert alphas == sched.alpha == [0.25, 0.25]
        assert hs == [0.0, 0.0] and flags == [False, False]
    assert sched.prev_update is None


@pytest.mark.parametrize("rule", ["fixed", "dbd", "rdbd"])
def test_step_reports_each_groups_direction_norm(rule):
    segments = [slice(0, 2), slice(2, 3), slice(3, 5), slice(5, 7)]
    sched = FlatSchedule(segments, 7, 1e-300, 0.0, -math.inf, math.inf, rule)
    # plain, squares that overflow, an infinite entry, a NaN entry
    d = np.array([3.0, 4.0, -2.0, 1e200, 1e200, np.inf, 1.0])
    d[6] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):  # as in harness.run
        norms, *_ = step_columns(sched, np.zeros(7), d)
        assert norms[:2] == [5.0, 2.0]
        assert norms[2] == 1e200 * math.sqrt(2.0)
        assert norms[3] != norms[3]               # inf and NaN give NaN
        norms, *_ = step_columns(sched, np.zeros(7),
                                 np.array([0, 0, 0, 0, 0, np.inf, 1.0]))
        assert norms[3] == math.inf
        # the rescale divides by the largest entry, not by a zero beside it
        norms, *_ = step_columns(sched, np.zeros(7),
                                 np.array([0, 0, 0, 0.0, 1e200, 0, 0]))
        assert norms[2] == 1e200


def test_dbd_first_step_rate_unchanged():
    # Zero previous update forces h=0, so the starting rate stays put.
    sched = one_group()
    g = np.array([1.0, 1.0])
    new_x, new_alpha, h, reverted = one_step(sched, [1.0, 2.0], g)
    assert h == 0.0
    assert new_alpha == 0.005
    assert np.allclose(new_x, [1.0 - 0.005, 2.0 - 0.005])
    assert not reverted
    assert sched.prev_dot == [0.0]
    assert np.all(sched.prev_update == g)


def test_dbd_rate_increment():
    sched = one_group(prev_update=(2.0, 0.0))
    _, new_alpha, h, _ = one_step(sched, [0.0, 0.0], [1.0, 0.0])
    assert h == 2.0
    assert abs(new_alpha - 0.025) < 1e-15


def test_dbd_clamp_floor():
    sched = one_group(prev_update=(-2.0, 0.0), alpha_min=0.0)
    x = [1.0, 1.0]
    new_x, new_alpha, _, _ = one_step(sched, x, [1.0, 0.0])
    # raw alpha would be 0.005 + 0.01*(-2) = -0.015
    assert new_alpha == 0.0
    assert np.allclose(new_x, x)


def test_dbd_errors():
    with pytest.raises(ValueError):
        step_columns(one_group(), np.ones(2), np.ones(1))
    with pytest.raises(ValueError):
        step_columns(one_group(prev_update=(0.0,)), np.ones(2), np.ones(2))


def test_rdbd_zero_prev_dot_matches_dbd():
    # h_t * 0 is never < 0, so the first two steps cannot revert.
    for g in ([1.0, 0.5], [-3.0, 2.0]):
        x = [0.3, -0.7]
        x_a, alpha_a, _, _ = one_step(one_group(), x, g)
        x_b, alpha_b, _, reverted = one_step(one_group(rule="rdbd"), x, g)
        assert not reverted
        assert np.array_equal(x_a, x_b)
        assert alpha_a == alpha_b


def test_rdbd_revert_worked_example():
    # prev_dot=+2 then h=-3: product negative, revert fires.
    sched = one_group(prev_dot=2.0, prev_update=(1.0, 0.0), alpha_min=0.0,
                      rule="rdbd")
    new_x, new_alpha, h, reverted = one_step(sched, [1.0, 1.0], [-3.0, 0.0])
    assert reverted
    assert h == -3.0
    # alpha: 0.005 - 0.01*2 = -0.015, then -0.015 + 0.01*(-3) = -0.045 -> clamp 0
    assert new_alpha == 0.0
    # weights get +0.01*2*[1,0] correction, then descend at alpha=0
    assert np.allclose(new_x, [1.02, 1.0])


def test_rdbd_revert_after_clamp_undoes_applied_increment():
    # Step 2 asks for +2 on the rate but the cap lets only +0.5 through, so
    # the revert at step 3 takes back 0.5 on the rate and 0.5*[2,0] on the
    # weights, not the eta*h_prev = 2 the rule asked for.
    sched = one_group(alpha=1.0, eta=1.0, alpha_min=0.0, alpha_max=1.5,
                      rule="rdbd")
    x = np.zeros(2)
    for g in ([1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]):
        *_, (reverted,) = step_columns(sched, x, np.array(g))
        if g[0] == 2.0:
            assert sched.alpha == [1.5] and sched.applied == [0.5]
    assert reverted
    assert list(x) == [-3.0, 0.0]
    assert sched.alpha == [0.0]


def test_rdbd_sign_agreement_stream():
    # Three aligned updates: alpha: 0.005 -> 0.005 -> 0.015 -> 0.025.
    sched = one_group(rule="rdbd")
    x = np.array([1.0, 1.0])
    for t in range(3):
        *_, (reverted,) = step_columns(sched, x, np.array([1.0, 0.0]))
        assert not reverted
    assert abs(sched.alpha[0] - 0.025) < 1e-15


def test_rdbd_nonreverting_step_equals_dbd_from_same_state():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = rng.integers(1, 6)
        state = dict(alpha=rng.normal(), eta=abs(rng.normal()),
                     prev_update=rng.normal(size=n), prev_dot=rng.normal())
        g = rng.normal(size=n)
        if float(g @ state["prev_update"]) * state["prev_dot"] < 0:
            continue
        x = rng.normal(size=n)
        x_r, alpha_r, _, reverted = one_step(one_group(**state, rule="rdbd"),
                                             x, g)
        x_d, alpha_d, _, _ = one_step(one_group(**state), x, g)
        assert not reverted
        assert np.array_equal(x_r, x_d)
        assert alpha_r == alpha_d


def _run_stream(rule, scalars, alpha0=0.005, eta=0.01):
    """Drive a fixed 2-D gradient stream; returns (alphas, xs, reverts)."""
    sched = one_group(alpha=alpha0, eta=eta, rule=rule)
    x = np.zeros(2)
    alphas, xs, revs = [], [], []
    for s in scalars:
        *_, (reverted,) = step_columns(sched, x, np.array([s, 0.5 * s]))
        alphas.append(sched.alpha[0])
        xs.append(x.copy())
        revs.append(reverted)
    return alphas, xs, revs


def test_trajectory_equality_when_products_nonnegative():
    # Same-sign scalars keep every h*h_prev >= 0: trajectories coincide.
    rng = np.random.default_rng(5)
    scalars = rng.uniform(0.1, 2.0, size=40)
    a_d, x_d, _ = _run_stream("dbd", scalars)
    a_r, x_r, revs = _run_stream("rdbd", scalars)
    assert not any(revs)
    for ad, ar in zip(a_d, a_r):
        assert abs(ad - ar) <= 1e-12 * max(1.0, abs(ad))
    for xd, xr in zip(x_d, x_r):
        assert np.allclose(xd, xr, rtol=1e-12, atol=1e-15)


def test_alternating_stream_reverts_fire():
    scalars = [1.0, 2.0, -1.0, 3.0, -2.0, 2.5, -1.5, 1.0]
    _, _, revs = _run_stream("rdbd", scalars)
    assert any(revs)


def test_alpha_envelope_random_streams():
    rng = np.random.default_rng(11)
    for rule in ("dbd", "rdbd"):
        for _ in range(20):
            sched = one_group(alpha=0.01, eta=0.02,
                              prev_update=(0.0, 0.0, 0.0), rule=rule)
            x = np.zeros(3)
            gmax = 0.0
            for t in range(50):
                g = rng.normal(size=3)
                gmax = max(gmax, float(np.linalg.norm(g)))
                step_columns(sched, x, g)
                bound = (t + 1) * sched.eta * gmax ** 2
                assert abs(sched.alpha[0] - 0.01) <= bound + 1e-10


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
    first = _run_stream("rdbd", scalars)
    second = _run_stream("rdbd", scalars)
    assert first[0] == second[0]
    assert all(np.array_equal(a, b) for a, b in zip(first[1], second[1]))
    assert first[2] == second[2]
