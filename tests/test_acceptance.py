"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Closed-form results are checked exactly at their stated tolerances;
empirical claims are checked as ordering/property statements at desk
scale. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import copy
import dataclasses
import math
import os

import numpy as np
import pytest

from rdbd.data import mnist_files, parse_idx
from rdbd.harness import (PRESETS, RunConfig, check_alpha_envelope,
                          check_revert_flags, preset, run)
from rdbd.problems import (LogisticProblem, MlpProblem, QuadraticProblem,
                           RosenbrockProblem)
from rdbd.data import synthetic_blobs
from rdbd.schedulers import FlatSchedule
from rdbd.theory import (TheoryParams, alpha_envelope, dbd_hypergradient,
                         dbd_iteration_bound, descent_coefficient_bound,
                         rdbd_iteration_bound, rdbd_theoretical_hyperparams)
from reference import (estimate_sigma, finite_difference_gradient,
                       revert_exactness_check, serialize_idx)


def one_group(alpha, eta, prev_update=(0.0, 0.0), prev_dot=0.0,
              alpha_min=-math.inf, alpha_max=math.inf, rule="rdbd"):
    """A one-group schedule whose previous step applied eta*prev_dot."""
    sched = FlatSchedule([slice(None)], len(prev_update), alpha, eta,
                         alpha_min, alpha_max, rule)
    sched.prev_update = np.array(prev_update, float)
    sched.prev_dot, sched.applied = [prev_dot], [eta * prev_dot]
    return sched


def report(criterion, ok, detail):
    line = f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_full_batch_dbd_iteration_bound():
    """Full-batch scheduled descent meets its closed-form iteration bound
    with zero slack on the count."""
    prob = QuadraticProblem(np.diag([1.0, 2.0]))
    L = prob.known_constants["L"]
    x0 = np.array([1.0, math.sqrt(0.5)])         # f(x0) - f* = 1 exactly
    assert abs(prob.loss(x0) - 1.0) < 1e-15
    gamma, eps, f_gap = 0.5, 0.1, 1.0
    T = math.ceil(dbd_iteration_bound(TheoryParams(
        lipschitz_L=L, gamma=gamma, epsilon=eps, f_gap=f_gap)))
    assert T == 534
    # update-norm bound measured over the starting sublevel region
    sigma = estimate_sigma(prob, 500, radius=math.sqrt(2.0) * 1.05,
                           rng=np.random.default_rng(11))
    eta = gamma / (T * sigma ** 2 * L)
    x = x0.copy()
    sched = one_group(1.0 / L, eta, rule="dbd")
    min_norm = math.inf
    for t in range(1, T + 1):
        g = prob.loss_and_grad(x, None)[1]
        norm = float(np.linalg.norm(g))
        assert norm <= sigma             # the measured bound really bounds
        min_norm = min(min_norm, norm)
        sched.step(x, g)
    report(1, min_norm <= eps,
           f"min grad norm {min_norm:.3e} <= {eps} within {T} iterations")


def _mnist_present():
    """Whether the MNIST files are where build_problem looks for them (the
    presets set no mnist_dir, so $MNIST_DIR), without loading them."""
    return mnist_files(os.environ.get("MNIST_DIR")) is not None


def _desk_presets():
    for name in ("logistic-default", "logistic-adam-rdbd", "quadratic-dbd",
                 "rosenbrock-rdbd", "mlp-blobs-demo"):
        yield name, preset(name)
    if _mnist_present():
        yield "mnist-default", dataclasses.replace(preset("mnist-default"),
                                                   steps=300)


def test_criterion_02_alpha_envelope_on_all_presets():
    """|alpha_t - alpha0| <= t*eta*(max update norm)^2 on every recorded
    run with clamping disabled, slack 1e-10."""
    checked = 0
    for name, cfg in _desk_presets():
        cfg = dataclasses.replace(cfg, alpha_min=-math.inf, alpha_max=math.inf)
        resolved = cfg.resolved()
        records = run(cfg)
        violations = check_alpha_envelope(records, resolved.alpha0,
                                          resolved.eta, slack=1e-10)
        assert violations == [], (name, violations[:3])
        assert check_revert_flags(records) == []
        checked += len(records)
    report(2, checked > 0,
           f"envelope held at every one of {checked} recorded steps")


def test_criterion_03_revert_exactness_randomized():
    """1000 randomized (eta, h, g) triples: the revert restores the
    pre-increment rate and applies exactly +eta*h*g_prev, 1e-12 relative.
    500 more random two-step streams in which a clamp cuts the increment:
    the revert takes back exactly the increment that was applied."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 6))
        eta = 10.0 ** rng.uniform(-7, -1)
        h_prev = (0.0 if trial % 97 == 0
                  else float(rng.normal()) * 10.0 ** rng.uniform(-3, 2))
        g_prev = rng.normal(size=n)
        alpha_before_increment = float(rng.normal())

        # state as it stands after the step that applied the increment
        sched = one_group(alpha_before_increment + eta * h_prev, eta,
                          prev_update=g_prev, prev_dot=h_prev)
        x0 = rng.normal(size=n)
        x = x0.copy()
        # choose the next update so the product is negative (fires) ...
        g_now = -math.copysign(1.0, h_prev) * g_prev if h_prev else g_prev
        _, _, (h_t,), (reverted,) = sched.step(x, g_now)
        if h_prev == 0.0:
            assert not reverted        # zero product can never fire
            continue
        assert reverted
        # undo this step's own descent and increment to isolate the revert
        new_alpha = sched.alpha[0]
        alpha_restored = new_alpha - eta * h_t
        x_corrected = x + new_alpha * g_now
        scale = max(1.0, abs(alpha_before_increment))
        worst = max(worst, abs(alpha_restored - alpha_before_increment) / scale)
        expected = x0 + eta * h_prev * g_prev
        xscale = np.maximum(1.0, np.abs(expected))
        worst = max(worst, float(np.max(np.abs(x_corrected - expected) / xscale)))

    clamped = 0
    for _ in range(500):
        n = int(rng.integers(1, 6))
        eta = 10.0 ** rng.uniform(-4, 0)
        alpha0 = float(rng.uniform(0.1, 1.0))
        prev, g1 = rng.normal(size=n), rng.normal(size=n)
        h0 = float(rng.normal())
        h1 = float(g1 @ prev)
        if h1 * h0 < 0:
            h0 = -h0                      # step 1 must not revert
        # a bound halfway along the requested increment binds on step 1
        bound = alpha0 + rng.uniform(0.1, 0.9) * eta * h1
        lo, hi = (-math.inf, bound) if h1 > 0 else (bound, math.inf)
        sched = one_group(alpha0, eta, prev_update=prev, prev_dot=h0,
                          alpha_min=lo, alpha_max=hi)
        x = rng.normal(size=n)
        *_, (reverted,) = sched.step(x, g1)
        assert not reverted and sched.alpha[0] == bound
        after_step = (x.copy(), sched.alpha[0])
        g2 = -math.copysign(rng.uniform(0.5, 2.0), h1) * g1
        *_, (reverted,) = sched.step(x, g2)
        assert reverted
        # undo step 2's own descent and (possibly clamped) increment
        after_revert = (x + sched.alpha[0] * g2,
                        sched.alpha[0] - sched.applied[0])
        # the clamped increment is passed as h_prev, with unit eta
        assert revert_exactness_check(after_step, after_revert, 1.0,
                                      bound - alpha0, g1)
        worst = max(worst, abs(after_revert[1] - alpha0) / max(1.0, alpha0))
        clamped += 1
    report(3, worst <= 1e-12 and clamped == 500,
           f"worst relative deviation {worst:.2e} <= 1e-12, "
           f"{clamped} of them with a clamp that bound")


def test_criterion_04_part2_equality_and_trajectory_match():
    """Non-reverting steps equal the plain scheduler step to 1e-12; streams
    with all products nonnegative give identical full trajectories."""
    rng = np.random.default_rng(23)
    # (a) alternating-sign streams, checked step by step on cloned states
    checked_steps = 0
    for _ in range(10):
        scalars = rng.uniform(0.5, 2.0, size=30) * np.where(
            rng.uniform(size=30) < 0.4, -1.0, 1.0)
        st = one_group(0.005, 0.01)
        x = np.zeros(2)
        for s in scalars:
            g = np.array([s, 0.3 * s])
            h_t = float(g @ st.prev_update)
            if h_t * st.prev_dot[0] >= 0:
                st_d, x_d = copy.deepcopy(st), x.copy()
                st_d.rule = "dbd"
                st_d.step(x_d, g)
                *_, (reverted,) = st.step(x, g)
                assert not reverted
                assert abs(st.alpha[0] - st_d.alpha[0]) <= 1e-12 * max(
                    1.0, abs(st_d.alpha[0]))
                assert np.all(np.abs(x - x_d)
                              <= 1e-12 * np.maximum(1.0, np.abs(x_d)))
                checked_steps += 1
            else:
                *_, (reverted,) = st.step(x, g)
                assert reverted
    # (b) all-nonnegative products: full trajectories match
    for _ in range(10):
        scalars = rng.uniform(0.1, 2.0, size=40)     # same sign throughout
        st_d = one_group(0.005, 0.01, rule="dbd")
        st_r = one_group(0.005, 0.01)
        x_d = np.zeros(2)
        x_r = np.zeros(2)
        for s in scalars:
            g = np.array([s, -0.7 * s])
            st_d.step(x_d, g)
            *_, (reverted,) = st_r.step(x_r, g)
            assert not reverted
            assert np.all(np.abs(x_r - x_d)
                          <= 1e-12 * np.maximum(1.0, np.abs(x_d)))
        assert abs(st_r.alpha[0] - st_d.alpha[0]) <= 1e-12 * max(
            1.0, abs(st_d.alpha[0]))
    report(4, checked_steps > 50,
           f"{checked_steps} non-reverting steps matched the plain rule; "
           f"nonnegative streams gave identical trajectories")


def test_criterion_05_per_step_steeper_descent_full_batch():
    """On a full-batch quadratic with eta <= 2/(L sigma^2), every step whose
    increment survives descends at least as much as the plain step."""
    prob = QuadraticProblem(np.diag([1.0, 2.0]), np.array([1.0, -0.5]))
    L = prob.known_constants["L"]
    sigma = 6.0
    eta = 1.0 / (L * sigma ** 2)              # within the admissible range
    x = np.array([2.0, 1.5])
    sched = one_group(0.2, eta)
    hist = []
    for t in range(1, 61):
        g = prob.loss_and_grad(x, None)[1]
        assert np.linalg.norm(g) <= sigma
        alpha_before, x_t = sched.alpha[0], x.copy()
        _, _, (h_t,), (reverted,) = sched.step(x, g)
        hist.append((x_t, g.copy(), alpha_before, sched.alpha[0], h_t,
                     reverted))
    checked, worst = 0, -math.inf
    for t in range(len(hist) - 1):
        x_t, g_t, a_before, a_after, h_t, rev = hist[t]
        h_prev = hist[t - 1][4] if t > 0 else 0.0
        h_next = hist[t + 1][4]
        if rev or h_t * h_prev < 0 or h_t * h_next < 0:
            continue                      # increment reverted or revert step
        f_sched = prob.loss(x_t - a_after * g_t)
        f_plain = prob.loss(x_t - a_before * g_t)
        worst = max(worst, f_sched - f_plain)
        checked += 1
    report(5, checked > 0 and worst <= 1e-12,
           f"{checked} surviving steps, max f(sched)-f(plain) = {worst:.2e} <= 1e-12")


def test_criterion_06_hypergradient_matches_rate_derivative():
    """The rate derivative formula matches a central finite difference of
    f(x - a*grad f(x)) at 50 random (x, a) points, 1e-6 relative."""
    def central(phi, a, h):
        # five-point central stencil: exact for the quartic line sections
        return (-phi(a + 2 * h) + 8 * phi(a + h)
                - 8 * phi(a - h) + phi(a - 2 * h)) / (12 * h)

    rng = np.random.default_rng(3)
    worst = 0.0
    cases = ((QuadraticProblem(np.diag([1.0, 4.0]), np.array([0.3, -1.0])), 2.0, 0.3),
             (RosenbrockProblem(), 1.5, 0.02))
    for prob, box, a_max in cases:
        for _ in range(50):
            point = rng.uniform(-box, box, 2)
            a = rng.uniform(0.0, a_max)
            g = prob.loss_and_grad(point, None)[1]
            hyper = dbd_hypergradient(
                prob.loss_and_grad(point - a * g, None)[1], g)
            fd = central(lambda b: prob.loss(point - b * g), a, 1e-3)
            worst = max(worst, abs(hyper - fd) / max(abs(fd), 1e-9))
    report(6, worst <= 1e-6, f"worst relative error {worst:.2e} <= 1e-6 "
                             f"over 100 (x, a) points")


def test_criterion_07_theory_calculators_exact():
    """Bound calculators reproduce hand-computed values to 1e-14 relative."""
    def close(a, b):
        return abs(a - b) <= 1e-14 * max(1.0, abs(a), abs(b))

    checks = [
        close(dbd_iteration_bound(TheoryParams(lipschitz_L=1, f_gap=1,
                                               gamma=0, epsilon=1)), 2.0),
        close(dbd_iteration_bound(TheoryParams(lipschitz_L=2, f_gap=1,
                                               gamma=0.5, epsilon=0.1)),
              533.3333333333334),
        close(rdbd_iteration_bound(TheoryParams(sigma=1, lipschitz_L=1,
                                                f_gap=1, gamma=0.5,
                                                epsilon=1)), 2.75),
        close(rdbd_iteration_bound(TheoryParams(gamma=0.0, epsilon=1.0)), 1.5),
    ]
    a0, eta = rdbd_theoretical_hyperparams(
        TheoryParams(sigma=1, lipschitz_L=1, f_gap=1, gamma=0.5), 4)
    checks += [close(a0, 0.5), close(eta, 0.0625)]
    lo, hi = alpha_envelope(0.005, 0.01, 1.0, 10)
    checks += [close(lo, -0.095), close(hi, 0.105)]
    assert alpha_envelope(0.3, 0.1, 2.0, 0) == (0.3, 0.3)
    rep = descent_coefficient_bound(1.0, 1.0, 0.0)
    checks += [rep.satisfied, close(rep.empirical_value, 2.0),
               close(rep.margin, 0.0)]
    rep = descent_coefficient_bound(0.5, 1.0, 0.5)
    checks += [rep.satisfied, close(rep.empirical_value, 8.0 / 3.0),
               close(rep.theoretical_value, 8.0 / 3.0)]
    report(7, all(checks), f"{len(checks)} hand-computed values matched "
                           f"at 1e-14 relative")


def test_criterion_08_gradient_oracles_match_finite_differences():
    """Analytic gradients match central differences at 20 random points:
    1e-6 relative for the smooth analytic problems, 1e-4 for the network."""
    rng = np.random.default_rng(31)
    smooth = [
        ("quadratic", QuadraticProblem(np.diag([0.5, 2.0, 4.0]),
                                       np.array([1.0, 0.0, -1.0])),
         lambda: rng.uniform(-3, 3, 3), 1e-6, 1e-6),
        ("rosenbrock", RosenbrockProblem(),
         lambda: rng.uniform(-2, 2, 2), 1e-6, 1e-6),
        ("logistic", LogisticProblem(synthetic_blobs(128, 6, 2, seed=5)),
         lambda: rng.normal(size=6) * 0.5, 1e-6, 1e-6),
    ]
    mlp = MlpProblem((6, 8, 3), synthetic_blobs(24, 6, 3, seed=9))
    checked = 0
    for name, prob, draw, fd_step, tol in smooth:
        for _ in range(20):
            x = draw()
            analytic = prob.loss_and_grad(x, None)[1]
            fd = finite_difference_gradient(prob, x, fd_step)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(fd - analytic)) <= tol * scale, name
            checked += 1
    base = mlp.initial_point(np.random.default_rng(17))
    for _ in range(20):
        x = base + rng.normal(size=mlp.dim) * 0.3
        analytic = mlp.loss_and_grad(x, None)[1]
        fd = finite_difference_gradient(mlp, x, 1e-5)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(fd - analytic)) <= 1e-4 * scale
        checked += 1
    report(8, checked == 80,
           "80 random points matched (1e-6 smooth, 1e-4 network)")


FIG2_BASE = RunConfig(problem="logistic", alpha0=0.005, batch_size=16,
                      steps=2000, n_samples=2048, dim=20)


def _median_final(optimizer, seeds=range(1, 6), **overrides):
    finals = []
    for s in seeds:
        kwargs = dict(optimizer=optimizer, seed=s, problem_seed=s,
                      eta=None, alpha_max=None)
        kwargs.update(overrides)
        finals.append(run(dataclasses.replace(FIG2_BASE, **kwargs)).full_loss[-1])
    return float(np.median(finals))


def test_criterion_09_stochastic_ordering_vs_baselines():
    """Desk-scale stand-in for the headline comparison: scheduled runs reach
    a median final loss no worse than their unscheduled baselines."""
    sgd = _median_final("sgd")
    rdbd = _median_final("rdbd", eta=0.01)
    adam = _median_final("adam")
    adam_rdbd = _median_final("adam_rdbd")   # eta 5e-7, cap 0.05 by default
    ok = rdbd <= sgd and adam_rdbd <= adam
    report(9, ok, f"median final loss: rdbd {rdbd:.4f} <= sgd {sgd:.4f}; "
                  f"adam+rdbd {adam_rdbd:.4f} <= adam {adam:.4f}")


def test_criterion_10_revert_beats_plain_schedule_under_noise():
    """With rare large zero-mean gradient bursts and no rate clamp, the
    revertible schedule keeps its median final loss at or below the plain
    schedule's, and actually reverts."""
    noise = dict(grad_noise=5.0, grad_noise_prob=0.05, alpha_min=-math.inf,
                 eta=0.01)
    reverts = 0
    for s in range(1, 6):
        cfg = dataclasses.replace(FIG2_BASE, optimizer="rdbd", seed=s,
                                  problem_seed=s, **noise)
        reverts += int(run(cfg).reverted.any(axis=1).sum())
    dbd = _median_final("dbd", **noise)
    rdbd = _median_final("rdbd", **noise)
    ok = rdbd <= dbd and reverts >= 1
    report(10, ok, f"median final loss: rdbd {rdbd:.4f} <= dbd {dbd:.4f}; "
                   f"{reverts} reverting steps across 5 seeds")


def test_criterion_11_real_data_tier():
    """Optional real-data tier: median steps to full loss 0.5, revertible
    schedule vs plain SGD on the stratified MNIST subset."""
    if not _mnist_present():
        print("criterion 11: SKIP - MNIST IDX files not found")
        pytest.skip("MNIST data not available")
    base = dataclasses.replace(preset("mnist-default"), steps=3750)

    def steps_to_half(optimizer, seed):
        cfg = dataclasses.replace(base, optimizer=optimizer, seed=seed,
                                  eta=None if optimizer == "sgd" else 0.01)
        trace = run(cfg)
        hits = np.flatnonzero(trace.full_loss <= 0.5)
        return float(trace.step[hits[0]]) if hits.size else math.inf

    rdbd = float(np.median([steps_to_half("rdbd", s) for s in (1, 2, 3)]))
    sgd = float(np.median([steps_to_half("sgd", s) for s in (1, 2, 3)]))
    report(11, rdbd < sgd,
           f"median steps to loss 0.5: rdbd {rdbd} < sgd {sgd}")


def test_criterion_12_idx_parser_round_trip_and_rejection():
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(25):
        if rng.uniform() < 0.5:
            arr = rng.integers(0, 256, size=int(rng.integers(1, 30)),
                               dtype=np.uint8)
        else:
            arr = rng.integers(0, 256, size=tuple(rng.integers(1, 5, 3)),
                               dtype=np.uint8)
        back = parse_idx(serialize_idx(arr))
        ok = ok and back.shape == arr.shape and bool(np.array_equal(back, arr))
    import struct
    for bad in (struct.pack(">II", 0x00000805, 1) + b"\x00",
                struct.pack(">II", 0x00000801, 9) + b"\x00\x01"):
        try:
            parse_idx(bad)
            ok = False
        except ValueError:
            pass
    report(12, ok, "random tensors round-tripped; bad magic and truncated "
                   "payloads rejected")


def test_criterion_13_preset_determinism(tmp_path):
    """Every runnable preset, executed twice, writes byte-identical traces."""
    names = []
    for name, cfg in _desk_presets():
        a = tmp_path / f"{name}-a.csv"
        b = tmp_path / f"{name}-b.csv"
        run(dataclasses.replace(cfg, out=str(a)))
        run(dataclasses.replace(cfg, out=str(b)))
        assert a.read_bytes() == b.read_bytes(), name
        names.append(name)
    report(13, len(names) >= 5,
           f"byte-identical traces for presets: {', '.join(names)}")
