import itertools
import math
import re
import warnings

import numpy as np
import pytest

from mupower import PdSettings, Scenario, compute_pu, gains_from_db, integrate, solve_centralized
from mupower.cli import write_trajectory_csv
from mupower.primal_dual import RECORD_EVERY, TOL_EQ, lyapunov
from mupower.solver import P_FLOOR
from mupower.utility import _beta, utility, utility_grad


def fig4_scenario() -> Scenario:
    return Scenario(
        w=(0.0, 0.3, 0.7, 1.0),
        p_circuit=0.1,
        p_max=1.0,
        delta=gains_from_db([0.0, 0.0, 0.0, 0.0]),
        p_sum_max=3.0,
    )


def caps_for(sc: Scenario) -> np.ndarray:
    return compute_pu(sc)


# --------------------------------------------------------------------- step

def libm_grad(p, w, p_circuit, delta):
    """utility_grad's expression on arrays, with log1p taken elementwise
    from libm (math.log1p) as integrate takes it."""
    total, dp = p + p_circuit, delta * p
    log1p = np.array([math.log1p(v) for v in dp.ravel().tolist()]).reshape(dp.shape)
    return (delta * total / ((1.0 + dp) * log1p) - (1.0 - w)) / total


def one_step(sc, p, lam, ref=None, **gains):
    """The state after integrate's first Euler step from (p, lam)."""
    pd = PdSettings(init_p=p, init_lambda=lam, max_steps=1, **gains)
    traj = integrate(sc, pd, reference=ref or solve_centralized(sc))
    return traj.p[-1], traj.lam[-1]


def test_step_interior_is_plain_euler():
    sc = fig4_scenario()
    p_u = caps_for(sc)
    p = 0.5 * p_u
    lam = 0.05
    p_new, _ = one_step(sc, p, lam)
    expected = p + 1e-3 * (libm_grad(p, sc.w, sc.p_circuit, sc.delta) - lam)
    np.testing.assert_array_equal(p_new, np.clip(expected, P_FLOOR, p_u))


def test_libm_grad_is_utility_grad_to_a_few_ulps():
    # a seeded draw over the valid domain: delta and p_circuit in [1e-30, 1e30],
    # p in [P_FLOOR, 1e30], w in [0, 1]. numpy's and libm's log1p may differ
    # in the last bit, and beta - (1 - w) rounds at the scale of its larger
    # term, so the ulps are those of max(beta, 1 - w) / (p + p_circuit)
    rng = np.random.default_rng(7)
    n = 20_000
    w = rng.uniform(0.0, 1.0, n)
    pc, delta = 10.0 ** rng.uniform(-30.0, 30.0, (2, n))
    p = P_FLOOR * 10.0 ** rng.uniform(0.0, 39.0, n)
    got, want = libm_grad(p, w, pc, delta), utility_grad(p, w, pc, delta)
    ulp = np.spacing(np.maximum(_beta(p, pc, delta), 1.0 - w) / (p + pc))
    assert np.max(np.abs(got - want) / ulp) <= 16.0


def test_step_fixed_at_centralized_optimum():
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    p_new, lam_new = one_step(sc, ref.p, ref.lam, ref)
    assert np.max(np.abs(p_new - ref.p)) <= TOL_EQ
    assert abs(lam_new - ref.lam) <= TOL_EQ


def test_step_lambda_parked_at_zero_under_slack():
    sc = fig4_scenario()
    p_u = caps_for(sc)
    p = 0.25 * p_u  # sum well under the budget
    _, lam_new = one_step(sc, p, 0.0)
    assert lam_new == 0.0


def test_step_holds_the_boundaries():
    sc = fig4_scenario()
    p_u = caps_for(sc)
    floor = np.full(4, P_FLOOR)
    # U'(p_floor) is about 1e9 here, so this price pushes every power down
    p_new, _ = one_step(sc, floor, 1e12)
    assert np.array_equal(p_new, floor)
    # with w = 1 every cap is p_max and U' > 0 there: the powers push up
    at_max = Scenario(w=1.0, p_circuit=0.1, p_max=1.0, delta=gains_from_db([0.0] * 4), p_sum_max=3.0)
    caps = caps_for(at_max)
    p_new, _ = one_step(at_max, caps, 0.0)
    assert np.array_equal(p_new, caps)
    # a small price under a slack budget would step below zero
    _, lam_new = one_step(sc, 0.25 * p_u, 1e-6)
    assert lam_new == 0.0


def test_step_overflow_detection():
    # the box clamps every power, so only the price can overflow: a price
    # near the float limit, raised by a huge gain on an over-budget start
    sc = fig4_scenario()
    p_u = caps_for(sc)
    assert p_u.sum() > sc.p_sum_max
    with pytest.raises(FloatingPointError, match="non-finite"):
        one_step(sc, p_u, 1.7e308, g=1e308)


def test_step_rejects_k_of_another_shape():
    # integrate checks k's shape once, before the first step
    sc = fig4_scenario()
    p_u = caps_for(sc)
    for k in (np.full((4, 1), 1e-3), np.full((1, 4), 1e-3)):
        with pytest.raises(ValueError, match=re.escape(f"k has shape {k.shape}, expected a scalar or (4,)")):
            one_step(sc, 0.5 * p_u, 0.0, k=k)
    with pytest.raises(ValueError):
        one_step(sc, 0.5 * p_u, 0.0, k=np.full(3, 1e-3))


# ----------------------------------------------------------------- lyapunov

def test_lyapunov_reference_values():
    pd = PdSettings(k=1e-3, g=1e-3)
    p_star = np.array([0.3, 0.4])
    assert lyapunov(p_star, 0.2, p_star, 0.2, pd) == 0.0
    shifted = p_star + np.array([0.1, 0.0])
    assert lyapunov(shifted, 0.2, p_star, 0.2, pd) == pytest.approx(5.0, rel=1e-12)


# ---------------------------------------------------------------- integrate

def test_integrate_converges_to_centralized():
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    traj = integrate(sc, PdSettings(), reference=ref)
    assert traj.converged
    assert np.max(np.abs(traj.p[-1] - ref.p)) <= 1e-3
    # box invariance and nonnegative price on every recorded point
    p_u = caps_for(sc)
    assert np.all(traj.p >= P_FLOOR - 1e-15)
    assert np.all(traj.p <= p_u + 1e-15)
    assert np.all(traj.lam >= 0.0)


def test_integrate_lyapunov_descends():
    sc = fig4_scenario()
    traj = integrate(sc, PdSettings())
    v = traj.v
    assert np.all(v[1:] <= v[:-1] + 1e-6 * np.maximum(1.0, v[:-1]))
    assert v[-1] < 1e-6 * v[0]


def test_integrate_message_accounting():
    sc = fig4_scenario()
    traj = integrate(sc, PdSettings(max_steps=777), reference=solve_centralized(sc))
    assert traj.messages_uplink == sc.n_users * traj.steps_taken
    if not traj.converged:
        assert traj.steps_taken == 777


def test_integrate_single_user_slack_budget():
    sc = Scenario(w=1.0, p_circuit=0.1, p_max=0.5, delta=(100.0,), p_sum_max=2.0)
    traj = integrate(sc, PdSettings())
    assert traj.converged
    assert traj.p[-1][0] == pytest.approx(0.5, abs=1e-9)
    assert np.all(traj.lam == 0.0)


def test_integrate_symmetry_preserved_along_trajectory():
    sc = Scenario(
        w=(0.6, 0.6), p_circuit=0.1, p_max=1.0, delta=gains_from_db([10.0, 10.0]), p_sum_max=0.4
    )
    pd = PdSettings(init_p=np.array([0.05, 0.05]))
    traj = integrate(sc, pd)
    assert np.max(np.abs(traj.p[:, 0] - traj.p[:, 1])) <= 1e-9


def test_integrate_restart_is_fixed_point():
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    traj = integrate(sc, PdSettings(), reference=ref)
    again = integrate(
        sc,
        PdSettings(init_p=traj.p[-1], init_lambda=traj.lam[-1]),
        reference=ref,
    )
    assert again.converged
    assert again.steps_taken <= 10


def test_integrate_records_derived_after_the_run():
    # the utility and V of the stacked records equal the per-record values
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    for pd, converged in ((PdSettings(k=0.1, g=0.1), True), (PdSettings(max_steps=555), False)):
        traj = integrate(sc, pd, reference=ref)
        assert traj.converged is converged
        assert traj.t[-1] == traj.steps_taken
        assert traj.t.tolist() == list(range(0, traj.steps_taken, RECORD_EVERY)) + [traj.steps_taken]
        u = [float(np.sum(utility(p, sc.w, sc.p_circuit, sc.delta))) for p in traj.p]
        v = [lyapunov(p, lam, ref.p, ref.lam, pd) for p, lam in zip(traj.p, traj.lam)]
        np.testing.assert_array_equal(traj.total_utility, u)
        np.testing.assert_array_equal(traj.v, v)
    assert traj.t[-3:].tolist() == [400, 500, 555]


def test_integrate_same_limit_from_random_starts():
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    p_u = caps_for(sc)
    rng = np.random.default_rng(59)
    finals = []
    for _ in range(4):
        pd = PdSettings(
            init_p=rng.uniform(0.05, 1.0, 4) * p_u,
            init_lambda=float(rng.uniform(0.0, 1.0)),
        )
        traj = integrate(sc, pd, reference=ref)
        assert traj.converged
        finals.append(traj.p[-1])
    for p in finals:
        assert np.max(np.abs(p - ref.p)) <= 1e-3


def numpy_euler(sc, pd, ref):
    """The Euler loop written on arrays (np.minimum/np.maximum, p.sum()),
    returning the recorded t, p and lam as integrate records them."""
    p_u, k, g = ref.p_u, pd.k, pd.g
    p = np.clip(0.5 * p_u if pd.init_p is None else np.array(pd.init_p, dtype=float), P_FLOOR, p_u)
    lam = pd.init_lambda
    records = [(0, p, lam)]
    for t in range(1, pd.max_steps + 1):
        drive = libm_grad(p, sc.w, sc.p_circuit, sc.delta) - lam
        p_next = np.minimum(np.maximum(p + k * drive, P_FLOOR), p_u)
        lam_next = max(0.0, lam + g * (float(p.sum()) - sc.p_sum_max))
        motion = max(float(abs(p_next - p).max()), abs(lam_next - lam))
        p, lam = p_next, lam_next
        if t % RECORD_EVERY == 0:
            records.append((t, p, lam))
        if motion <= TOL_EQ:
            break
    if t % RECORD_EVERY != 0:
        records.append((t, p, lam))
    return [np.array(col) for col in zip(*records)]


def test_integrate_matches_the_numpy_euler_loop():
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    rng = np.random.default_rng(99)  # criterion 9's first start
    start = dict(init_p=rng.uniform(0.02, 1.0, 4) * ref.p_u, init_lambda=float(rng.uniform(0.0, 1.0)))
    k_vec = np.array([5e-4, 1e-3, 2e-3, 1.5e-3])
    # below 8 users numpy's sum adds left to right, as integrate does: every bit agrees
    for pd in (PdSettings(max_steps=3000), PdSettings(max_steps=3000, **start),
               PdSettings(k=k_vec, max_steps=1, **start)):
        traj = integrate(sc, pd, reference=ref)
        for got, want in zip((traj.t, traj.p, traj.lam), numpy_euler(sc, pd, ref)):
            assert np.array_equal(got, want)
    # from 8 users on numpy sums pairwise, so the price may differ in its last bits
    n = 12
    big = Scenario(w=np.linspace(0.0, 1.0, n), p_circuit=0.1, p_max=1.0,
                   delta=gains_from_db(np.linspace(-5.0, 15.0, n)), p_sum_max=2.0)
    ref = solve_centralized(big)
    assert ref.p_u.sum() > big.p_sum_max
    pd = PdSettings(k=np.linspace(5e-4, 2e-3, n), max_steps=3000)
    traj = integrate(big, pd, reference=ref)
    t, p, lam = numpy_euler(big, pd, ref)
    assert np.array_equal(traj.t, t)
    np.testing.assert_allclose(traj.p, p, rtol=1e-12, atol=0)
    np.testing.assert_allclose(traj.lam, lam, rtol=1e-12, atol=0)


def test_integrate_matches_the_numpy_euler_loop_to_convergence():
    # two fig4 runs to convergence: the default start, and 0.99 p_u at
    # lam = 0, where user 3 parks at its cap, is released while the price
    # overshoots U_3'(p_u), and parks again. integrate skips a parked
    # user's update; the oracle never skips, and every bit must agree
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    for pd in (PdSettings(), PdSettings(init_p=0.99 * ref.p_u)):
        traj = integrate(sc, pd, reference=ref)
        assert traj.converged
        t, p, lam = numpy_euler(sc, pd, ref)
        for got, want in zip((traj.t, traj.p, traj.lam), (t, p, lam)):
            assert np.array_equal(got, want)
    # the oracle's records of the second run hold both events
    u_cap = libm_grad(ref.p_u, sc.w, sc.p_circuit, sc.delta)
    parked = p[:, 2] == ref.p_u[2]
    first = np.argmax(parked)
    left = first + np.argmax(~parked[first:])
    back = left + np.argmax(parked[left:])
    assert parked[first] and not parked[left] and parked[back]
    assert lam[first:left + 1].max() > u_cap[2]


def test_parked_skip_boundary_matches_the_numpy_step():
    # one step from the caps of test_step_holds_the_boundaries' at_max
    # scenario, at lam = U'(p_u) and one ulp either side of it: integrate
    # skips the update only when lam <= U'(p_u), the oracle never skips
    at_max = Scenario(w=1.0, p_circuit=0.1, p_max=1.0, delta=gains_from_db([0.0] * 4), p_sum_max=3.0)
    ref = solve_centralized(at_max)
    u_cap = libm_grad(ref.p_u, at_max.w, at_max.p_circuit, at_max.delta)
    assert np.all(u_cap == u_cap[0])
    below, above = np.nextafter(u_cap[0], 0.0), np.nextafter(u_cap[0], np.inf)
    for k in (1e-3, 1.0):
        for lam in (below, u_cap[0], above):
            pd = PdSettings(k=k, init_p=ref.p_u, init_lambda=float(lam), max_steps=1)
            traj = integrate(at_max, pd, reference=ref)
            for got, want in zip((traj.t, traj.p, traj.lam), numpy_euler(at_max, pd, ref)):
                assert np.array_equal(got, want)
    # with k = 1 the price one ulp above U'(p_u) moves every power off its cap
    assert np.all(traj.p[-1] == np.nextafter(ref.p_u, 0.0))


def test_scalar_step_at_the_valid_domain_extremes():
    # one user at every corner of the valid domain, started at half its cap
    # and at its cap: each run returns, its records in the box, or raises
    # FloatingPointError; never a Python float error (ZeroDivisionError,
    # OverflowError) nor a RuntimeWarning
    corners = itertools.product((1e-30, 1.0, 1e30), (1e-30, 1.0, 1e30), (1e-9, 1.0, 1e30),
                                (1e-9, 1.0, 1e30), (1e-3, 1e30), (0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta, p_c, p_max, p_sum_max, gain, w in corners:
            sc = Scenario(w=w, p_circuit=p_c, p_max=p_max, delta=(delta,), p_sum_max=p_sum_max)
            ref = solve_centralized(sc)
            # from half the cap and from the cap itself, where U'(p_u) decides the skip
            for init_p in (None, ref.p_u):
                pd = PdSettings(k=gain, g=gain, init_p=init_p, max_steps=200)
                try:
                    traj = integrate(sc, pd, reference=ref)
                except FloatingPointError:
                    continue
                assert np.all((traj.p >= P_FLOOR) & (traj.p <= ref.p_u))


def test_init_p_validation():
    sc = fig4_scenario()
    with pytest.raises(ValueError, match="init_p"):
        integrate(sc, PdSettings(init_p=np.full(4, 10.0)))
    with pytest.raises(ValueError, match="init_p"):
        integrate(sc, PdSettings(init_p=np.array([np.nan, 0.1, 0.1, 0.1])))
    for k in (np.full((4, 1), 1e-3), np.full(3, 1e-3)):
        with pytest.raises(ValueError, match=re.escape(f"k has shape {k.shape}, expected a scalar or (4,)")):
            integrate(sc, PdSettings(k=k))


def test_pd_settings_validation():
    with pytest.raises(ValueError):
        PdSettings(k=0.0)
    with pytest.raises(ValueError):
        PdSettings(g=-1.0)
    with pytest.raises(ValueError):
        PdSettings(init_lambda=-0.1)
    for kwargs in (
        dict(k=math.inf), dict(k=[0.1, math.nan]), dict(g=math.inf), dict(g=math.nan),
        dict(init_lambda=math.inf), dict(init_lambda=math.nan),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            PdSettings(**kwargs)
    for max_steps in (2.5, math.nan, math.inf, True, 0, -3):
        with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
            PdSettings(max_steps=max_steps)
    assert PdSettings(max_steps=1e3).max_steps == 1000


def test_trajectory_csv_format(tmp_path):
    sc = fig4_scenario()
    traj = integrate(sc, PdSettings(max_steps=500), reference=solve_centralized(sc))
    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,P_1,P_2,P_3,P_4,lambda,total_utility,V"
    assert len(lines) == traj.t.size + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first) == 8
