import re

import numpy as np
import pytest

from mupower import (
    PdSettings,
    Scenario,
    compute_pu,
    gains_from_db,
    integrate,
    lyapunov,
    solve_centralized,
    step,
)
from mupower.cli import write_trajectory_csv
from mupower.primal_dual import RECORD_EVERY, TOL_EQ
from mupower.solver import P_FLOOR
from mupower.utility import utility, utility_grad


def fig4_scenario() -> Scenario:
    return Scenario(
        w=(0.0, 0.3, 0.7, 1.0),
        p_circuit=0.1,
        p_max=1.0,
        delta=gains_from_db([0.0, 0.0, 0.0, 0.0]),
        p_sum_max=3.0,
    )


def caps_for(sc: Scenario) -> np.ndarray:
    return compute_pu(sc)[0]


# --------------------------------------------------------------------- step

def test_step_interior_is_plain_euler():
    sc = fig4_scenario()
    p_u = caps_for(sc)
    pd = PdSettings()
    p = 0.5 * p_u
    lam = 0.05
    p_new, _ = step((p, lam), sc, p_u, pd)
    expected = p + 1e-3 * (utility_grad(p, sc.w, sc.p_circuit, sc.delta) - lam)
    np.testing.assert_array_equal(p_new, np.clip(expected, P_FLOOR, p_u))


def test_step_fixed_at_centralized_optimum():
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    pd = PdSettings()
    p_new, lam_new = step((ref.p, ref.lam), sc, ref.p_u, pd)
    assert np.max(np.abs(p_new - ref.p)) <= TOL_EQ
    assert abs(lam_new - ref.lam) <= TOL_EQ


def test_step_lambda_parked_at_zero_under_slack():
    sc = fig4_scenario()
    p_u = caps_for(sc)
    pd = PdSettings()
    p = 0.25 * p_u  # sum well under the budget
    _, lam_new = step((p, 0.0), sc, p_u, pd)
    assert lam_new == 0.0


def test_step_holds_the_boundaries():
    sc = fig4_scenario()
    p_u = caps_for(sc)
    pd = PdSettings()
    floor = np.full(4, P_FLOOR)
    # U'(p_floor) is about 1e9 here, so this price pushes every power down
    p_new, _ = step((floor, 1e12), sc, p_u, pd)
    assert np.array_equal(p_new, floor)
    # with w = 1 every cap is p_max and U' > 0 there: the powers push up
    at_max = Scenario(w=1.0, p_circuit=0.1, p_max=1.0, delta=gains_from_db([0.0] * 4), p_sum_max=3.0)
    caps = caps_for(at_max)
    p_new, _ = step((caps, 0.0), at_max, caps, pd)
    assert np.array_equal(p_new, caps)
    # a small price under a slack budget would step below zero
    _, lam_new = step((0.25 * p_u, 1e-6), sc, p_u, pd)
    assert lam_new == 0.0


def test_step_overflow_detection():
    # the box clamps bound everything reachable from finite state, so the
    # non-finite guard is exercised with a corrupted price directly
    sc = fig4_scenario()
    p_u = caps_for(sc)
    pd = PdSettings()
    with pytest.raises(FloatingPointError):
        step((0.5 * p_u, np.inf), sc, p_u, pd)
    # max(0.0, nan) is 0.0, so only the test on the powers catches a NaN price
    with pytest.raises(FloatingPointError):
        step((0.5 * p_u, np.nan), sc, p_u, pd)


def test_step_rejects_k_of_another_shape():
    sc = fig4_scenario()
    p_u = caps_for(sc)
    for k in (np.full((4, 1), 1e-3), np.full((1, 4), 1e-3)):
        with pytest.raises(ValueError, match=re.escape(f"k has shape {k.shape}, expected a scalar or (4,)")):
            step((0.5 * p_u, 0.0), sc, p_u, PdSettings(k=k))
    with pytest.raises(ValueError):
        step((0.5 * p_u, 0.0), sc, p_u, PdSettings(k=np.full(3, 1e-3)))


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
