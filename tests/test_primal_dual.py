import dataclasses
import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mupower import (Allocation, PdSettings, Scenario, compute_pu, gains_from_db, integrate, kkt_residuals,
                     load_scenario, solve_centralized)
from mupower.cli import write_trajectory_csv
from mupower.primal_dual import RECORD_EVERY, Trajectory, lyapunov
from mupower.solver import P_FLOOR, TOL_KKT, _certificate
from mupower.utility import _beta, utility, utility_grad

FIG4 = Path(__file__).resolve().parent.parent / "scenarios" / "fig4.yaml"


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


def kkt_of(sc, p, p_u, lam):
    """The solver's KKT report of a primal-dual state (p, lam) under the caps p_u."""
    return kkt_residuals(sc, Allocation(p=p, p_u=p_u, lam=lam, case=None))


# --------------------------------------------------------------------- step

def libm_grad(p, w, p_circuit, delta):
    """utility_grad's expression on arrays, with log1p taken elementwise
    from libm (math.log1p) as integrate takes it."""
    total, dp = p + p_circuit, delta * p
    log1p = np.array([math.log1p(v) for v in dp.ravel().tolist()]).reshape(dp.shape)
    return (delta * total / ((1.0 + dp) * log1p) - (1.0 - w)) / total


def one_step(sc, p, lam, **gains):
    """The state after integrate's first Euler step from (p, lam)."""
    pd = PdSettings(init_p=p, init_lambda=lam, max_steps=1, **gains)
    traj = integrate(sc, pd)
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
    p_new, lam_new = one_step(sc, ref.p, ref.lam)
    assert np.max(np.abs(p_new - ref.p)) <= 1e-10
    assert abs(lam_new - ref.lam) <= 1e-10


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
    traj = integrate(sc, PdSettings())
    assert traj.converged
    assert np.max(np.abs(traj.p[-1] - ref.p)) <= 1e-3
    # box invariance and nonnegative price on every recorded point
    p_u = caps_for(sc)
    assert np.all(traj.p >= P_FLOOR - 1e-15)
    assert np.all(traj.p <= p_u + 1e-15)
    assert np.all(traj.lam >= 0.0)


def test_integrate_lyapunov_descends():
    sc = fig4_scenario()
    traj, ref = integrate(sc, PdSettings()), solve_centralized(sc)
    v = lyapunov(traj.p, traj.lam, ref.p, ref.lam, PdSettings())
    assert np.all(v[1:] <= v[:-1] + 1e-6 * np.maximum(1.0, v[:-1]))
    assert v[-1] < 1e-6 * v[0]


def test_integrate_message_accounting():
    sc = fig4_scenario()
    traj = integrate(sc, PdSettings(max_steps=777))
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
    traj = integrate(sc, PdSettings())
    again = integrate(sc, PdSettings(init_p=traj.p[-1], init_lambda=traj.lam[-1]))
    assert again.converged
    assert again.steps_taken <= 10


def test_integrate_records_derived_after_the_run(tmp_path):
    # the written total utility and the V of the stacked records equal the
    # per-record values, and the run's KKT report is the solver's report of
    # its last record
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    out = tmp_path / "traj.csv"
    for pd, converged in ((PdSettings(k=0.1, g=0.1), True), (PdSettings(max_steps=555), False)):
        traj = integrate(sc, pd)
        assert traj.converged is converged
        assert traj.kkt.max_residual == kkt_of(sc, traj.p[-1], ref.p_u, traj.lam[-1]).max_residual
        assert bool(traj.kkt.max_residual <= TOL_KKT) is converged
        assert traj.t[-1] == traj.steps_taken
        assert traj.t.tolist() == list(range(0, traj.steps_taken, RECORD_EVERY)) + [traj.steps_taken]
        u = [float(np.sum(utility(p, sc.w, sc.p_circuit, sc.delta))) for p in traj.p]
        v = [lyapunov(p, lam, ref.p, ref.lam, pd) for p, lam in zip(traj.p, traj.lam)]
        write_trajectory_csv(traj, sc, np.array(v), out)
        written = [line.split(",")[-2] for line in out.read_text().splitlines()[1:]]
        assert written == [f"{x:.12g}" for x in u]
        np.testing.assert_array_equal(lyapunov(traj.p, traj.lam, ref.p, ref.lam, pd), v)
    assert traj.t[-3:].tolist() == [400, 500, 555]


def test_integrate_stops_on_the_last_allowed_step():
    # fig4's default start stops at step 28,290, where its steps first pass
    # the stop rule and its state the certificate: a budget of exactly that
    # many steps stops there too, and one step less runs out. converged is
    # the end state's certificate, which step 28,289's state passes as well
    # and step 28,288's, one step earlier, does not
    sc = fig4_scenario()
    for max_steps, steps, converged in ((10**7, 28_290, True), (28_290, 28_290, True),
                                        (28_289, 28_289, True), (28_288, 28_288, False)):
        traj = integrate(sc, PdSettings(max_steps=max_steps))
        assert traj.converged is converged
        assert traj.t[-1] == traj.steps_taken == steps


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
        traj = integrate(sc, pd)
        assert traj.converged
        finals.append(traj.p[-1])
    for p in finals:
        assert np.max(np.abs(p - ref.p)) <= 1e-3


def criterion_9_starts(sc, gain):
    """Acceptance criterion 9's 10 seeded starts of fig4, at k = g = gain."""
    p_u = caps_for(sc)
    rng = np.random.default_rng(99)
    return [PdSettings(k=gain, g=gain, init_p=rng.uniform(0.02, 1.0, 4) * p_u,
                       init_lambda=float(rng.uniform(0.0, 1.0))) for _ in range(10)]


def seeded_draw(seed, n, share):
    """n users, w from U(0, 1) and delta from -10 to 20 dB drawn from seed,
    under a budget of share times the sum of their caps (slack above 1)."""
    rng = np.random.default_rng(seed)
    sc = Scenario(w=rng.uniform(0.0, 1.0, n), p_circuit=0.1, p_max=1.0,
                  delta=gains_from_db(rng.uniform(-10.0, 20.0, n)), p_sum_max=float(n))
    return dataclasses.replace(sc, p_sum_max=share * float(caps_for(sc).sum()))


def test_every_converged_run_passes_the_kkt_gate():
    # converged is the solver's certificate of the end state, recomputed
    # here from the last record: fig4's default start, criterion 9's starts
    # at four gains, and seeded draws of 2 to 16 users, slack and tight (the
    # seed-2 and seed-4 budgets price the power above 1)
    loaded = load_scenario(FIG4)
    runs = [(loaded.scenario, loaded.pd)]
    runs += [(loaded.scenario, pd) for gain in (1e-3, 1e-2, 0.1, 0.3)
             for pd in criterion_9_starts(loaded.scenario, gain)]
    for seed, n, share in ((1, 2, 0.7), (2, 3, 0.3), (3, 9, 1.5), (4, 13, 0.3), (5, 16, 0.7), (6, 5, 1.5)):
        runs += [(seeded_draw(seed, n, share), PdSettings(k=gain, g=gain)) for gain in (1e-3, 1e-2)]
    prices = []
    for sc, pd in runs:
        ref = solve_centralized(sc)
        traj = integrate(sc, pd)
        assert traj.converged
        assert kkt_of(sc, traj.p[-1], ref.p_u, traj.lam[-1]).max_residual <= TOL_KKT
        prices.append(ref.lam)
    assert max(prices) > 1.0


def test_trajectory_stores_its_records_and_certificate_only():
    # the counters derive from (t, p, lam, kkt), read-only: fig4's default
    # start and criterion 9's starts at fig4's gains
    assert tuple(f.name for f in dataclasses.fields(Trajectory)) == ("t", "p", "lam", "kkt")
    loaded = load_scenario(FIG4)
    for pd in [loaded.pd] + criterion_9_starts(loaded.scenario, 1e-3):
        traj = integrate(loaded.scenario, pd)
        assert type(traj.steps_taken) is int and traj.steps_taken == traj.t[-1]
        assert type(traj.messages_uplink) is int and traj.messages_uplink == 4 * traj.t[-1]
        assert traj.converged is bool(traj.kkt.max_residual <= TOL_KKT)
        assert traj.converged
    for name in ("steps_taken", "messages_uplink", "converged"):
        with pytest.raises(AttributeError):
            setattr(traj, name, 0)


def test_stop_rule_scales_the_price_and_runs_on_past_a_failed_certificate(monkeypatch):
    reports = []

    def counted(*args):
        reports.append(_certificate(*args))
        return reports[-1]

    monkeypatch.setattr("mupower.primal_dual._certificate", counted)
    # at a price of about 1.45 a price test on |sum(p) - p_sum_max| alone
    # passes while lambda |sum(p) - p_sum_max| still fails the gate, and the
    # certificate would then run on most steps for hundreds of steps
    sc = seeded_draw(2, 3, 0.3)
    ref = solve_centralized(sc)
    assert ref.lam > 1.0
    for gain in (1e-3, 1e-2):
        reports.clear()
        assert integrate(sc, PdSettings(k=gain, g=gain)).converged
        assert len(reports) <= 2
    # criterion 9's third start at k = g = 0.3 passes the stop rule once before
    # its state passes the certificate, runs on and is certified at step 132
    sc = fig4_scenario()
    reports.clear()
    traj = integrate(sc, criterion_9_starts(sc, 0.3)[2])
    assert [bool(r.max_residual <= TOL_KKT) for r in reports] == [False, True]
    assert traj.kkt is reports[-1] and traj.converged
    assert traj.steps_taken == 132


def test_an_exhausted_run_reuses_the_certificate_of_its_last_step(monkeypatch):
    reports = []

    def counted(*args):
        reports.append(_certificate(*args))
        return reports[-1]

    monkeypatch.setattr("mupower.primal_dual._certificate", counted)
    # criterion 9's third start at k = g = 0.3 first passes the stop rule at
    # step 129, where its state fails the certificate: with 129 steps allowed
    # that failed report is the run's own
    sc = fig4_scenario()
    traj = integrate(sc, dataclasses.replace(criterion_9_starts(sc, 0.3)[2], max_steps=129))
    assert len(reports) == 1 and traj.kkt is reports[0]
    assert traj.steps_taken == 129 and not traj.converged
    assert traj.kkt.max_residual == pytest.approx(1.008e-8, rel=1e-3)


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
        gap = float(p_next.sum()) - sc.p_sum_max
        still = bool(np.all(np.abs(p_next - p) <= TOL_KKT * k)) and lam_next * abs(gap) <= TOL_KKT and gap <= TOL_KKT
        p, lam = p_next, lam_next
        if t % RECORD_EVERY == 0:
            records.append((t, p, lam))
        if still and kkt_of(sc, p, p_u, lam).max_residual <= TOL_KKT:
            break
    if t % RECORD_EVERY != 0:
        records.append((t, p, lam))
    return [np.array(col) for col in zip(*records)]


def float_euler(sc, pd, ref):
    """The Euler loop on Python floats as one per-user loop over zipped
    users, the form integrate's generated kernel replaced, returning the
    recorded t, p and lam as integrate records them."""
    p_u, k, g = ref.p_u, pd.k, pd.g
    w, p_circuit, delta, p_sum_max = sc.w, sc.p_circuit, sc.delta, sc.p_sum_max
    p = np.clip(0.5 * p_u if pd.init_p is None else np.array(pd.init_p, dtype=float), P_FLOOR, p_u)
    lam = float(pd.init_lambda)
    log1p, isfinite, floor = math.log1p, math.isfinite, P_FLOOR
    users = []
    for k_i, p_u_i, delta_i, p_c_i, c_i in np.column_stack(
            np.broadcast_arrays(k, p_u, delta, p_circuit, 1.0 - w)).tolist():
        total, dp = p_u_i + p_c_i, delta_i * p_u_i
        u_cap_i = (delta_i * total / ((1.0 + dp) * log1p(dp)) - c_i) / total
        users.append((k_i, p_u_i, delta_i, p_c_i, c_i, u_cap_i))
    x, p_sum = p.tolist(), float(p.sum())
    records = [(0, p, lam)]
    for t in range(1, pd.max_steps + 1):
        lam_next = lam + g * (p_sum - p_sum_max)
        lam_next = lam_next if lam_next > 0.0 else 0.0  # max(0.0, .), NaN to 0.0 too
        x_next, p_sum, still = [], 0.0, True
        for x_i, (k_i, p_u_i, delta_i, p_c_i, c_i, u_cap_i) in zip(x, users):
            if x_i == p_u_i and lam <= u_cap_i:
                x_next.append(x_i)
                p_sum += x_i
                continue
            total, dp = x_i + p_c_i, delta_i * x_i
            u_i = (delta_i * total / ((1.0 + dp) * log1p(dp)) - c_i) / total
            x_i_next = x_i + k_i * (u_i - lam)
            if x_i_next < floor:
                x_i_next = floor
            if x_i_next > p_u_i:
                x_i_next = p_u_i
            x_next.append(x_i_next)
            p_sum += x_i_next
            still = still and abs(x_i_next - x_i) <= TOL_KKT * k_i
        if not (isfinite(p_sum) and isfinite(lam_next)):
            raise FloatingPointError("primal-dual state became non-finite; gains are likely too large")
        still = still and lam_next * abs(p_sum - p_sum_max) <= TOL_KKT and p_sum - p_sum_max <= TOL_KKT
        x, lam = x_next, lam_next
        if t % RECORD_EVERY == 0:
            records.append((t, np.array(x), lam))
        if still and kkt_of(sc, np.array(x), p_u, lam).max_residual <= TOL_KKT:
            break
    if t % RECORD_EVERY != 0:
        records.append((t, np.array(x), lam))
    return [np.array(col) for col in zip(*records)]


def spread_scenario(n: int) -> Scenario:
    """n users with spread weights and gains under a tight budget: from 2
    users on, some park at their caps at the optimum."""
    return Scenario(w=np.linspace(0.0, 1.0, n), p_circuit=0.1, p_max=1.0,
                    delta=gains_from_db(np.linspace(-5.0, 15.0, n)), p_sum_max=0.75 * n)


def test_integrate_matches_the_float_euler_loop_for_any_user_count():
    # the generated kernel runs the per-user loop's float operations in its
    # order, so every bit agrees at every N, also from 8 users on where
    # numpy_euler's pairwise sum parts from it. Each start is run with a
    # scalar and with a per-user k: from the caps, from next to the floor
    # under a price that then drives the powers back onto the floor, and
    # from inside the box
    for n in (1, 2, 3, 4, 7, 8, 9, 12, 33):
        sc = spread_scenario(n)
        ref = solve_centralized(sc)
        assert ref.p_u.sum() > sc.p_sum_max
        rng = np.random.default_rng(n)
        starts = (dict(init_p=ref.p_u),
                  dict(init_p=np.full(n, 2.0 * P_FLOOR), init_lambda=1e3),
                  dict(init_p=rng.uniform(0.2, 0.8, n) * ref.p_u, init_lambda=float(rng.uniform(0.0, 1.0))))
        at_floor = at_cap = False
        for start, k in itertools.product(starts, (1e-3, np.linspace(5e-4, 2e-3, n))):
            pd = PdSettings(k=k, max_steps=3000, **start)
            traj = integrate(sc, pd)
            for got, want in zip((traj.t, traj.p, traj.lam), float_euler(sc, pd, ref)):
                assert np.array_equal(got, want)
            at_floor |= bool(np.any(traj.p == P_FLOOR))
            at_cap |= bool(np.any(traj.p[1:] == ref.p_u))
        # both clamps hold some user at a recorded state after the start
        assert at_floor and at_cap


def test_integrate_builds_its_kernel_for_many_users():
    # a kernel of 1024 user blocks compiles and runs as the per-user loop
    sc = spread_scenario(1024)
    ref = solve_centralized(sc)
    pd = PdSettings(k=np.linspace(5e-4, 2e-3, 1024), max_steps=2)
    traj = integrate(sc, pd)
    assert traj.steps_taken == 2
    for got, want in zip((traj.t, traj.p, traj.lam), float_euler(sc, pd, ref)):
        assert np.array_equal(got, want)


def test_integrate_records_each_block_edge_as_the_float_euler_loop():
    # the kernel runs its steps in blocks of RECORD_EVERY: a budget one step
    # short of, at, and one step past a block's end records as the per-user
    # loop does, with scalar and per-user k
    edges = (1, 99, 100, 101, 199, 200, 201)
    for sc in (fig4_scenario(), spread_scenario(9)):
        ref = solve_centralized(sc)
        for k, max_steps in itertools.product((1e-3, np.linspace(5e-4, 2e-3, sc.n_users)), edges):
            pd = PdSettings(k=k, max_steps=max_steps)
            traj = integrate(sc, pd)
            assert traj.t.tolist() == list(range(0, max_steps, RECORD_EVERY)) + [max_steps]
            for got, want in zip((traj.t, traj.p, traj.lam), float_euler(sc, pd, ref)):
                assert np.array_equal(got, want)
    # a certified stop on a block's last step, and on the steps either side
    # of it: fig4's default start is first certified at step 28,290, so a
    # restart from its state `left` steps earlier stops after `left` steps
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    for left in (99, 100, 101, 200):
        head = integrate(sc, PdSettings(max_steps=28_290 - left))
        pd = PdSettings(init_p=head.p[-1], init_lambda=head.lam[-1])
        traj = integrate(sc, pd)
        assert not head.converged and traj.converged
        assert traj.t.tolist() == list(range(0, left, RECORD_EVERY)) + [left]
        for got, want in zip((traj.t, traj.p, traj.lam), float_euler(sc, pd, ref)):
            assert np.array_equal(got, want)


def overflow_run(max_steps):
    """fig4 under a 1 W budget from its caps, with a price gain near the float
    limit: the price doubles in about four steps, then overflows."""
    sc = dataclasses.replace(fig4_scenario(), p_sum_max=1.0)
    return sc, PdSettings(k=1e-320, g=1.6e307, init_p=compute_pu(sc), max_steps=max_steps)


def test_certificate_reports_an_overflowing_price_term_as_inf_without_a_warning():
    # from step 2 lambda (sum(P) - p_sum_max) exceeds the float range: the
    # certificate reads its comp_sum as inf, the run as unconverged, and
    # raises no RuntimeWarning (pytest makes one an error)
    for max_steps in (2, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = integrate(*overflow_run(max_steps))
        assert np.isfinite(traj.lam).all() and traj.kkt.comp_sum == np.inf
        assert not traj.converged


def test_integrate_raises_on_the_overflow_step_of_the_float_euler_loop():
    # four steps return the per-user loop's uncertified records; the fifth
    # overflows the price, and both loops raise on it
    sc, pd = overflow_run(4)
    ref = solve_centralized(sc)
    traj = integrate(sc, pd)
    assert not traj.converged and traj.steps_taken == 4
    for got, want in zip((traj.t, traj.p, traj.lam), float_euler(sc, pd, ref)):
        assert np.array_equal(got, want)
    sc, pd = overflow_run(5)
    for run in (lambda: integrate(sc, pd), lambda: float_euler(sc, pd, ref)):
        with pytest.raises(FloatingPointError, match="non-finite"):
            run()


def test_integrate_matches_the_numpy_euler_loop():
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    rng = np.random.default_rng(99)  # criterion 9's first start
    start = dict(init_p=rng.uniform(0.02, 1.0, 4) * ref.p_u, init_lambda=float(rng.uniform(0.0, 1.0)))
    k_vec = np.array([5e-4, 1e-3, 2e-3, 1.5e-3])
    # below 8 users numpy's sum adds left to right, as integrate does: every bit agrees
    for pd in (PdSettings(max_steps=3000), PdSettings(max_steps=3000, **start),
               PdSettings(k=k_vec, max_steps=1, **start)):
        traj = integrate(sc, pd)
        for got, want in zip((traj.t, traj.p, traj.lam), numpy_euler(sc, pd, ref)):
            assert np.array_equal(got, want)
    # from 8 users on numpy sums pairwise, so the price may differ in its last bits
    n = 12
    big = Scenario(w=np.linspace(0.0, 1.0, n), p_circuit=0.1, p_max=1.0,
                   delta=gains_from_db(np.linspace(-5.0, 15.0, n)), p_sum_max=2.0)
    ref = solve_centralized(big)
    assert ref.p_u.sum() > big.p_sum_max
    pd = PdSettings(k=np.linspace(5e-4, 2e-3, n), max_steps=3000)
    traj = integrate(big, pd)
    t, p, lam = numpy_euler(big, pd, ref)
    assert np.array_equal(traj.t, t)
    np.testing.assert_allclose(traj.p, p, rtol=1e-12, atol=0)
    np.testing.assert_allclose(traj.lam, lam, rtol=1e-12, atol=0)


def test_integrate_matches_the_numpy_euler_loop_to_convergence():
    # two fig4 runs to convergence: the default start, and 0.99 p_u at
    # lam = 0, where user 3 parks at its cap, is released while the price
    # overshoots U_3'(p_u), and parks again. integrate skips a parked
    # user's update; the oracle never skips, and every bit must agree, the
    # step on which the oracle's stop rule and certificate end the run too
    sc = fig4_scenario()
    ref = solve_centralized(sc)
    for pd in (PdSettings(), PdSettings(init_p=0.99 * ref.p_u)):
        traj = integrate(sc, pd)
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
            traj = integrate(at_max, pd)
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
                    traj = integrate(sc, pd)
                except FloatingPointError:
                    continue
                assert np.all((traj.p >= P_FLOOR) & (traj.p <= ref.p_u))


def test_init_p_validation():
    sc = fig4_scenario()
    with pytest.raises(ValueError, match="init_p"):
        integrate(sc, PdSettings(init_p=np.full(4, 10.0)))
    with pytest.raises(ValueError, match="init_p"):
        integrate(sc, PdSettings(init_p=np.array([np.nan, 0.1, 0.1, 0.1])))
    with pytest.raises(ValueError, match=re.escape("init_p has shape (3,), expected a scalar or (4,)")):
        integrate(sc, PdSettings(init_p=np.full(3, 0.01)))
    # a scalar init_p broadcasts over the users
    runs = [integrate(sc, PdSettings(init_p=p, max_steps=50)) for p in (0.01, np.full(4, 0.01))]
    assert np.array_equal(runs[0].p, runs[1].p)
    for k in (np.full((4, 1), 1e-3), np.full(3, 1e-3)):
        with pytest.raises(ValueError, match=re.escape(f"k has shape {k.shape}, expected a scalar or (4,)")):
            integrate(sc, PdSettings(k=k))


def test_init_p_above_its_cap_names_the_first_such_user():
    sc = fig4_scenario()
    p_u = caps_for(sc)
    init_p = np.array([0.5 * p_u[0], 5.0, 7.0, 0.01])
    want = f"init_p must lie in (0, p_u], got 5.0 > p_u {p_u[1]} at user 2"
    with pytest.raises(ValueError, match=re.escape(want)):
        integrate(sc, PdSettings(init_p=init_p))


def test_integrate_runs_to_a_certified_state_without_a_centralized_solve(monkeypatch):
    # each user's cap is its own closed form: no solve of the whole problem
    def no_solve(*args, **kwargs):
        raise AssertionError("the distributed run solved the centralized problem")

    monkeypatch.setattr("mupower.solver.solve_batch", no_solve)
    traj = integrate(fig4_scenario())
    assert traj.converged and traj.kkt.max_residual <= TOL_KKT


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


def test_pd_settings_compare_by_identity():
    # the loader passes k as a per-user array, which an element-wise __eq__ could not compare
    a, b = (load_scenario(FIG4).pd for _ in range(2))
    assert isinstance(a.k, np.ndarray)
    assert a == a and a != b
    assert {a} == {a} and len({a, b}) == 2


def test_trajectory_csv_format(tmp_path):
    sc = fig4_scenario()
    traj, ref = integrate(sc, PdSettings(max_steps=500)), solve_centralized(sc)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, sc, lyapunov(traj.p, traj.lam, ref.p, ref.lam, PdSettings()), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,P_1,P_2,P_3,P_4,lambda,total_utility,V"
    assert len(lines) == traj.t.size + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first) == 8
