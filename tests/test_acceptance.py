"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its runtime (run with `pytest -v -s tests/test_acceptance.py`).

Criteria 1-5 register every centralized solve they perform; criterion 6
re-certifies all of them against the KKT system.
"""
import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from mupower import (
    PdSettings,
    Scenario,
    compute_pu,
    gains_from_db,
    integrate,
    jain_index,
    kkt_residuals,
    solve_centralized,
    utility,
)
from mupower.cli import cmd_sweep_diversity
from mupower.primal_dual import lyapunov
from mupower.scenario import load_scenario
from mupower.utility import _beta_prime, utility_grad

from oracles import beta, grid_search_2user, pu_by_bisection, random_2user_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (scenario, allocation) pairs accumulated by criteria 1-5 for criterion 6
SOLVE_REGISTRY: list = []


def _solve_registered(sc: Scenario):
    alloc = solve_centralized(sc)
    SOLVE_REGISTRY.append((sc, alloc))
    return alloc


def _report(num, name, t0, budget):
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {num} ({name}): PASS ({dt:.2f}s < {budget}s)")


def _fairness_scenario(d1_db, d2_db) -> Scenario:
    return Scenario(
        w=(0.5, 0.5),
        p_circuit=0.1,
        p_max=1.0,
        delta=gains_from_db([d1_db, d2_db]),
        p_sum_max=1.5,
    )


def test_criterion_1_jain_asymmetric_point():
    t0 = time.perf_counter()
    sc = _fairness_scenario(-20.0, 20.0)
    jain = jain_index(utility(_solve_registered(sc).p, sc.w, sc.p_circuit, sc.delta))
    assert jain == pytest.approx(0.5017, abs=1e-3)
    _report(1, "Jain = 0.5017 at -20/+20 dB", t0, 1.0)


def test_criterion_2_jain_symmetry_line():
    t0 = time.perf_counter()
    for level in (-20.0, 0.0, 20.0):
        sc = _fairness_scenario(level, level)
        u = utility(_solve_registered(sc).p, sc.w, sc.p_circuit, sc.delta)
        assert jain_index(u) == pytest.approx(1.0, abs=1e-9)
    _report(2, "Jain = 1 on matched channels", t0, 1.0)


def test_criterion_3_preference_sweep_trends():
    t0 = time.perf_counter()
    loaded = load_scenario(SCENARIOS / "fig2.yaml")
    buf = io.StringIO()
    with redirect_stdout(buf):
        cmd_sweep_diversity(loaded, out=None, grid=41)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "w1,w2,P1,P2,SE1,SE2,EE1,EE2"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert table.shape == (41 * 41, 8)
    w1 = np.unique(table[:, 0])
    for w2 in np.unique(table[:, 1]):
        rows = table[table[:, 1] == w2]
        rows = rows[np.argsort(rows[:, 0])]
        assert rows.shape[0] == w1.size
        se1, ee1 = rows[:, 4], rows[:, 6]
        assert np.all(np.diff(se1) >= -1e-9), f"SE1 not monotone at w2={w2}"
        assert np.all(np.diff(ee1) <= 1e-9), f"EE1 not monotone at w2={w2}"
    _report(3, "SE1 up / EE1 down in w1 on 41x41 sweep", t0, 30.0)


def test_criterion_4_centralized_distributed_agreement():
    t0 = time.perf_counter()
    loaded = load_scenario(SCENARIOS / "fig4.yaml")
    sc = loaded.scenario
    assert np.allclose(sc.w, [0.0, 0.3, 0.7, 1.0]) and sc.p_sum_max == 3.0
    alloc = _solve_registered(sc)
    traj = integrate(sc, loaded.pd)
    assert traj.converged
    assert np.max(np.abs(traj.p[-1] - alloc.p)) <= 1e-3
    v = lyapunov(traj.p, traj.lam, alloc.p, alloc.lam, loaded.pd)
    assert np.all(v[1:] <= v[:-1] + 1e-6 * np.maximum(1.0, v[:-1]))
    _report(4, "primal-dual meets centralized optimum", t0, 60.0)


def test_criterion_5_grid_search_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(20):
        sc = random_2user_scenario(rng)
        alloc = _solve_registered(sc)
        p_ref, u_ref = grid_search_2user(sc)
        assert np.all(np.abs(alloc.p - p_ref) <= 5e-4), (alloc.p, p_ref)
        assert abs(np.sum(utility(alloc.p, sc.w, sc.p_circuit, sc.delta)) - u_ref) <= 1e-6
    _report(5, "20 solves match exhaustive grid search", t0, 120.0)


def test_criterion_6_kkt_certification():
    t0 = time.perf_counter()
    if not SOLVE_REGISTRY:  # standalone run: regenerate the fixed solves
        _solve_registered(_fairness_scenario(-20.0, 20.0))
        _solve_registered(load_scenario(SCENARIOS / "fig4.yaml").scenario)
        rng = np.random.default_rng(2024)
        for _ in range(20):
            _solve_registered(random_2user_scenario(rng))
    worst = 0.0
    for sc, alloc in SOLVE_REGISTRY:
        report = kkt_residuals(sc, alloc)  # recomputed, not the cached one
        worst = max(worst, report.max_residual)
    assert worst <= 1e-8, f"max KKT residual {worst:.3e}"
    print(f"  (checked {len(SOLVE_REGISTRY)} solves, worst residual {worst:.3e})")
    _report(6, "KKT residuals <= 1e-8 on criteria 1-5", t0, 30.0)


def test_criterion_7_individual_cap_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    root_branch_seen = 0
    for _ in range(100):
        pc = float(rng.uniform(0.02, 0.3))
        d = float(10.0 ** rng.uniform(-2.0, 2.0))
        p_max = float(rng.uniform(0.3, 2.0))
        w = float(rng.uniform(0.0, 1.0))
        (pu,) = compute_pu(Scenario(w, pc, p_max, (d,), p_sum_max=p_max))
        assert 0.0 < pu <= p_max
        below = np.linspace(pu * 1e-6, pu * (1.0 - 1e-6), 100)
        assert np.all(utility_grad(below, w, pc, d) > 0.0)
        if w <= 1.0 - float(beta(p_max, pc, d)):
            root_branch_seen += 1
            assert abs(float(beta(pu, pc, d)) - (1.0 - w)) <= 1e-12
            assert pu == pytest.approx(pu_by_bisection(w, pc, d, p_max), abs=1e-10)
            above = np.linspace(min(pu * (1.0 + 1e-8), p_max), p_max, 100)
            assert np.all(utility_grad(above, w, pc, d) <= 0.0)
        else:
            assert pu == p_max
    assert root_branch_seen >= 10  # the draw actually exercises both branches
    _report(7, f"cap structure on 100 draws ({root_branch_seen} root-branch)", t0, 10.0)


def test_criterion_8_derivatives_vs_finite_differences():
    t0 = time.perf_counter()
    from mupower import utility, utility_hess

    rng = np.random.default_rng(88)
    grid = np.logspace(-4, 0, 40)
    h = 1e-6 * grid
    for _ in range(50):
        w = float(rng.uniform(0.0, 1.0))
        pc = float(rng.uniform(0.02, 0.5))
        d = float(10.0 ** rng.uniform(-2.0, 2.0))
        checks = (
            (utility_grad(grid, w, pc, d),
             (utility(grid + h, w, pc, d) - utility(grid - h, w, pc, d)) / (2 * h)),
            (utility_hess(grid, w, pc, d),
             (utility_grad(grid + h, w, pc, d) - utility_grad(grid - h, w, pc, d)) / (2 * h)),
            (_beta_prime(grid, pc, d),
             (beta(grid + h, pc, d) - beta(grid - h, pc, d)) / (2 * h)),
        )
        for analytic, fd in checks:
            floor = 1e-3 * np.max(np.abs(analytic))
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
            assert np.max(np.abs(analytic - fd) / denom) <= 1e-6
    _report(8, "U', U'', beta' match central differences", t0, 10.0)


def test_criterion_9_basin_of_attraction():
    t0 = time.perf_counter()
    loaded = load_scenario(SCENARIOS / "fig4.yaml")
    sc = loaded.scenario
    alloc = solve_centralized(sc)
    p_u = compute_pu(sc)
    rng = np.random.default_rng(99)
    for trial in range(10):
        pd = PdSettings(
            k=loaded.pd.k,
            g=loaded.pd.g,
            init_p=rng.uniform(0.02, 1.0, sc.n_users) * p_u,
            init_lambda=float(rng.uniform(0.0, 1.0)),
        )
        traj = integrate(sc, pd)
        assert traj.converged, f"trial {trial} did not converge"
        assert np.max(np.abs(traj.p[-1] - alloc.p)) <= 1e-3
    _report(9, "10 random starts reach the same optimum", t0, 300.0)
