import ast
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mupower import (
    ConvergenceError,
    Scenario,
    compute_pu,
    gains_from_db,
    kkt_residuals,
    solve_centralized,
    utility,
)
from mupower.solver import P_FLOOR, TOL_KKT, Allocation, _row, solve_batch
from mupower.utility import utility_grad

from oracles import beta
from oracles import grid_search_2user, pu_by_bisection, random_2user_scenario, tight_optimum_by_bisection


def cap(w, p_circuit, p_max, delta):
    """The cap of one user, from a one-user scenario."""
    (pu,) = compute_pu(Scenario(w, p_circuit, p_max, (delta,), p_sum_max=p_max))
    return pu


# ---------------------------------------------------------------- compute_pu

def test_pu_weight_one_is_cap():
    for p_max in (0.2, 1.0, 5.0):
        assert cap(1.0, 0.1, p_max, 100.0) == p_max


def test_pu_threshold_branch():
    # beta(1) ~ 0.236, so any w above ~0.764 keeps the cap
    assert cap(0.9, 0.1, 1.0, 100.0) == 1.0


def test_pu_root_branch_matches_bisection():
    pu = cap(0.0, 0.1, 1.0, 100.0)
    assert abs(float(beta(pu, 0.1, 100.0)) - 1.0) <= 1e-14
    assert pu == pytest.approx(pu_by_bisection(0.0, 0.1, 100.0, 1.0), abs=1e-10)
    assert 0.0 < pu <= 1.0


def test_pu_random_draws_against_bisection():
    rng = np.random.default_rng(41)
    done = 0
    while done < 100:
        pc = float(rng.uniform(0.02, 0.3))
        d = float(10.0 ** rng.uniform(-2.0, 2.0))
        p_max = float(rng.uniform(0.3, 2.0))
        headroom = 1.0 - float(beta(p_max, pc, d))
        if headroom <= 0.0:
            continue  # threshold branch for every w; nothing to root-find
        w = float(rng.uniform(0.0, headroom))
        pu = cap(w, pc, p_max, d)
        assert 0.0 < pu <= p_max
        assert abs(float(beta(pu, pc, d)) - (1.0 - w)) <= 1e-14
        assert pu == pytest.approx(pu_by_bisection(w, pc, d, p_max), abs=1e-10)
        done += 1


# (w, p_circuit, delta, p_max) where the closed-form cap is hardest to evaluate
CAP_CORNERS = [
    # w = 0 with delta * p_circuit -> 0: W0's argument at the branch point -1/e
    *[(0.0, dpc, 1.0, 1.0) for dpc in (1e-6, 1e-10, 1e-14)],
    # tiny weights, with an ordinary gain and next to the branch point
    *[(w, 0.1, 100.0, 1.0) for w in (1e-12, 1e-6)],
    *[(w, 1e-14, 1.0, 1.0) for w in (1e-12, 1e-6)],
    # 1 / (1 - w) = 1e9: e^(1/c) overflows, the cap is p_max
    (1.0 - 1e-9, 0.1, 1e8, 1.0),
    (1.0, 0.1, 100.0, 1.0),
    # the root exactly at p_max (beta(p_max) in [0.5, 1], so 1 - (1 - beta) == beta)
    (1.0 - float(beta(0.1, 0.1, 100.0)), 0.1, 100.0, 0.1),
    # 1 - w is 1e-15 below beta(P_FLOOR): the root lies 5e-14 (relative) above the floor
    (1.0 - float(beta(P_FLOOR, 1e-12, 1e12)) + 1e-15, 1e-12, 1e12, 1.0),
]


@pytest.mark.parametrize("w, p_circuit, delta, p_max", CAP_CORNERS)
def test_pu_closed_form_corners(w, p_circuit, delta, p_max):
    pu = cap(w, p_circuit, p_max, delta)
    excess = float(beta(pu, p_circuit, delta)) - (1.0 - w)
    # a cap at p_max holds a root at or beyond it, where beta only exceeds 1 - w
    assert abs(excess) <= 1e-14 or (pu == p_max and excess > 0.0)
    assert pu == pytest.approx(pu_by_bisection(w, p_circuit, delta, p_max), abs=1e-10)


def test_pu_root_below_the_floor_is_the_floor():
    # beta(P_FLOOR) ~ 0.145 < 1 - w: the root, (e - 1) / delta ~ 1.7e-12 W, lies below the floor
    assert cap(0.0, 1e-12, 1.0, 1e12) == P_FLOOR


def test_batch_caps_equal_compute_pu_row_by_row():
    sc = Scenario(w=(0.5, 0.5), p_circuit=0.1, p_max=1.0, delta=gains_from_db([20.0, 20.0]), p_sum_max=1.5)
    axis = np.linspace(0.0, 1.0, 41)
    w = np.column_stack([np.repeat(axis, 41), np.tile(axis, 41)])
    caps = solve_batch(sc, w=w).p_u
    for row, row_caps in zip(w, caps):
        np.testing.assert_array_equal(row_caps, compute_pu(replace(sc, w=row)))


# ------------------------------------------------------------ solve_centralized

def test_slack_case_returns_caps():
    sc = Scenario(
        w=(1.0, 1.0), p_circuit=0.1, p_max=1.0, delta=(100.0, 100.0), p_sum_max=3.0
    )
    alloc = solve_centralized(sc)
    assert alloc.case == "sum_slack"
    assert np.allclose(alloc.p, [1.0, 1.0])
    assert alloc.lam == 0.0


def test_symmetric_tight_case_splits_evenly():
    sc = Scenario(
        w=(0.5, 0.5), p_circuit=0.1, p_max=1.0, delta=gains_from_db([20.0, 20.0]), p_sum_max=1.5
    )
    alloc = solve_centralized(sc)
    pu = compute_pu(sc)[0]
    expected = min(pu, 0.75)
    assert np.allclose(alloc.p, [expected, expected], atol=1e-9)
    # the caps already fit the 1.5 W budget here
    assert alloc.case == "sum_slack"


def test_forced_tight_case_splits_evenly():
    sc = Scenario(
        w=(1.0, 1.0), p_circuit=0.1, p_max=1.0, delta=gains_from_db([20.0, 20.0]), p_sum_max=1.5
    )
    alloc = solve_centralized(sc)
    assert alloc.case == "sum_tight"
    assert np.allclose(alloc.p, [0.75, 0.75], atol=1e-10)
    assert abs(alloc.p.sum() - 1.5) <= TOL_KKT
    assert alloc.lam > 0


def test_heterogeneous_matches_grid_oracle():
    sc = Scenario(
        w=(0.3, 0.8), p_circuit=0.1, p_max=1.0, delta=(10.0, 100.0), p_sum_max=0.8
    )
    alloc = solve_centralized(sc)
    p_ref, u_ref = grid_search_2user(sc)
    assert np.all(np.abs(alloc.p - p_ref) <= 5e-4)
    assert abs(np.sum(utility(alloc.p, sc.w, sc.p_circuit, sc.delta)) - u_ref) <= 1e-6


def test_cap_dominance_and_case_dichotomy():
    rng = np.random.default_rng(47)
    for _ in range(30):
        sc = random_2user_scenario(rng)
        alloc = solve_centralized(sc)
        assert np.all(alloc.p <= alloc.p_u + 1e-15)
        assert np.all(alloc.p >= P_FLOOR - 1e-18)
        if alloc.p_u.sum() <= sc.p_sum_max:
            assert alloc.case == "sum_slack"
            assert np.allclose(alloc.p, alloc.p_u)
        else:
            assert alloc.case == "sum_tight"
            assert abs(alloc.p.sum() - sc.p_sum_max) <= TOL_KKT
        assert alloc.diagnostics.kkt.max_residual <= TOL_KKT


def test_tight_case_matches_price_bisection_oracle():
    rng = np.random.default_rng(59)
    for n in (3, 4, 7, 12, 25, 64, 512):
        w = rng.uniform(0.0, 1.0, n)
        pc = rng.uniform(0.05, 0.2, n)
        p_max = rng.uniform(0.3, 2.0, n)
        gains = gains_from_db(rng.uniform(-20.0, 30.0, n))
        caps = np.array([pu_by_bisection(*args) for args in zip(w, pc, gains, p_max)])
        sc = Scenario(w, pc, p_max, gains, p_sum_max=float(rng.uniform(0.2, 0.9) * caps.sum()))
        alloc = solve_centralized(sc)
        p_ref, lam_ref = tight_optimum_by_bisection(sc)
        assert alloc.case == "sum_tight"
        assert np.max(np.abs(alloc.p - p_ref)) <= 1e-9
        assert alloc.lam == pytest.approx(lam_ref, rel=1e-9)
        assert alloc.diagnostics.refine_evaluations > 0


def test_price_effort_counters():
    slack = solve_centralized(Scenario(
        w=(0.2, 0.9), p_circuit=0.1, p_max=1.0, delta=(5.0, 500.0), p_sum_max=10.0
    ))
    assert slack.diagnostics.refine_evaluations == 0
    tight = solve_centralized(Scenario(
        w=(1.0, 1.0), p_circuit=0.1, p_max=1.0, delta=(100.0, 100.0), p_sum_max=1.5
    ))
    # projected Newton on the joint system: a handful of iterations
    assert 0 < tight.diagnostics.refine_evaluations <= 20


def test_single_user_scalar_path():
    sc = Scenario(w=0.4, p_circuit=0.1, p_max=1.0, delta=(50.0,), p_sum_max=0.15)
    alloc = solve_centralized(sc)
    assert alloc.p.shape == (1,)
    assert alloc.diagnostics.kkt.max_residual <= TOL_KKT
    # budget binds: the unconstrained cap (~0.183 W) exceeds 0.15 W
    assert alloc.case == "sum_tight"
    assert alloc.p[0] == pytest.approx(0.15, abs=1e-9)


def test_budget_at_the_floor_puts_every_user_at_the_floor():
    scenarios = [
        Scenario(w=0.5, p_circuit=0.1, p_max=1.0, delta=gains_from_db([20.0] * n), p_sum_max=n * P_FLOOR)
        for n in (1, 2)
    ]
    # marginals at the floor differ, so the lower bound of user 2 is active (mu > 0)
    scenarios.append(Scenario(
        w=(0.0, 1.0), p_circuit=(0.01, 1.0), p_max=1.0, delta=gains_from_db([-20.0, 40.0]),
        p_sum_max=2 * P_FLOOR,
    ))
    for sc in scenarios:
        alloc = solve_centralized(sc)
        assert alloc.case == "sum_tight"
        assert np.all(alloc.p == P_FLOOR)
        grad = utility_grad(alloc.p, sc.w, sc.p_circuit, sc.delta)
        assert alloc.lam == pytest.approx(np.max(grad), rel=1e-12)
        assert alloc.diagnostics.kkt.max_residual <= TOL_KKT


def _log_uniform(lo_exp, hi_exp):
    return hs.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@hs.composite
def valid_scenarios(draw):
    n = draw(hs.integers(1, 8))

    def vector(elements):
        return draw(hs.lists(elements, min_size=n, max_size=n))

    floor_sum = n * P_FLOOR
    return Scenario(
        w=vector(hs.sampled_from((0.0, 1.0)) | hs.floats(0.0, 1.0)),
        p_circuit=vector(_log_uniform(-6.0, 3.0)),
        p_max=vector(_log_uniform(-6.0, 2.0)),
        delta=gains_from_db(vector(hs.floats(-60.0, 80.0))),
        p_sum_max=max(floor_sum, draw(_log_uniform(math.log10(floor_sum), 2.0))),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(valid_scenarios())
def test_valid_domain_solves_or_raises_typed_error(sc):
    try:
        alloc = solve_centralized(sc)
    except ConvergenceError:
        # only tiny budgets, where U' ~ lambda >= 2.5e7 is resolved to a few
        # ulps against the absolute 1e-8 gate, may miss it
        if sc.p_sum_max > 1e-6:
            raise
        return
    assert np.all((alloc.p >= P_FLOOR) & (alloc.p <= alloc.p_u))
    assert alloc.p.sum() <= sc.p_sum_max + TOL_KKT
    assert alloc.diagnostics.kkt.max_residual <= TOL_KKT


def test_batch_rows_equal_their_single_solves():
    rng = np.random.default_rng(67)
    for trial in range(12):
        n, b = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        floor_sum = n * P_FLOOR
        sc = Scenario(
            w=rng.uniform(0.0, 1.0, n),
            p_circuit=10.0 ** rng.uniform(-6.0, 3.0, n),
            p_max=10.0 ** rng.uniform(-6.0, 2.0, n),
            delta=gains_from_db(rng.uniform(-60.0, 80.0, n)),
            p_sum_max=max(floor_sum, 10.0 ** rng.uniform(math.log10(floor_sum), 2.0)),
        )
        if trial % 2:
            name, rows = "delta", 10.0 ** (rng.uniform(-60.0, 80.0, (b, n)) / 10.0)
        else:
            rows = rng.uniform(0.0, 1.0, (b, n))
            name, rows = "w", np.where(rng.random((b, n)) < 0.2, rng.integers(0, 2, (b, n)), rows)
        singles, kept = [], []
        for row in rows:
            try:
                singles.append(solve_centralized(replace(sc, **{name: row})))
            except ConvergenceError:
                continue
            kept.append(row)
        if not kept:
            continue
        batch = solve_batch(sc, **{name: np.array(kept)})
        for i, one in enumerate(singles):
            np.testing.assert_array_equal(batch.p[i], one.p)
            np.testing.assert_array_equal(batch.p_u[i], one.p_u)
            assert batch.lam[i] == one.lam and batch.case[i] == one.case


def test_batch_max_residual_is_each_rows_including_nan():
    sc = Scenario(w=0.5, p_circuit=0.1, p_max=1.0, delta=gains_from_db([20.0, 10.0, 0.0]), p_sum_max=1.0)
    kkt = solve_batch(sc, w=[[0.0, 0.5, 1.0], [0.3, 0.3, 0.3], [1.0, 0.0, 0.2]]).diagnostics.kkt
    comp_upper = kkt.comp_upper.copy()
    comp_upper[1, 2] = np.nan
    with_nan = replace(kkt, comp_upper=comp_upper)
    for report in (kkt, with_nan):
        worst = report.max_residual
        assert isinstance(worst, np.ndarray) and worst.shape == (3,) and worst.dtype == float
        for i in range(3):
            row = _row(report, i)
            one = row.max_residual
            assert isinstance(one, np.float64)
            terms = [row.stationarity, row.comp_lower, row.comp_upper, row.box_gap, [row.comp_sum, row.sum_gap]]
            np.testing.assert_array_equal(one, np.max(np.concatenate(terms)))
            np.testing.assert_array_equal(worst[i], one)
    assert np.isnan(with_nan.max_residual).tolist() == [False, True, False]


def test_batch_names_the_first_row_that_fails_the_gate():
    # at P = 1e-8 W some weights miss the absolute 1e-8 gate on stationarity
    # only by the rounding of U' ~ lambda ~ 2e8 (the scaled residual is ~1e-16)
    sc = Scenario(w=0.5, p_circuit=1e-6, p_max=1e-3, delta=(1.0, 1.0), p_sum_max=1e-8)
    good = [[1.0, 1.0], [0.5, 0.5], [1.0, 0.5], [0.0, 0.5]]
    assert np.all(solve_batch(sc, w=good).diagnostics.kkt.max_residual <= TOL_KKT)
    with pytest.raises(ConvergenceError, match=r"row 0: .*scaled [0-9.]+e-16"):
        solve_batch(sc, w=[[0.0, 0.7]])
    with pytest.raises(ConvergenceError, match="row 2: KKT residual"):
        solve_batch(sc, w=good[:2] + [[0.0, 0.7]] + good[2:] + [[0.2, 0.7]])


def test_batch_overrides_checked_by_scenario_rules():
    sc = Scenario(w=(0.0, 1.0), p_circuit=0.1, p_max=1.0, delta=(1.0, 1.0), p_sum_max=1.0)
    for kwargs, message in (
        (dict(w=[[0.5, 0.5], [1.5, 0.5]]), r"w must lie in \[0, 1\], got 1.5"),
        (dict(w=[[0.5, 0.5, 0.5]]), "gains"),
        (dict(w=[0.5, 0.5]), r"w has shape \(2,\), expected a scalar or \(2, 2\) \(2 effective gains\)"),
        (dict(delta=[[1.0, 0.0]]), "delta must be > 0"),
        (dict(delta=[[1.0, 1.0], [1.0, 1e-120]]), r"delta must be > 0 and in \[1e-30, 1e30\], got 1e-120"),
        (dict(delta=[[1e200, 1.0]]), r"delta must be > 0 and in \[1e-30, 1e30\], got 1e\+200"),
        (
            dict(w=[[0.5, 0.5]], delta=[[1.0, 1.0], [1.0, 1.0]]),
            r"delta has shape \(2, 2\), expected a scalar or \(1, 2\)",
        ),
    ):
        with pytest.raises(ValueError, match=message):
            solve_batch(sc, **kwargs)


def test_degenerate_budget_never_binds():
    sc = Scenario(
        w=(0.2, 0.9), p_circuit=0.1, p_max=1.0, delta=(5.0, 500.0), p_sum_max=10.0
    )
    alloc = solve_centralized(sc)
    assert alloc.case == "sum_slack"


# ---------------------------------------------------------------- kkt_residuals

def test_kkt_zero_at_interior_roots():
    sc = Scenario(
        w=(0.2, 0.4), p_circuit=0.1, p_max=1.0, delta=gains_from_db([20.0, 20.0]), p_sum_max=3.0
    )
    alloc = solve_centralized(sc)
    assert alloc.case == "sum_slack"
    report = kkt_residuals(sc, alloc)
    bound = 1e-12 / sc.p_circuit.min()
    assert np.all(report.stationarity <= bound)
    assert np.all(report.mu == 0.0)
    assert np.all(report.nu <= bound)
    assert report.sum_gap == 0.0


def test_kkt_reports_infeasibility_gap():
    sc = Scenario(
        w=(0.5, 0.5), p_circuit=0.1, p_max=1.0, delta=(100.0, 100.0), p_sum_max=0.5
    )
    bad = Allocation(
        p=np.array([0.4, 0.4]), p_u=np.array([1.0, 1.0]), lam=0.0, case="sum_slack"
    )
    report = kkt_residuals(sc, bad)
    assert report.sum_gap == pytest.approx(0.3, abs=1e-12)


def test_kkt_certified_on_random_scenarios():
    rng = np.random.default_rng(53)
    for _ in range(20):
        sc = random_2user_scenario(rng)
        alloc = solve_centralized(sc)
        assert kkt_residuals(sc, alloc).max_residual <= 1e-8


def test_scenario_validation():
    sc = Scenario(w=(0.0, 1.0), p_circuit=0.1, p_max=1.0, delta=(1.0, 1.0), p_sum_max=1.0)
    for kwargs, message in (
        (dict(w=(1.2, 0.5)), r"w must lie in \[0, 1\]"),
        (dict(w=(np.nan, 0.5)), r"w must lie in \[0, 1\]"),
        (dict(p_circuit=(0.1, 0.0)), "p_circuit must be > 0"),
        (dict(p_max=-1.0), "p_max must be > 0"),
        (dict(p_max=1e31), r"p_max must be > 0 and in \[P_FLOOR = 1e-09 W, 1e30\], got 1e\+31"),
        (dict(w=(0.5, 0.5, 0.5)), "gains"),
        (dict(delta=[1.0]), "gains"),
        (dict(delta=(1.0, 0.0)), "delta must be > 0"),
        (dict(delta=(1.0, np.inf)), "delta must be > 0"),
        (dict(delta=(1e-120, 1.0)), r"delta must be > 0 and in \[1e-30, 1e30\]"),
        (dict(delta=(1.0, 1e200)), r"delta must be > 0 and in \[1e-30, 1e30\]"),
        (dict(p_circuit=(1e-120, 0.1)), r"p_circuit must be > 0 and in \[1e-30, 1e30\]"),
        (dict(p_circuit=(0.1, 1e200)), r"p_circuit must be > 0 and in \[1e-30, 1e30\]"),
        (dict(delta=()), "non-empty"),
        (dict(p_sum_max=0.0), "p_sum_max"),
        (dict(p_sum_max=1.5e-9), "p_sum_max"),  # below 2 users at the 1e-9 W floor
    ):
        with pytest.raises(ValueError, match=message):
            replace(sc, **kwargs)


def test_p_max_below_the_floor_rejected():
    # a cap below the floor would leave the box [P_FLOOR, p_max] empty
    for p_max, p_sum_max in ((1e-12, 1e-9), ((1e-12, 1.0), 2e-9)):
        with pytest.raises(ValueError, match=r"p_max must be > 0 and in \[P_FLOOR = 1e-09 W, 1e30\], got 1e-12"):
            Scenario(w=0.5, p_circuit=0.1, p_max=p_max, delta=(1.0,) * np.size(p_max), p_sum_max=p_sum_max)
    assert compute_pu(Scenario(w=0.5, p_circuit=0.1, p_max=P_FLOOR, delta=(1.0,), p_sum_max=1e-9)) == P_FLOOR


def test_range_corners_solve_or_raise_convergence_error():
    # gains and circuit powers at the ends of their range give finite caps and
    # no floating-point warning (tier-1 turns a RuntimeWarning into an error)
    # power limits at 10 W and at the top of their range, under a tight budget
    # and one above the limits' sum
    corners = (1e-30, 1.0, 1e30)
    for delta, p_circuit in itertools.product(itertools.product(corners, repeat=2), repeat=2):
        for w, p_max, p_sum_max in itertools.product((0.0, 0.5, 1.0), (10.0, 1e30), (1.0, 1e308)):
            sc = Scenario(w=w, p_circuit=p_circuit, p_max=p_max, delta=delta, p_sum_max=p_sum_max)
            assert np.all(np.isfinite(compute_pu(sc)))
            try:
                solve_centralized(sc)
            except ConvergenceError:
                pass


def test_scenario_compares_by_identity():
    sc = Scenario(w=(0.2, 0.7), p_circuit=0.1, p_max=1.0, delta=(1.0, 2.0), p_sum_max=1.0)
    twin = replace(sc)
    assert sc == sc and sc != twin
    assert {sc: 1, twin: 2}[sc] == 1


def test_scenario_vectors_cached_read_only():
    w = np.array([0.2, 0.7])
    sc = Scenario(w=w, p_circuit=0.1, p_max=(1.0, 2.0), delta=(1.0, 2.0), p_sum_max=1.0)
    w[0] = 0.9  # the scenario holds its own copy
    for name, expected in (("w", [0.2, 0.7]), ("p_circuit", [0.1, 0.1]), ("p_max", [1.0, 2.0]), ("delta", [1.0, 2.0])):
        arr = getattr(sc, name)
        assert arr is getattr(sc, name)
        assert np.array_equal(arr, expected)
        with pytest.raises(ValueError):
            arr[0] = 0.5


def _names_callers_import():
    """Every name the CLI, the tests and the bench import from mupower or a submodule."""
    root = Path(__file__).resolve().parent.parent
    names = set()
    for path in (root / "src" / "mupower" / "cli.py", *root.glob("tests/*.py"), *root.glob("bench/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "mupower"):
                names.update(alias.name for alias in node.names)
    return names


def test_public_names_resolve():
    import mupower

    assert len(set(mupower.__all__)) == len(mupower.__all__)
    assert [name for name in mupower.__all__ if not hasattr(mupower, name)] == []
    # the public surface holds only what some caller imports
    assert sorted(set(mupower.__all__) - _names_callers_import()) == []
