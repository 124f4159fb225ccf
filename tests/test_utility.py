import math

import numpy as np
import pytest

from mupower import Scenario, ee, se, utility, utility_grad, utility_hess
from mupower.utility import _beta, _beta_prime

import oracles

# High-precision evaluations of the defining formulas (mpmath, 30 digits).
LN101 = 4.615120516841259
SE_AT_001 = 0.6931471805599453            # ln 2
EE_AT_1 = 4.195564106219327               # ln(101)/1.1
EE_AT_01 = 11.989476363991853             # ln(11)/0.2
U_HALF = 1.4816828918701371               # ln(ln 101) - 0.5 ln 1.1
U_ONE = 1.5293379817722995                # ln(ln 101)
COMPOSITE_HALF = 4.400344757667923        # sqrt(SE * EE)
BETA_AT_1 = 0.23598710086048005
BETA_AT_001 = 7.934822724889299
GRAD_AT_1 = -0.24001172649047268


def test_se_examples():
    assert se(0.0, 100.0) == 0.0
    assert se(1.0, 100.0) == pytest.approx(LN101, rel=1e-14)
    assert se(0.01, 100.0) == pytest.approx(SE_AT_001, rel=1e-14)


def test_ee_examples():
    assert ee(0.0, 0.1, 100.0) == 0.0
    assert ee(1.0, 0.1, 100.0) == pytest.approx(EE_AT_1, rel=1e-14)
    assert ee(0.1, 0.1, 100.0) == pytest.approx(EE_AT_01, rel=1e-14)


def test_utility_examples():
    # ln(1 + delta p) = 1 kills the outer log regardless of w
    p = (math.e - 1.0) / 100.0
    for w in (0.0, 0.3, 1.0):
        assert utility(p, w, 0.1, 100.0) == pytest.approx(-(1 - w) * math.log(p + 0.1), rel=1e-12)
    assert utility(1.0, 0.5, 0.1, 100.0) == pytest.approx(U_HALF, rel=1e-14)
    assert utility(1.0, 1.0, 0.1, 100.0) == pytest.approx(U_ONE, rel=1e-14)


def test_composite_examples():
    assert math.exp(utility(1.0, 1.0, 0.1, 100.0)) == pytest.approx(LN101, rel=1e-12)
    assert math.exp(utility(1.0, 0.0, 0.1, 100.0)) == pytest.approx(EE_AT_1, rel=1e-12)
    assert math.exp(utility(1.0, 0.5, 0.1, 100.0)) == pytest.approx(COMPOSITE_HALF, rel=1e-12)


def test_beta_examples():
    assert _beta(1.0, 0.1, 100.0) == pytest.approx(BETA_AT_1, rel=1e-14)
    assert _beta(0.01, 0.1, 100.0) == pytest.approx(BETA_AT_001, rel=1e-14)
    assert _beta(0.01, 0.1, 100.0) > _beta(1.0, 0.1, 100.0)


def test_grad_examples():
    assert utility_grad(1.0, 0.5, 0.1, 100.0) == pytest.approx(GRAD_AT_1, rel=1e-12)


def test_log_composite_identity():
    # utility == w ln(se) + (1 - w) ln(ee) wherever se > 0
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = float(rng.uniform(1e-4, 1.0))
        w = float(rng.uniform(0.0, 1.0))
        pc = float(rng.uniform(0.02, 0.5))
        d = float(10.0 ** rng.uniform(-2.0, 2.0))
        lhs = utility(p, w, pc, d)
        rhs = w * np.log(se(p, d)) + (1 - w) * np.log(ee(p, pc, d))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_beta_strictly_decreasing():
    rng = np.random.default_rng(17)
    for _ in range(100):
        pc = float(rng.uniform(0.02, 0.5))
        d = float(10.0 ** rng.uniform(-2.0, 2.0))
        p_max = float(rng.uniform(0.2, 2.0))
        p = np.sort(rng.uniform(1e-6, p_max, 50))
        values = _beta(p, pc, d)
        assert np.all(np.diff(values) < 0)
        assert np.all(_beta_prime(p, pc, d) < 0)


def _fd_tolerance_check(analytic, fd, floor):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    return np.max(np.abs(analytic - fd) / denom)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(23)
    grid = np.logspace(-4, 0, 40)
    for _ in range(50):
        w = float(rng.uniform(0.0, 1.0))
        pc = float(rng.uniform(0.02, 0.5))
        d = float(10.0 ** rng.uniform(-2.0, 2.0))
        h = 1e-6 * grid  # relative step keeps truncation ~1e-13 at small p
        fd_grad = (utility(grid + h, w, pc, d) - utility(grid - h, w, pc, d)) / (2 * h)
        fd_hess = (utility_grad(grid + h, w, pc, d) - utility_grad(grid - h, w, pc, d)) / (2 * h)
        fd_betap = (_beta(grid + h, pc, d) - _beta(grid - h, pc, d)) / (2 * h)
        a_grad = utility_grad(grid, w, pc, d)
        a_hess = utility_hess(grid, w, pc, d)
        a_betap = _beta_prime(grid, pc, d)
        # points with a near-zero derivative carry no relative information
        assert _fd_tolerance_check(a_grad, fd_grad, 1e-3 * np.max(np.abs(a_grad))) < 1e-6
        assert _fd_tolerance_check(a_hess, fd_hess, 1e-3 * np.max(np.abs(a_hess))) < 1e-6
        assert _fd_tolerance_check(a_betap, fd_betap, 1e-3 * np.max(np.abs(a_betap))) < 1e-6


def test_stationary_point_sign_structure():
    # increasing strictly below the beta = 1 - w crossing, non-increasing above
    rng = np.random.default_rng(29)
    for _ in range(50):
        pc = float(rng.uniform(0.05, 0.3))
        d = float(10.0 ** rng.uniform(-1.0, 2.0))
        p_max = float(rng.uniform(0.5, 2.0))
        b_end = float(_beta(p_max, pc, d))
        w = float(rng.uniform(0.0, max(0.0, 1.0 - b_end)))
        if w > 1.0 - b_end:
            assert np.all(utility_grad(np.linspace(1e-6, p_max, 200), w, pc, d) > 0)
            continue
        from oracles import bisect_root

        p0 = bisect_root(lambda p: float(_beta(p, pc, d)) - (1 - w), 1e-9, p_max)
        below = np.linspace(1e-6, p0 * (1 - 1e-6), 100)
        above = np.linspace(min(p0 * (1 + 1e-6), p_max), p_max, 100)
        assert np.all(utility_grad(below, w, pc, d) > 0)
        assert np.all(utility_grad(above, w, pc, d) <= 1e-12)


def test_grad_vanishes_at_stationary_point():
    from oracles import bisect_root

    p0 = bisect_root(lambda p: float(_beta(p, 0.1, 100.0)) - 0.6, 1e-9, 1.0)
    assert abs(utility_grad(p0, 0.4, 0.1, 100.0)) < 1e-12


def test_argmax_invariant_under_constant_shift():
    grid = np.linspace(1e-4, 1.0, 20001)
    values = utility(grid, 0.35, 0.1, 50.0)
    for c in (-3.0, 0.1, 42.0):
        assert np.argmax(values) == np.argmax(values + c)


def _bad_inputs(bad):
    """bad as a scalar, inside a 1-D array and inside a (B, N) array."""
    row = np.array([0.1, bad, 0.2])
    rows = np.full((3, 2), 0.1)
    rows[1, 1] = bad
    return (bad, row, rows)


def test_domain_errors():
    for fn in (lambda p: se(p, 100.0), lambda p: ee(p, 0.1, 100.0)):
        for bad in (-1e-9, -0.5, np.nan):
            for p in _bad_inputs(bad):
                with pytest.raises(ValueError, match="must be >= 0"):
                    fn(p)
    for fn in (
        lambda p: utility(p, 0.5, 0.1, 100.0),
        lambda p: utility_grad(p, 0.5, 0.1, 100.0),
        lambda p: utility_hess(p, 0.5, 0.1, 100.0),
    ):
        for bad in (0.0, -0.5, np.nan):
            for p in _bad_inputs(bad):
                with pytest.raises(ValueError, match="needs p > 0"):
                    fn(p)


def test_empty_input_gives_empty_output():
    for fn in (
        lambda p: se(p, 100.0),
        lambda p: ee(p, 0.1, 100.0),
        lambda p: utility(p, 0.5, 0.1, 100.0),
        lambda p: _beta(p, 0.1, 100.0),
        lambda p: _beta_prime(p, 0.1, 100.0),
        lambda p: utility_grad(p, 0.5, 0.1, 100.0),
        lambda p: utility_hess(p, 0.5, 0.1, 100.0),
    ):
        assert fn(np.empty(0)).shape == (0,)


def test_grad_is_the_beta_formula_bit_for_bit():
    # the property-test domain of the solver: w in [0, 1], pc in [1e-6, 1e3] W,
    # delta in [-60, 80] dB, powers up to p_max in [1e-6, 1e2] W
    rng = np.random.default_rng(31)
    for _ in range(20):
        b, n = int(rng.integers(1, 17)), int(rng.integers(1, 9))
        w = rng.uniform(0.0, 1.0, n)
        pc = 10.0 ** rng.uniform(-6.0, 3.0, n)
        d = 10.0 ** (rng.uniform(-60.0, 80.0, (b, n)) / 10.0)
        p = 10.0 ** rng.uniform(-9.0, 0.0, (b, n)) * 10.0 ** rng.uniform(-6.0, 2.0, n)
        np.testing.assert_array_equal(utility_grad(p, w, pc, d), (oracles.beta(p, pc, d) - (1 - w)) / (p + pc))


def test_user_params_validation():
    def user(w, p_circuit, p_max):
        return Scenario(w=w, p_circuit=p_circuit, p_max=p_max, delta=(1.0,), p_sum_max=1.0)

    user(0.0, 0.1, 1.0)
    user(1.0, 0.1, 1.0)
    with pytest.raises(ValueError, match="w"):
        user(1.2, 0.1, 1.0)
    with pytest.raises(ValueError, match="p_circuit"):
        user(0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="p_max"):
        user(0.5, 0.1, -1.0)


def test_accurate_log_for_tiny_powers():
    # ln(1 + delta p) must not lose precision when delta p is below 1e-12
    p = 1e-15
    d = 1.0
    assert se(p, d) == pytest.approx(p, rel=1e-12)
    # beta ~ pc / p in that regime
    assert _beta(p, 0.1, d) == pytest.approx(0.1 / p, rel=1e-9)
