import math
from dataclasses import replace

import numpy as np
import pytest

from mupower import Scenario, gains_from_db, jain_index, solve_centralized, summarize
from mupower.utility import utility


def test_equal_utilities_give_one():
    for c in (-5.0, 0.0, 3.7):
        assert jain_index([c, c]) == pytest.approx(1.0, abs=1e-15)


def test_hand_arithmetic_example():
    # exp values (1, 3): (1 + 3)^2 / (2 * (1 + 9)) = 16/20
    assert jain_index([0.0, math.log(3.0)]) == pytest.approx(0.8, rel=1e-12)


def test_paper_asymmetric_point():
    sc = Scenario(
        w=(0.5, 0.5), p_circuit=0.1, p_max=1.0,
        delta=gains_from_db([-20.0, 20.0]), p_sum_max=1.5,
    )
    alloc = solve_centralized(sc)
    assert summarize(sc, alloc).jain == pytest.approx(0.5017, abs=1e-3)


def test_permutation_invariance():
    rng = np.random.default_rng(61)
    u = rng.normal(size=6)
    base = jain_index(u)
    for _ in range(10):
        assert jain_index(rng.permutation(u)) == pytest.approx(base, rel=1e-14)


def test_uniform_shift_invariance():
    rng = np.random.default_rng(67)
    u = rng.normal(size=5)
    base = jain_index(u)
    for c in (-700.0, -3.0, 0.5, 700.0):
        assert abs(jain_index(u + c) - base) <= 1e-12


def test_range_and_domination_limit():
    rng = np.random.default_rng(71)
    for n in (2, 3, 8):
        rows = [rng.normal(scale=3.0, size=n) for _ in range(50)]
        for u in rows:
            j = jain_index(u)
            assert isinstance(j, float) and 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12
        # stacked rows give one index per row, equal to the one-set calls
        np.testing.assert_array_equal(jain_index(np.array(rows)), [jain_index(u) for u in rows])
    # one user dominating by a factor 1e6 drives the index to the 1/N floor
    assert jain_index([0.0, math.log(1e6)]) <= 0.500001


def test_summarize_recomputes_from_powers():
    sc = Scenario(
        w=(0.3, 0.8), p_circuit=0.1, p_max=1.0, delta=(10.0, 100.0), p_sum_max=0.8
    )
    alloc = solve_centralized(sc)
    report = summarize(sc, alloc)
    u = utility(alloc.p, sc.w, sc.p_circuit, sc.delta)
    assert np.allclose(report.per_user_utility, u, atol=1e-12)
    assert report.total_utility == pytest.approx(float(np.sum(u)), abs=1e-12)
    assert report.jain == pytest.approx(jain_index(u), abs=1e-15)


def test_summarize_symmetric_scenario():
    sc = Scenario(
        w=(0.5, 0.5), p_circuit=0.1, p_max=1.0, delta=gains_from_db([0.0, 0.0]), p_sum_max=1.5
    )
    report = summarize(sc, solve_centralized(sc))
    assert report.jain == pytest.approx(1.0, abs=1e-12)
    assert report.per_user_utility[0] == pytest.approx(report.per_user_utility[1], abs=1e-12)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        jain_index([0.0, np.inf])
    with pytest.raises(ValueError):
        jain_index([[0.0, 1.0], [np.nan, 0.0]])


def test_summarize_rejects_non_positive_or_nan_powers():
    sc = Scenario(w=(0.3, 0.8), p_circuit=0.1, p_max=1.0, delta=(10.0, 100.0), p_sum_max=0.8)
    alloc = solve_centralized(sc)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            summarize(sc, replace(alloc, p=np.array([0.4, bad])))
