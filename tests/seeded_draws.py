"""Seeded draw sets from the property-test domain, solved and summarized.

    python tests/seeded_draws.py [SEED ...]

For each seed (default 4, 5 and 6) this draws 3,000 scenarios with
np.random.default_rng(seed), each in this order:

    n          = integers(1, 9)
    w          = uniform(0, 1, n), then with c = random(n):
                 w = 0 where c < 0.15 and w = 1 where 0.15 <= c < 0.30
    p_circuit  = 10 ** uniform(-6, 3, n)
    p_max      = 10 ** uniform(-6, 2, n)
    delta      = gains_from_db(uniform(-60, 80, n))
    p_sum_max  = max(n * P_FLOOR, 10 ** uniform(log10(n * P_FLOOR), 2))

and solves each with solve_centralized. It prints, per seed, how many
draws were certified, how many raised ConvergenceError and the largest
budget among those, and the largest |beta(p_u) - (1 - w)| over the caps
strictly inside (P_FLOOR, p_max), with beta from oracles.py. Any other
exception propagates.

The package is imported from PYTHONPATH when it is there (so another
checkout's src/ can be measured with the same draws), else from this
checkout's src/. Pytest does not collect this file.
"""
import math
import sys
from pathlib import Path

import numpy as np

try:
    import mupower  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import mupower  # noqa: F401

from mupower import ConvergenceError, Scenario, compute_pu, gains_from_db, solve_centralized
from mupower.solver import P_FLOOR

from oracles import beta

DRAWS = 3_000


def draw(rng):
    """One scenario of the property-test domain, drawn in the documented order."""
    n = int(rng.integers(1, 9))
    w = rng.uniform(0.0, 1.0, n)
    c = rng.random(n)
    w = np.where(c < 0.15, 0.0, np.where(c < 0.30, 1.0, w))
    p_circuit = 10.0 ** rng.uniform(-6.0, 3.0, n)
    p_max = 10.0 ** rng.uniform(-6.0, 2.0, n)
    delta = gains_from_db(rng.uniform(-60.0, 80.0, n))
    floor_sum = n * P_FLOOR
    p_sum_max = max(floor_sum, 10.0 ** rng.uniform(math.log10(floor_sum), 2.0))
    return Scenario(w, p_circuit, p_max, delta, p_sum_max=p_sum_max)


def summarize_seed(seed, draws=DRAWS):
    """(certified, ConvergenceError count, largest failing budget, worst cap residual)."""
    rng = np.random.default_rng(seed)
    certified, failures, worst_budget, worst_cap = 0, 0, 0.0, 0.0
    for _ in range(draws):
        sc = draw(rng)
        p_u = compute_pu(sc)
        inside = (P_FLOOR < p_u) & (p_u < sc.p_max)
        if inside.any():
            excess = beta(p_u[inside], sc.p_circuit[inside], sc.delta[inside]) - (1.0 - sc.w[inside])
            worst_cap = max(worst_cap, float(np.max(np.abs(excess))))
        try:
            solve_centralized(sc)
        except ConvergenceError:
            failures += 1
            worst_budget = max(worst_budget, sc.p_sum_max)
            continue
        certified += 1
    return certified, failures, worst_budget, worst_cap


def main(argv):
    for seed in [int(a) for a in argv] or [4, 5, 6]:
        certified, failures, worst_budget, worst_cap = summarize_seed(seed)
        print(
            f"seed {seed}: {certified:,} of {DRAWS:,} certified, {failures} ConvergenceError "
            f"(largest P {worst_budget:.3g} W), max |beta(p_u) - (1 - w)| inside the box {worst_cap:.2g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
