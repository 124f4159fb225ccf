"""Digests of the fig4 primal-dual runs, for checking bit-identity.

    python tests/pd_digest.py [--expect STEPS RECORDS]

This runs fig4's default start and the 10 starts of acceptance
criterion 9 (np.random.default_rng(99), each start drawn in this order:
init_p = uniform(0.02, 1, N) * compute_pu(sc), init_lambda = uniform(0, 1)),
all with the scenario's gains and reference=solve_centralized(sc). It
prints:

    steps      the steps taken over all 11 runs
    records    SHA-256 of each trajectory's t, p, lam, total_utility and v
               bytes, in that order, run after run
    step_us    the median over the 11 runs of each run's integrate time
               (time.perf_counter) divided by its steps, in microseconds

Two checkouts whose first two lines match ran the same Euler steps on
the same states to the last bit. step_us is a timing, not a digest: it
moves with the host's load, so compare two checkouts by alternating
their runs on one machine. With --expect the run also compares steps and
records with the given values (STEPS with or without thousands commas)
and exits 1, naming each mismatch, when either differs; step_us is never
compared. The digests hold for
one numpy build and libm on one CPU: the step's U' takes libm's log1p,
while the records' total_utility takes numpy's SIMD log1p, which differs
from libm's in the last bit on some inputs, and which SIMD path runs
depends on the CPU. The package is imported from PYTHONPATH when it is
there (so another checkout's src/ can be measured), else from this
checkout's src/. Pytest does not collect this file.
"""
import argparse
import hashlib
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
try:
    import mupower  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
    import mupower  # noqa: F401

from mupower import compute_pu, integrate, solve_centralized
from mupower.scenario import load_scenario


def settings_of_runs(loaded):
    """fig4's own settings, then the 10 seeded starts of criterion 9."""
    sc = loaded.scenario
    p_u = compute_pu(sc)
    rng = np.random.default_rng(99)
    runs = [loaded.pd]
    for _ in range(10):
        init_p = rng.uniform(0.02, 1.0, sc.n_users) * p_u
        runs.append(replace(loaded.pd, init_p=init_p, init_lambda=float(rng.uniform(0.0, 1.0))))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digests of the fig4 primal-dual runs.")
    parser.add_argument("--expect", nargs=2, metavar=("STEPS", "RECORDS"))
    args = parser.parse_args(argv)
    loaded = load_scenario(ROOT / "scenarios" / "fig4.yaml")
    sc = loaded.scenario
    reference = solve_centralized(sc)
    records = hashlib.sha256()
    steps, step_us = 0, []
    for pd in settings_of_runs(loaded):
        start = time.perf_counter()
        traj = integrate(sc, pd, reference=reference)
        step_us.append((time.perf_counter() - start) / traj.steps_taken * 1e6)
        steps += traj.steps_taken
        for col in (traj.t, traj.p, traj.lam, traj.total_utility, traj.v):
            records.update(np.ascontiguousarray(col).tobytes())
    got = {"steps": f"{steps:,}", "records": records.hexdigest()}
    print("\n".join(f"{name}: {value}" for name, value in got.items()))
    print(f"step_us: {statistics.median(step_us):.3f}")
    if args.expect is None:
        return 0
    mismatched = [(name, want) for name, want in zip(got, args.expect)
                  if got[name].replace(",", "") != want.replace(",", "")]
    for name, want in mismatched:
        print(f"MISMATCH {name}: expected {want}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
