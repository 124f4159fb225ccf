"""Digests of the fig4 primal-dual runs, for checking bit-identity.

    python tests/pd_digest.py [--expect STEPS RECORDS]

For example, the runs' current digests, which any change to the Euler
steps or to the stop rule moves:

    python tests/pd_digest.py --expect 311,866 \
        9e288f426bb37e679a4d91c58126460aec55faee291df61c06dc9bf819df4013

This runs fig4's default start and the 10 starts of acceptance
criterion 9 (np.random.default_rng(99), each start drawn in this order:
init_p = uniform(0.02, 1, N) * compute_pu(sc), init_lambda = uniform(0, 1)),
all with the scenario's gains, and measures V from solve_centralized(sc)'s
optimum with primal_dual.lyapunov. It prints:

    steps      the steps taken over all 11 runs
    records    SHA-256 of each trajectory's t, p, lam, total utility (each
               record's, by write_trajectory_csv's expression) and V bytes,
               in that order, run after run
    max_kkt    the largest max_residual of the runs' end-state KKT reports
               (Trajectory.kkt), which TOL_KKT bounds for a converged run
    csv        SHA-256 of each trajectory's CSV text as write_trajectory_csv
               writes it (the CLI's primal-dual --out), run after run
    step_us    the median over the 11 runs of each run's integrate time
               (time.perf_counter) divided by its steps, in microseconds
    first_us   the first run's integrate time divided by its steps, in
               microseconds: the one run that also builds the Euler kernel
    build_ms   the time of one uncached build of the Euler kernel at N = 4
               and at N = 512 users (_kernel.__wrapped__), in milliseconds

Two checkouts whose first two lines match ran the same Euler steps on
the same states to the last bit; a matching csv line also means they
wrote the same trajectory CSV bytes. All the lines are written in one
call once the last is known, so a reader that closes the pipe early
(| head -2) ends the run quietly. step_us, first_us and build_ms are
timings, not digests: they move with the host's load, so compare two
checkouts by alternating their runs on one machine. With --expect the
run also compares steps and records with the given values (STEPS with or
without thousands commas) and exits 1, naming each mismatch, when either
differs; max_kkt, csv and the timings are never compared. The digests
hold for one numpy build and libm on one CPU: the step's U' takes libm's
log1p, while the records' total utility takes numpy's SIMD log1p, which
differs from libm's in the last bit on some inputs, and which SIMD path
runs depends on the CPU. The package is imported from PYTHONPATH when it
is there (so another checkout's src/ can be measured), else from this
checkout's src/. Pytest does not collect this file.
"""
import argparse
import contextlib
import hashlib
import io
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

from mupower import compute_pu, integrate, solve_centralized, utility
from mupower.cli import write_trajectory_csv
from mupower.primal_dual import _kernel, lyapunov
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


def build_ms(n):
    """One build of the n-user Euler kernel, bypassing the kernel cache."""
    start = time.perf_counter()
    _kernel.__wrapped__(n)
    return (time.perf_counter() - start) * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digests of the fig4 primal-dual runs.")
    parser.add_argument("--expect", nargs=2, metavar=("STEPS", "RECORDS"))
    args = parser.parse_args(argv)
    loaded = load_scenario(ROOT / "scenarios" / "fig4.yaml")
    sc = loaded.scenario
    reference = solve_centralized(sc)
    records, csv = hashlib.sha256(), hashlib.sha256()
    steps, step_us, max_kkt = 0, [], 0.0
    for pd in settings_of_runs(loaded):
        start = time.perf_counter()
        traj = integrate(sc, pd)
        step_us.append((time.perf_counter() - start) / traj.steps_taken * 1e6)
        steps += traj.steps_taken
        max_kkt = max(max_kkt, float(traj.kkt.max_residual))
        v = lyapunov(traj.p, traj.lam, reference.p, reference.lam, pd)
        total_utility = np.sum(utility(traj.p, sc.w, sc.p_circuit, sc.delta), axis=1)
        for col in (traj.t, traj.p, traj.lam, total_utility, v):
            records.update(np.ascontiguousarray(col).tobytes())
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            write_trajectory_csv(traj, sc, v, None)
        csv.update(text.getvalue().encode())
    got = {"steps": f"{steps:,}", "records": records.hexdigest()}
    lines = [f"{name}: {value}" for name, value in got.items()] + [
        f"max_kkt: {max_kkt:.12g}",
        f"csv: {csv.hexdigest()}",
        f"step_us: {statistics.median(step_us):.3f}",
        f"first_us: {step_us[0]:.3f}",
        "build_ms: " + ", ".join(f"N={n} {build_ms(n):.2f}" for n in (4, 512)),
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    if args.expect is None:
        return 0
    mismatched = [(name, want) for name, want in zip(got, args.expect)
                  if got[name].replace(",", "") != want.replace(",", "")]
    for name, want in mismatched:
        print(f"MISMATCH {name}: expected {want}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
