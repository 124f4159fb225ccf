"""Experiment harness.

Subcommands (all read a scenario file, see scenario.py for the format):

    solve            one centralized solve, report to stdout (+ CSV via --out)
    sweep-diversity  2-user (w1, w2) grid; CSV of powers, SE and EE per user
    sweep-fairness   2-user channel-asymmetry sweep; CSV of Jain index
    primal-dual      distributed run; trajectory CSV via --out, summary and max_kkt_residual to stdout

Each sweep is one batched solve (solver.solve_batch), and the first row
that fails its certificate aborts the sweep. The solver returns powers;
each command computes what it reports from them, and every fairness report
is jain_index of the users' utility.

Every CSV is built by _csv, deterministic for a fixed scenario file. Each
command writes stdout in one call, as a reader may close the pipe early
(| head). Exit codes: 0 success, 1 input or usage error, 2 solver
non-convergence (primal-dual only under --strict: its end state fails the KKT gate).
"""
from __future__ import annotations

import sys

import numpy as np

from .channel import gains_from_db
from .primal_dual import Trajectory, integrate, lyapunov
from .scenario import _KEYS, P_FLOOR, LoadedScenario, Scenario, _naming, load_scenario
from .solver import ConvergenceError, solve_batch, solve_centralized
from .utility import ee, jain_index, se, utility

_FAIRNESS_DELTA1_DB = (-20.0, 0.0, 20.0)


def _csv(header, rows) -> str:
    """A numeric (rows, len(header)) table as CSV text: each cell "%.12g", LF endings.

    Each distinct float64 bit pattern is formatted once and the text is
    joined from those strings. It keys on bits, not values: 0.0 and -0.0
    compare equal but print 0 and -0, and NaN equals nothing.
    """
    k = len(header)
    bits = np.asarray(rows, dtype=float).ravel().view(np.int64)
    order = bits.argsort(kind="stable")  # pages in half the code of the default sort
    bits = bits[order]
    new = np.ones(bits.size, bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    values = tuple(bits[new].view(float).tolist())
    np.cumsum(new, out=bits)  # the sorted cells' text indices, from 1: texts[0] is the "" before the first "\n"
    cells = np.empty_like(order)
    cells[order] = bits
    del order, bits, new  # each as large as the table: gone before the text is built
    texts = np.array(("\n%.12g," * len(values) % values).split("\n"), dtype=object)
    cells = texts[cells].tolist()
    cells[k - 1::k] = [cell[:-1] + "\n" for cell in cells[k - 1::k]]
    cells.insert(0, ",".join(header) + "\n")
    return "".join(cells)


def _write(path, text) -> None:
    """Write text to path, or to stdout when path is None, in one call."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as f:
            f.write(text)


def write_trajectory_csv(traj: Trajectory, sc: Scenario, v, path) -> None:
    """Write a trajectory of sc and its records' V as CSV: t, P_1..P_N, lambda, total_utility, V."""
    header = ["t"] + [f"P_{i + 1}" for i in range(traj.p.shape[1])] + ["lambda", "total_utility", "V"]
    total_utility = np.sum(utility(traj.p, sc.w, sc.p_circuit, sc.delta), axis=1)
    _write(path, _csv(header, np.column_stack([traj.t, traj.p, traj.lam, total_utility, v])))


def cmd_solve(loaded: LoadedScenario, out=None) -> int:
    sc = loaded.scenario
    alloc = solve_centralized(sc)
    p = alloc.p
    u = utility(p, sc.w, sc.p_circuit, sc.delta)
    case = "SumTight" if alloc.case == "sum_tight" else "SumSlack"
    users = np.arange(1, sc.n_users + 1)
    rows = [users, p, alloc.p_u, se(p, sc.delta), ee(p, sc.p_circuit, sc.delta), u]
    table = _csv(["user", "P_watts", "P_u_watts", "SE", "EE", "U"], np.column_stack(rows))
    if out is not None:
        _write(out, table)
    sys.stdout.write(
        f"case: {case}\nlambda: {alloc.lam:.12g}\n"
        f"sum_p_watts: {np.sum(p):.12g} (budget {sc.p_sum_max:.12g})\n{table}"
        f"total_utility: {np.sum(u):.12g}\njain: {jain_index(u):.12g}\n"
        f"max_kkt_residual: {alloc.diagnostics.kkt.max_residual:.12g}\n",
    )
    return 0


def cmd_sweep_diversity(loaded: LoadedScenario, out=None, grid: int = 41) -> int:
    """Solve over a (w1, w2) grid on [0, 1]^2 for a 2-user scenario."""
    sc = loaded.scenario
    if sc.n_users != 2:
        raise ValueError(f"sweep-diversity needs a 2-user scenario, got N={sc.n_users}")
    axis = np.linspace(0.0, 1.0, grid)
    w = np.column_stack([np.repeat(axis, grid), np.tile(axis, grid)])
    p = solve_batch(sc, w=w).p
    feasible = (
        np.all(p >= P_FLOOR, axis=1)
        & np.all(p <= sc.p_max + 1e-12, axis=1)
        & (np.sum(p, axis=1) <= sc.p_sum_max + 1e-9)
    )
    if not feasible.all():
        w1, w2 = w[np.argmin(feasible)]
        raise RuntimeError(f"infeasible sweep row at w=({w1}, {w2})")
    table = np.hstack([w, p, se(p, sc.delta), ee(p, sc.p_circuit, sc.delta)])
    _write(out, _csv(["w1", "w2", "P1", "P2", "SE1", "SE2", "EE1", "EE2"], table))
    return 0


def cmd_sweep_fairness(loaded: LoadedScenario, out=None, grid: int = 41) -> int:
    """Jain index across channel asymmetry (delta1, delta2 in dB) for a 2-user scenario."""
    sc = loaded.scenario
    if sc.n_users != 2:
        raise ValueError(f"sweep-fairness needs a 2-user scenario, got N={sc.n_users}")
    d1, d2 = np.asarray(_FAIRNESS_DELTA1_DB), np.linspace(-20.0, 20.0, grid)
    db = np.column_stack([np.repeat(d1, d2.size), np.tile(d2, d1.size)])
    delta = gains_from_db(db)
    u = utility(solve_batch(sc, delta=delta).p, sc.w, sc.p_circuit, delta)
    jain = jain_index(u)
    in_range = (1.0 / sc.n_users - 1e-12 <= jain) & (jain <= 1.0 + 1e-12)
    if not in_range.all():
        i = np.argmin(in_range)
        raise RuntimeError(f"jain {jain[i]} out of range at delta=({db[i, 0]}, {db[i, 1]}) dB")
    _write(out, _csv(["delta1_db", "delta2_db", "jain", "U1", "U2"], np.column_stack([db, jain, u])))
    return 0


def cmd_primal_dual(loaded: LoadedScenario, out=None, strict: bool = False) -> int:
    sc = loaded.scenario
    reference = solve_centralized(sc)
    traj = integrate(sc, loaded.pd)
    if out is not None:
        write_trajectory_csv(traj, sc, lyapunov(traj.p, traj.lam, reference.p, reference.lam, loaded.pd), out)
    gap = float(np.max(np.abs(traj.p[-1] - reference.p)))
    sys.stdout.write(
        f"converged: {traj.converged}\nsteps: {traj.steps_taken}\n"
        f"final_gap_vs_centralized: {gap:.12g}\n"
        f"final_lambda: {traj.lam[-1]:.12g} (centralized {reference.lam:.12g})\n"
        f"messages_broadcast: {traj.steps_taken}\nmessages_uplink: {traj.messages_uplink}\n"
        f"max_kkt_residual: {traj.kkt.max_residual:.12g}\n",
    )
    if strict and not traj.converged:
        print("error: primal-dual integration did not converge", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    import argparse  # here, not at module level: callers of the cmd_* functions never parse argv
    parser = argparse.ArgumentParser(
        prog="mupower",
        description="Utility-maximizing uplink MU-MIMO power allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "centralized solve of one scenario"),
        ("sweep-diversity", "2-user (w1, w2) preference sweep"),
        ("sweep-fairness", "2-user channel-asymmetry fairness sweep"),
        ("primal-dual", "distributed primal-dual integration"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        if name.startswith("sweep-"):
            p.add_argument("--grid", type=int, default=41, help="sweep points per axis")
        if name == "primal-dual":
            p.add_argument("--strict", action="store_true", help="exit 2 when the end state fails the KKT gate")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error exits 2, which means non-convergence here
        return 1 if exc.code == 2 else exc.code

    try:
        if getattr(args, "grid", 1) < 1:
            raise ValueError(f"--grid must be at least 1, got {args.grid}")
        loaded = load_scenario(args.scenario)
        if args.command == "solve":
            return cmd_solve(loaded, out=args.out)
        if args.command == "sweep-diversity":
            return cmd_sweep_diversity(loaded, out=args.out, grid=args.grid)
        if args.command == "sweep-fairness":
            return cmd_sweep_fairness(loaded, out=args.out, grid=args.grid)
        with _naming(args.scenario, _KEYS):  # integrate checks init_p against the caps
            return cmd_primal_dual(loaded, out=args.out, strict=args.strict)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
