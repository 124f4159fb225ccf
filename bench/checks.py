"""Output checks, run on the files a worker wrote and never timed.

Each check returns ``(attempted, failed, notes)`` for the operations the
output stands for. The checks read only the output files and the spec the
input generator returned; the allocation's optimality is recomputed here
with numpy, independently of the program's own code.
"""
from __future__ import annotations

import csv
import math

import numpy as np

from inputs import P_FLOOR

# Two correct solvers agree far below this; a wrong active set or price
# misses it by orders of magnitude. Leaves room for a rewrite that moves
# the 12th digit.
REF_RTOL = 1e-7
REF_ATOL = 1e-10
KKT_TOL = 1e-8          # the program's own certificate gate
BOX_TOL = 1e-12
SUM_TOL = 1e-9
PD_GAP_TOL = 1e-3       # acceptance criteria 4 and 9


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f)) or [[]]
    return rows[0], rows[1:]


def _floats(rows):
    """Rows as a float array, or None when a cell is not a number or the
    rows are ragged."""
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        return None


def check_sweep(csv_path, spec):
    """Every row feasible and within tolerance of the stored reference."""
    ref_header, ref_rows = _read_csv(spec["reference_csv"])
    header, rows = _read_csv(csv_path)
    attempted = len(ref_rows)
    if header != ref_header:
        return attempted, attempted, [f"header {header} != {ref_header}"]
    notes = []
    failed = max(0, attempted - len(rows))
    if failed:
        notes.append(f"{failed} rows missing")
    ref = np.array(ref_rows, dtype=float)
    for i, row in enumerate(rows[:attempted]):
        got = _floats(row)
        if got is None or got.shape != ref[i].shape:
            failed += 1
            notes.append(f"row {i}: unparsable {row}")
            continue
        p = got[2:4]
        feasible = (
            np.all(np.isfinite(got))
            and np.all(p >= P_FLOOR)
            and np.all(p <= spec["p_max"] + BOX_TOL)
            and p.sum() <= spec["p_sum_max"] + SUM_TOL
        )
        if not feasible or not np.allclose(got, ref[i], rtol=REF_RTOL, atol=REF_ATOL):
            failed += 1
            if len(notes) < 5:
                notes.append(f"row {i}: {row} vs reference {ref_rows[i]}")
    if len(rows) > attempted:
        failed += 1
        notes.append(f"{len(rows) - attempted} extra rows")
    return attempted, min(failed, attempted), notes


def check_primal_dual(csv_path, summary, spec):
    """One integration: every recorded state in the box, stopped before the
    step limit, not reported unconverged, and within PD_GAP_TOL of the
    centralized optimum. Returns the steps taken as a fourth value."""
    header, rows = _read_csv(csv_path)
    n = len(spec["p_u"])
    data = _floats(rows)
    if len(header) != n + 4 or not rows or data is None or data.ndim != 2:
        return 1, 1, [f"unexpected trajectory: header {header}, {len(rows)} rows"], 0
    p, lam = data[:, 1 : n + 1], data[:, n + 1]
    steps = int(data[-1, 0])
    notes = []
    in_box = np.all(p >= P_FLOOR) and np.all(p <= np.array(spec["p_u"]) + BOX_TOL)
    if not (np.all(np.isfinite(data)) and in_box and np.all(lam >= 0)):
        notes.append("trajectory leaves the box [p_floor, p_u] x [0, inf)")
    if steps >= spec["max_steps"]:
        notes.append(f"hit the step limit {spec['max_steps']}")
    if "converged: False" in summary:
        notes.append("reported not converged")
    gap = float(np.max(np.abs(p[-1] - np.array(spec["p_star"]))))
    if not gap <= PD_GAP_TOL:
        notes.append(f"final gap {gap:.3g} to the centralized optimum")
    return 1, int(bool(notes)), notes, steps


def _marginal_utility(p, w, p_circuit, delta):
    dp = delta * p
    beta = delta * (p + p_circuit) / ((1.0 + dp) * np.log1p(dp))
    return (beta - (1.0 - w)) / (p + p_circuit)


def check_many_users(csv_path, spec):
    """One solve: feasible powers, caps at the peak of each utility, and the
    KKT conditions at the price read off the interior users."""
    header, rows = _read_csv(csv_path)
    n = spec["w"].size
    data = _floats([r[1:3] for r in rows])
    if header[:3] != ["user", "P_watts", "P_u_watts"] or len(rows) != n or data is None:
        return 1, 1, [f"unexpected solve CSV: header {header}, {len(rows)} rows"]
    p, caps = data[:, 0], data[:, 1]
    w, pc, delta = spec["w"], spec["p_circuit"], spec["delta"]
    notes = []
    if not (np.all(np.isfinite(data)) and np.all(p >= P_FLOOR) and np.all(p <= caps + BOX_TOL)
            and np.all(caps <= spec["p_max"] + BOX_TOL) and p.sum() <= spec["p_sum_max"] + SUM_TOL):
        notes.append("allocation infeasible")
    below_max = caps < spec["p_max"] * (1 - 1e-12)
    cap_resid = np.abs(_marginal_utility(caps[below_max], w[below_max], pc, delta[below_max]))
    if cap_resid.size and not cap_resid.max() <= KKT_TOL:
        notes.append(f"caps miss the utility peak by {cap_resid.max():.3g}")
    grad = _marginal_utility(p, w, pc, delta)
    scale = np.maximum(1.0, caps)
    interior = (p - P_FLOOR > 1e-10 * scale) & (caps - p > 1e-10 * scale)
    lam = float(np.median(grad[interior])) if interior.any() else 0.0
    resid = [
        np.abs(grad[interior] - lam).max(initial=0.0),          # stationarity
        np.maximum(lam - grad[~interior & (p > caps / 2)], 0).max(initial=0.0),  # at the cap
        np.maximum(grad[~interior & (p <= caps / 2)] - lam, 0).max(initial=0.0),  # at the floor
        lam * abs(p.sum() - spec["p_sum_max"]),                  # budget complementarity
    ]
    worst = max(resid)
    if not (math.isfinite(worst) and worst <= KKT_TOL):
        notes.append(f"KKT residual {worst:.3g} at price {lam:.6g}")
    return 1, int(bool(notes)), notes
