"""Seeded input generator: writes each workload's scenario files.

The program only ever sees the YAML and CSV written here. ``generate``
returns the list of scenario files for the worker plus the facts the
output checks need, computed here from the inputs rather than by the
program.

- ``sweep``: the two-user preference-sweep base of ``scenarios/fig2.yaml``
  (copied, so the reference CSV stays tied to these exact inputs). It does
  not depend on the seed.
- ``pd``: ``scenarios/fig4.yaml`` from its default start, then
  ``PD_RANDOM_STARTS`` starts drawn from the seed as in acceptance
  criterion 9 (init_p uniform in [0.02, 1) times the caps, init_lambda
  uniform in [0, 1)). ``pd_max_steps`` bounds a run that never settles.
- ``many-users``: N=512 users behind an M=1024 i.i.d. Rayleigh channel,
  preference weights uniform in [0, 1], budget 0.2 N, so the budget binds.
"""
from __future__ import annotations

import json
import os

import numpy as np
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
SWEEP_GRID = 41

P_FLOOR = 1e-9  # SolverSettings.p_floor default; every scenario here keeps it

FIG2 = {
    "n_users": 2,
    "receive_antennas": 2,
    "delta_db": [20.0, 20.0],
    "w": [0.5, 0.5],
    "p_max_individual_watts": 1.0,
    "p_circuit_watts": 0.1,
    "p_sum_max_watts": 1.5,
}

FIG4 = {
    "n_users": 4,
    "receive_antennas": 4,
    "delta_db": [0.0, 0.0, 0.0, 0.0],
    "w": [0.0, 0.3, 0.7, 1.0],
    "p_max_individual_watts": 1.0,
    "p_circuit_watts": 0.1,
    "p_sum_max_watts": 3.0,
    "pd_gain_primal": 0.001,
    "pd_gain_dual": 0.001,
}
PD_RANDOM_STARTS = 2
# Every start converges in about 25,000 steps; ten times that is a run
# that will not converge.
PD_MAX_STEPS = 250_000

MANY_USERS_N = 512
MANY_USERS_M = 1024
MANY_USERS_SIGMA2 = 1.0
MANY_USERS_P_MAX = 1.0
MANY_USERS_P_CIRCUIT = 0.1


def write_yaml(path, doc):
    with open(path, "w") as f:
        yaml.safe_dump(doc, f, sort_keys=False)
    return path


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the inputs of one workload into ``out_dir``; return its spec."""
    rng = np.random.default_rng(seed)
    if workload == "sweep":
        return {
            "scenarios": [write_yaml(os.path.join(out_dir, "sweep.yaml"), FIG2)],
            "reference_csv": os.path.join(REFERENCE_DIR, f"sweep_fig2_{SWEEP_GRID}.csv"),
            "p_max": FIG2["p_max_individual_watts"],
            "p_sum_max": FIG2["p_sum_max_watts"],
        }
    if workload == "pd":
        # caps, optimum and price of fig4, as solved when the benchmark was made
        with open(os.path.join(REFERENCE_DIR, "fig4.json")) as f:
            ref = json.load(f)
        caps = np.array(ref["p_u"])
        docs = [dict(FIG4, pd_max_steps=PD_MAX_STEPS)]
        for _ in range(PD_RANDOM_STARTS):
            init_p = rng.uniform(0.02, 1.0, caps.size) * caps
            docs.append(
                dict(
                    docs[0],
                    pd_init_p_watts=[float(x) for x in init_p],
                    pd_init_lambda=float(rng.uniform(0.0, 1.0)),
                )
            )
        return {
            "scenarios": [
                write_yaml(os.path.join(out_dir, f"pd-{i}.yaml"), doc) for i, doc in enumerate(docs)
            ],
            "p_u": ref["p_u"],
            "p_star": ref["p"],
            "max_steps": PD_MAX_STEPS,
        }
    if workload == "many-users":
        n, m = MANY_USERS_N, MANY_USERS_M
        h = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
        w = rng.uniform(0.0, 1.0, n)
        with open(os.path.join(out_dir, "channel.csv"), "w") as f:
            for row in h:
                f.write(",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) + "\n")
        doc = {
            "n_users": n,
            "receive_antennas": m,
            "channel_csv": "channel.csv",
            "sigma2_watts": MANY_USERS_SIGMA2,
            "w": [float(x) for x in w],
            "p_max_individual_watts": MANY_USERS_P_MAX,
            "p_circuit_watts": MANY_USERS_P_CIRCUIT,
            "p_sum_max_watts": 0.2 * n,
        }
        # ZF gains computed here, independently of the program's channel code.
        gram_inv_diag = np.real(np.diagonal(np.linalg.inv(h.conj().T @ h)))
        return {
            "scenarios": [write_yaml(os.path.join(out_dir, "many-users.yaml"), doc)],
            "w": w,
            "delta": 1.0 / (MANY_USERS_SIGMA2 * gram_inv_diag),
            "p_max": MANY_USERS_P_MAX,
            "p_circuit": MANY_USERS_P_CIRCUIT,
            "p_sum_max": doc["p_sum_max_watts"],
        }
    raise ValueError(f"unknown workload {workload!r}")
