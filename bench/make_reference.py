"""Write the stored references the output checks compare against.

    PYTHONPATH=src python3 bench/make_reference.py

Run once, at the commit that defined the benchmark; later commits are
checked against what it wrote, so do not rerun it to make a check pass.
"""
import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
from mupower import cli, scenario, solver  # noqa: E402

os.makedirs(inputs.REFERENCE_DIR, exist_ok=True)
with tempfile.TemporaryDirectory() as tmp:
    spec = inputs.generate("sweep", 0, tmp)
    loaded = scenario.load_scenario(spec["scenarios"][0])
    cli.cmd_sweep_diversity(loaded, out=spec["reference_csv"], grid=inputs.SWEEP_GRID)

    path = os.path.join(tmp, "fig4.yaml")
    inputs.write_yaml(path, inputs.FIG4)
    sc = scenario.load_scenario(path).scenario
    alloc = solver.solve_centralized(sc)
    caps = [solver.compute_pu(u, d, sc.settings) for u, d in zip(sc.users, sc.delta)]
    with open(os.path.join(inputs.REFERENCE_DIR, "fig4.json"), "w") as f:
        json.dump({"p_u": caps, "p": alloc.p.tolist(), "lam": alloc.lam}, f, indent=1)
        f.write("\n")
