"""One repeat of a workload, in a fresh interpreter.

    python3 worker.py MODE WORKLOAD OUT_DIR SCENARIO.yaml...

MODE is ``run`` (untraced), ``trace`` (spans around the layer calls) or
``setup`` (import and load only, to warm the file and bytecode caches).
The worker imports the program, loads every scenario (the end of set-up),
drives the ``mupower.cli`` command function of the workload, and notes
when its outputs are written. It then writes ``result.json`` to OUT_DIR
with ``time.monotonic`` timestamps, which share one clock with the parent
process. Work after the outputs are written (the traced run's
certificate re-check and cap replay) is outside every timed interval.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _install_tracer(tracer, captured):
    from mupower import cli, primal_dual, scenario, solver

    def solve_attrs(args, kwargs, alloc):
        captured.append((args[0] if args else kwargs["sc"], alloc))
        d = alloc.diagnostics
        return {
            "case": getattr(alloc.case, "value", str(alloc.case)),
            "newton": int(sum(getattr(d, "newton_iterations", ()))),
            "refine": int(getattr(d, "refine_evaluations", 0)),
            "gp": int(getattr(d, "gp_iterations", 0)),
            "solve": len(captured) - 1,
        }

    def integrate_attrs(args, kwargs, traj):
        return {
            "steps": int(traj.steps_taken),
            "uplink": int(traj.messages_uplink),
            "converged": bool(getattr(traj, "converged", False)),
        }

    for module, attr, name, attrs in (
        (scenario, "load_scenario", "scenario.load_scenario", None),
        (scenario, "load_channel_csv", "channel.load_channel_csv", None),
        (scenario, "compute_effective_gains", "channel.compute_effective_gains", None),
        (cli, "cmd_sweep_diversity", "cli.cmd_sweep_diversity", None),
        (cli, "cmd_primal_dual", "cli.cmd_primal_dual", None),
        (cli, "cmd_solve", "cli.cmd_solve", None),
        (cli, "solve_centralized", "solver.solve_centralized", solve_attrs),
        (cli, "integrate", "primal_dual.integrate", integrate_attrs),
        (cli, "summarize", "metrics.summarize", None),
        (cli, "write_trajectory_csv", "primal_dual.write_trajectory_csv", None),
        (solver, "kkt_residuals", "solver.kkt_residuals", None),
        (solver, "utility_grad", "utility.utility_grad", None),
        (primal_dual, "utility_grad", "utility.utility_grad", None),
    ):
        tracer.wrap(module, attr, name, attrs)


def _recheck(captured):
    """KKT residual of every traced solve, recomputed, and the time to
    recompute each solve's caps with ``compute_pu``."""
    from checks import KKT_TOL
    from mupower import solver

    kkt_failures = 0
    caps = []
    for sc, alloc in captured:
        if not solver.kkt_residuals(sc, alloc).max_residual <= KKT_TOL:
            kkt_failures += 1
        t0 = time.perf_counter()
        try:
            for user, d in zip(sc.users, sc.delta):
                solver.compute_pu(user, d, sc.settings)
        except (AttributeError, TypeError):
            caps.append(None)  # the caps entry point changed; no replay
            continue
        caps.append([time.perf_counter() - t0, len(sc.delta)])
    return kkt_failures, caps


def main(argv):
    mode, workload, out_dir, scenarios = argv[0], argv[1], argv[2], argv[3:]
    result = {}
    t0 = time.monotonic()
    import mupower  # noqa: F401  (the import is what is timed)
    from mupower import cli, scenario

    result["t_import"] = [t0, time.monotonic()]
    tracer, captured = None, []
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        _install_tracer(tracer, captured)
    loaded = [scenario.load_scenario(path) for path in scenarios]
    result["t_setup"] = time.monotonic()
    if mode == "setup":
        _write(out_dir, result)
        return 0

    summaries = []
    if workload == "sweep":
        # inputs.SWEEP_GRID, kept literal: importing inputs would load numpy
        # before the timed import
        status = [cli.cmd_sweep_diversity(loaded[0], out=os.path.join(out_dir, "sweep.csv"), grid=41)]
    elif workload == "pd":
        status = []
        for i, sc in enumerate(loaded):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status.append(cli.cmd_primal_dual(sc, out=os.path.join(out_dir, f"pd-{i}.csv")))
            summaries.append(buf.getvalue())
    elif workload == "many-users":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = [cli.cmd_solve(loaded[0], out=os.path.join(out_dir, "solve.csv"))]
        summaries.append(buf.getvalue())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    result["t_done"] = time.monotonic()
    result["peak_rss_mb"] = _peak_rss_mb()

    result["status"] = status
    result["summaries"] = summaries
    if tracer is not None:
        n_spans = len(tracer.spans)
        result["kkt_failures"], result["caps"] = _recheck(captured)
        tracer.spans[n_spans:] = []  # drop spans of the re-check itself
        tracer.dump(os.path.join(out_dir, "spans.json"))
    _write(out_dir, result)
    return max(status, default=0)


def _peak_rss_mb():
    """This process's resident high-water mark. Not ``ru_maxrss``: Linux
    carries the parent's high-water mark into it across fork and exec."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def _write(out_dir, result):
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
