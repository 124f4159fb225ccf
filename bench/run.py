"""The mupower benchmark.

    python3 bench/run.py --workload {sweep,pd,many-users} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a source checkout and uses the program in ``src/``
as it stands. It writes the workload's inputs from the seed (see
``inputs.py``), warms the caches with one untimed set-up, then repeats
the workload, each repeat in a fresh worker process, until the next
repeat would end after ``--seconds`` (at least three repeats). Every
output is checked (``checks.py``) outside the timed intervals. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``), medians over the repeats:

- ``wall_s``: spawn of the worker until its outputs are written.
- ``setup_s``: spawn until every scenario is loaded and validated
  (interpreter, ``import mupower``, ``load_scenario``; for many-users also
  the channel CSV and the ZF gains).
- ``ops_per_s``: operations per second after set-up; an operation is a
  centralized solve (sweep, many-users) or a primal-dual step (pd).
- ``peak_rss_mb``: the worker's peak resident memory when its outputs
  are written (VmHWM).
- ``success_rate``: 1 - failed / attempted over all checked operations.

With ``--trace 1`` traced and untraced repeats alternate (ABBA order) and
the per-layer metrics come from spans recorded around the calls into each
module (``worker.py``). Times are medians over traced repeats, counts are
exact, and solve-time percentiles pool every traced solve. A percentile
with fewer than ten samples beyond it, or a layer the workload never
calls, reads 0. ``trace.overhead_s`` is the traced minus the untraced
median ``wall_s``.

Before each repeat a fixed calibration probe is timed and stored with the
repeat, so slow host periods are visible; no metric is divided by it.
Every repeat, the machine and the versions go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import percentile, self_times  # noqa: E402

WORKLOADS = ("sweep", "pd", "many-users")
MIN_REPEATS = 3
WORKER_TIMEOUT_S = 90.0  # keeps a hung worker inside the 180 s a run may take
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "import.mupower_s": "s",
    "scenario.load_ms": "ms",
    "channel.csv_parse_ms": "ms",
    "channel.gains_ms": "ms",
    "solver.slack_solve_ms.p50": "ms",
    "solver.slack_solve_ms.p99": "ms",
    "solver.tight_solve_ms.p50": "ms",
    "solver.tight_solve_ms.p90": "ms",
    "solver.solve_ms": "ms",
    "solver.caps_us_per_user": "us",
    "solver.kkt_ms": "ms",
    "solver.price_ms": "ms",
    "utility.grad_calls": "count",
    "utility.grad_us": "us",
    "primal_dual.step_us": "us",
    "metrics.summarize_ms": "ms",
    "cli.self_ms": "ms",
    "cli.csv_write_ms": "ms",
    "solver.solves": "count",
    "solver.tight_solves": "count",
    "solver.tight_share": "ratio",
    "solver.newton_evals": "count",
    "solver.refine_evals": "count",
    "solver.gp_iters": "count",
    "primal_dual.steps": "count",
    "primal_dual.default_start_steps": "count",
    "primal_dual.messages_uplink": "count",
    "primal_dual.converged_share": "ratio",
    "trace.overhead_s": "s",
}
# Operations a repeat stands for, counted as failed when the worker dies.
EXPECTED_OPS = {"sweep": inputs.SWEEP_GRID**2, "pd": 1 + inputs.PD_RANDOM_STARTS, "many-users": 1}


def probe_ms():
    """Median of three timings of a fixed pure-Python and numpy unit."""
    times = []
    a = np.arange(20_000, dtype=float)
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i % 7
        for _ in range(50):
            a = np.sqrt(a * a + 1.0)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def machine_info():
    import scipy
    import yaml

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # not an enclosing repository's HEAD
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
    }


def spawn(mode, workload, scenarios, out_dir):
    """Run one worker to completion; return its spawn time, result and
    exit code. ``t_spawn`` is taken on the clock the worker stamps with."""
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, out_dir, *scenarios]
    with open(os.path.join(out_dir, "stdout.txt"), "w") as out, open(
        os.path.join(out_dir, "stderr.txt"), "w"
    ) as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=out_dir)
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    result = None
    if proc.returncode == 0:
        with open(os.path.join(out_dir, "result.json")) as f:
            result = json.load(f)
    return t_spawn, result, proc.returncode


def check_outputs(workload, spec, out_dir, result):
    """(attempted, failed, ops completed, notes) for one repeat's outputs."""
    if workload == "sweep":
        attempted, failed, notes = checks.check_sweep(os.path.join(out_dir, "sweep.csv"), spec)
        return attempted, failed, attempted, notes
    if workload == "pd":
        attempted = failed = steps = 0
        notes = []
        for i, summary in enumerate(result["summaries"]):
            a, f, n, s = checks.check_primal_dual(os.path.join(out_dir, f"pd-{i}.csv"), summary, spec)
            attempted, failed, steps = attempted + a, failed + f, steps + s
            notes += n
        return attempted, failed, steps, notes
    attempted, failed, notes = checks.check_many_users(os.path.join(out_dir, "solve.csv"), spec)
    return attempted, failed, attempted, notes


def one_repeat(mode, workload, spec, work_dir, cpu):
    """One worker on ``cpu``; the probe runs there just before it."""
    os.sched_setaffinity(0, {cpu})  # the worker inherits it
    out_dir = tempfile.mkdtemp(dir=work_dir)
    rep = {"mode": mode, "cpu": cpu, "probe_ms": probe_ms()}
    t_spawn, result, code = spawn(mode, workload, spec["scenarios"], out_dir)
    rep.update(exit=code, elapsed_s=time.monotonic() - t_spawn)
    if code != 0:
        rep.update(attempted=EXPECTED_OPS[workload], failed=EXPECTED_OPS[workload])
        with open(os.path.join(out_dir, "stderr.txt")) as f:
            rep["notes"] = [f"worker exit {code}: " + f.read()[-2000:]]
        return rep
    try:
        attempted, failed, ops, notes = check_outputs(workload, spec, out_dir, result)
    except OSError as exc:  # an output file is missing
        attempted = failed = EXPECTED_OPS[workload]
        ops, notes = 0, [f"output missing: {exc}"]
    if mode == "trace":
        failed = min(attempted, failed + result["kkt_failures"])
        if result["kkt_failures"]:
            notes.append(f"{result['kkt_failures']} solves fail the recomputed KKT gate")
        with open(os.path.join(out_dir, "spans.json")) as f:
            rep["layers"] = layer_sample(json.load(f), result)
    post_setup = result["t_done"] - result["t_setup"]
    rep.update(
        attempted=attempted,
        failed=failed,
        notes=notes,
        wall_s=result["t_done"] - t_spawn,
        peak_rss_mb=result["peak_rss_mb"],
        setup_s=result["t_setup"] - t_spawn,
        ops_per_s=ops / post_setup,
    )
    shutil.rmtree(out_dir)
    return rep


def layer_sample(spans, result):
    """Per-layer figures of one traced repeat."""
    own = self_times(spans)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def total(name, times=None):
        times = own if times is None else times
        return sum(times[i] for i in by_name.get(name, ()))

    dur = [end - start for _, start, end, _, _ in spans]
    solves = [
        spans[i][4] | {"ms": dur[i] * 1e3, "index": i}
        for i in by_name.get("solver.solve_centralized", ())
    ]
    kkt_in = {}
    for i in by_name.get("solver.kkt_residuals", ()):
        kkt_in[spans[i][3]] = kkt_in.get(spans[i][3], 0.0) + dur[i]
    caps = result["caps"]
    replayed = [c for c in caps if c is not None]
    price_s = 0.0
    for s in solves:
        if s["case"] == "sum_tight":
            cap_s = caps[s["solve"]][0] if caps[s["solve"]] else 0.0
            price_s += dur[s["index"]] - cap_s - kkt_in.get(s["index"], 0.0)
    runs = [spans[i][4] for i in by_name.get("primal_dual.integrate", ())]
    steps = sum(r["steps"] for r in runs)
    grads = by_name.get("utility.utility_grad", ())
    cmds = [n for n in by_name if n.startswith("cli.cmd_")]
    return {
        "import.mupower_s": result["t_import"][1] - result["t_import"][0],
        "scenario.load_ms": total("scenario.load_scenario") * 1e3,
        "channel.csv_parse_ms": total("channel.load_channel_csv", dur) * 1e3,
        "channel.gains_ms": total("channel.compute_effective_gains", dur) * 1e3,
        "slack_ms": [s["ms"] for s in solves if s["case"] != "sum_tight"],
        "tight_ms": [s["ms"] for s in solves if s["case"] == "sum_tight"],
        "solver.solve_ms": sum(s["ms"] for s in solves),
        "solver.caps_us_per_user": (
            sum(c[0] for c in replayed) / sum(c[1] for c in replayed) * 1e6 if replayed else 0.0
        ),
        "solver.kkt_ms": total("solver.kkt_residuals", dur) * 1e3,
        "solver.price_ms": price_s * 1e3,
        "utility.grad_calls": len(grads),
        "utility.grad_us": sum(dur[i] for i in grads) / len(grads) * 1e6 if grads else 0.0,
        "primal_dual.step_us": total("primal_dual.integrate") / steps * 1e6 if steps else 0.0,
        "metrics.summarize_ms": total("metrics.summarize", dur) * 1e3,
        "cli.self_ms": sum(total(n) for n in cmds) * 1e3,
        "cli.csv_write_ms": total("primal_dual.write_trajectory_csv", dur) * 1e3,
        "solver.solves": len(solves),
        "solver.tight_solves": sum(s["case"] == "sum_tight" for s in solves),
        "solver.newton_evals": sum(s["newton"] for s in solves),
        "solver.refine_evals": sum(s["refine"] for s in solves),
        "solver.gp_iters": sum(s["gp"] for s in solves),
        "primal_dual.steps": steps,
        "primal_dual.default_start_steps": runs[0]["steps"] if runs else 0,
        "primal_dual.messages_uplink": sum(r["uplink"] for r in runs),
        "primal_dual.converged_share": sum(r["converged"] for r in runs) / len(runs) if runs else 0.0,
    }


def summarize_layers(traced, untraced):
    samples = [r["layers"] for r in traced if "layers" in r]
    out = {}
    for name, unit in PER_LAYER.items():
        values = [s[name] for s in samples if name in s]
        middle = statistics.median_low if unit == "count" else statistics.median
        out[name] = middle(values) if values else 0
    pooled = {key: [x for s in samples for x in s[key]] for key in ("slack_ms", "tight_ms")}
    for key, q in (("slack", 0.5), ("slack", 0.99), ("tight", 0.5), ("tight", 0.9)):
        value = percentile(pooled[f"{key}_ms"], q)
        out[f"solver.{key}_solve_ms.p{round(q * 100)}"] = 0.0 if value is None else value
    solves = out["solver.solves"]
    out["solver.tight_share"] = out["solver.tight_solves"] / solves if solves else 0.0
    walls = [[r["wall_s"] for r in reps if "wall_s" in r] for reps in (traced, untraced)]
    out["trace.overhead_s"] = (
        statistics.median(walls[0]) - statistics.median(walls[1]) if all(walls) else 0.0
    )
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mupower", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'mupower')}", file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        spec = inputs.generate(args.workload, args.seed, work_dir)
        warm = tempfile.mkdtemp(dir=work_dir)
        spawn("setup", args.workload, spec["scenarios"], warm)

        # ABBA order, so neither mode sits systematically in one host period;
        # a traced run stops only after whole pairs, with two of each mode.
        # Repeats take turns on the CPUs: each CPU's speed drifts on its own,
        # and a lone worker would otherwise stay on one for the whole run.
        order = ("run", "trace", "trace", "run") if args.trace else ("run",)
        batch = 2 if args.trace else 1
        min_repeats = 4 if args.trace else MIN_REPEATS
        repeats = []
        t_begin = time.monotonic()
        while True:
            mode = order[len(repeats) % len(order)]
            cpu = cpus[len(repeats) % len(cpus)]
            repeats.append(one_repeat(mode, args.workload, spec, work_dir, cpu))
            elapsed = time.monotonic() - t_begin
            typical = statistics.median(r["elapsed_s"] for r in repeats)
            if (
                len(repeats) >= min_repeats
                and len(repeats) % batch == 0
                and elapsed + batch * typical > args.seconds
            ):
                break
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    untraced = [r for r in repeats if r["mode"] == "run"]
    ok = [r for r in untraced if r["exit"] == 0]
    spread = {}
    for name in ("wall_s", "setup_s", "ops_per_s", "peak_rss_mb"):
        values = [r[name] for r in ok]
        spread[name] = quartiles(values) + (len(values),) if values else (0.0, 0.0, 0.0, 0)
    run_attempted = sum(r["attempted"] for r in untraced)
    run_failed = sum(r["failed"] for r in untraced)
    spread["success_rate"] = (1.0 - run_failed / run_attempted,) * 3 + (run_attempted,)

    if args.trace:
        values = summarize_layers([r for r in repeats if r["mode"] == "trace"], untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": spread[name][1], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "end_to_end": {k: dict(zip(("q1", "median", "q3", "n"), v)) for k, v in spread.items()},
        "metrics": metrics,
        "repeats": repeats,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = os.path.join(
        out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    )
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, default=float)

    for r in repeats:
        print(
            f"{r['mode']:5s} cpu {r['cpu']}  probe {r['probe_ms']:6.2f} ms  "
            + (f"wall {r['wall_s']:7.3f} s  setup {r['setup_s']:6.3f} s  " if "wall_s" in r else "")
            + (f"rss {r['peak_rss_mb']:6.1f} MB  " if "peak_rss_mb" in r else "")
            + f"failed {r['failed']}/{r['attempted']}"
            + "".join(f"\n      ! {n}" for n in r.get("notes", ())[:5])
        )
    for name, (q1, med, q3, n) in spread.items():
        print(f"{name:13s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {n}")
    print("machine " + json.dumps(record["machine"]))
    print(f"record {os.path.relpath(record_path, ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
