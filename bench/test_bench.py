"""Self-tests of the benchmark (not of the program).

    python3 -m pytest -q bench/test_bench.py
"""
import json
import os
import re
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, percentile, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    names = list(run.WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(100)), 0.9) == 89
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile([], 0.5) is None


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["d", 2.0, 3.0, 1, None],
        ["c", 5.0, 6.0, 0, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_nesting():
    class Mod:
        pass

    mod = Mod()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer", attrs=lambda a, k, r: {"r": r})
    tracer.wrap(mod, "missing", "missing")
    assert mod.outer(1) == 4
    (outer, inner) = tracer.spans
    assert outer[0] == "outer" and outer[3] == -1 and outer[4] == {"r": 4}
    assert inner[0] == "inner" and inner[3] == 0
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def _rewrite_csv(src, dst, edit):
    with open(src) as f:
        lines = f.read().splitlines()
    with open(dst, "w") as f:
        f.write("\n".join(edit(lines)) + "\n")


def test_sweep_check_counts_corrupted_rows(tmp_path):
    spec = inputs.generate("sweep", 0, str(tmp_path))
    good = tmp_path / "good.csv"
    shutil.copy(spec["reference_csv"], good)
    assert checks.check_sweep(good, spec)[:2] == (1681, 0)

    def nudge(lines):
        cells = lines[100].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-5))
        lines[100] = ",".join(cells)
        return lines

    bad = tmp_path / "bad.csv"
    _rewrite_csv(good, bad, nudge)
    assert checks.check_sweep(bad, spec)[:2] == (1681, 1)
    _rewrite_csv(good, bad, lambda lines: lines[:-3])
    assert checks.check_sweep(bad, spec)[:2] == (1681, 3)


def _trajectory(path, final_p):
    with open(path, "w") as f:
        f.write("t,P_1,P_2,P_3,P_4,lambda,total_utility,V\n")
        f.write("0,0.2,0.5,0.5,0.5,0,1,1\n")
        f.write("25000," + ",".join(repr(float(x)) for x in final_p) + ",0.27,1,0\n")


def test_primal_dual_check_flags_gap_and_unconverged(tmp_path):
    spec = inputs.generate("pd", 1, str(tmp_path))
    path = tmp_path / "traj.csv"
    _trajectory(path, spec["p_star"])
    assert checks.check_primal_dual(path, "converged: True\n", spec)[:2] == (1, 0)
    assert checks.check_primal_dual(path, "converged: False\n", spec)[:2] == (1, 1)
    _trajectory(path, np.array(spec["p_star"]) - [0.01, 0, 0, 0])
    assert checks.check_primal_dual(path, "converged: True\n", spec)[:2] == (1, 1)
    _rewrite_csv(path, path, lambda lines: lines + ["garbage"])
    assert checks.check_primal_dual(path, "converged: True\n", spec)[:2] == (1, 1)


def _root(f, lo, hi):
    """Root of a decreasing f on [lo, hi] by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_many_users_check_flags_a_non_optimal_allocation(tmp_path):
    w = np.array([0.2, 0.5, 0.9])
    delta = np.array([50.0, 200.0, 800.0])
    pc, lam = 0.1, 0.3
    grad = checks._marginal_utility
    caps = np.array([_root(lambda p: grad(p, w[i], pc, delta[i]), 1e-9, 1.0) for i in range(3)])
    p = np.array([_root(lambda x: grad(x, w[i], pc, delta[i]) - lam, 1e-9, caps[i]) for i in range(3)])
    spec = {"w": w, "delta": delta, "p_circuit": pc, "p_max": 1.0, "p_sum_max": float(p.sum())}

    def write(powers):
        path = tmp_path / "solve.csv"
        with open(path, "w") as f:
            f.write("user,P_watts,P_u_watts,SE,EE,U\n")
            for i in range(3):
                f.write(f"{i + 1},{powers[i]:.12g},{caps[i]:.12g},0,0,0\n")
        return path

    assert checks.check_many_users(write(p), spec)[:2] == (1, 0)
    shifted = p + np.array([1e-6, -1e-6, 0.0])
    assert checks.check_many_users(write(shifted), spec)[:2] == (1, 1)


def test_corrupted_output_counts_as_failed(tmp_path):
    spec = inputs.generate("sweep", 0, str(tmp_path))
    _rewrite_csv(spec["reference_csv"], tmp_path / "sweep.csv", lambda lines: lines[:-1])
    assert run.check_outputs("sweep", spec, str(tmp_path), {})[:2] == (1681, 1)


def test_inputs_follow_the_seed(tmp_path):
    texts = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        spec = inputs.generate("pd", seed, str(tmp_path / name))
        texts[name] = [open(path).read() for path in spec["scenarios"]]
    assert texts["a"] == texts["b"]
    assert texts["a"][0] == texts["c"][0]  # the default start
    assert texts["a"][1:] != texts["c"][1:]
