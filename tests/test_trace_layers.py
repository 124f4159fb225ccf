"""The benchmark's traced run wraps program functions by module attribute.

A name the package no longer has is skipped silently there, which would
zero that layer's figures, and a counter it reads through a default would
read 0; these tests fail instead.
"""
import importlib.util
from pathlib import Path

from mupower import cli
from mupower.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recorder:
    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, attrs=None):
        self.wrapped.append((module, attr))


# Names the worker still wraps that the package dropped on purpose, each
# with its reason. An entry must stay wrapped and stay absent, so it has to
# go once the worker stops wrapping the name.
DROPPED = {
    "mupower.primal_dual.utility_grad": "integrate computes U' on floats and calls no utility_grad",
    "mupower.cli.summarize": "cmd_solve calls utility and jain_index directly",
    "mupower.scenario.compute_effective_gains": "build_scenario takes diag((H^H H)^-1) from its cache or "
                                                "channel._gram_diag, and divides by sigma2 itself",
}


def test_traced_layers_exist():
    worker = _bench_module("worker")
    recorder = _Recorder()
    worker._install_tracer(recorder, [])
    wrapped = {f"{m.__name__}.{attr}": getattr(m, attr, None) for m, attr in recorder.wrapped}
    missing = [name for name, fn in wrapped.items() if not callable(fn) and name not in DROPPED]
    assert recorder.wrapped
    assert not missing, f"traced layers missing from the package: {missing}"
    for name, reason in DROPPED.items():
        assert name in wrapped, f"{name} is no longer wrapped; drop its exemption ({reason})"
        assert wrapped[name] is None, f"{name} is back in the package; drop its exemption ({reason})"


def test_traced_counters(monkeypatch, tmp_path, capsys):
    worker, spans = _bench_module("worker"), _bench_module("spans")
    recorder = _Recorder()
    worker._install_tracer(recorder, [])
    # setting each wrapped attribute to itself makes monkeypatch restore it
    for module, attr in recorder.wrapped:
        if hasattr(module, attr):  # the tracer skips a dropped name
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = spans.Tracer()
    worker._install_tracer(tracer, [])

    cli.cmd_solve(load_scenario(SCENARIOS / "fig4.yaml"))
    short = tmp_path / "fig4.yaml"
    short.write_text((SCENARIOS / "fig4.yaml").read_text() + "pd_max_steps: 500\n")
    cli.cmd_primal_dual(load_scenario(short))

    solves = [a for name, _, _, _, a in tracer.spans if name == "solver.solve_centralized"]
    runs = [a for name, _, _, _, a in tracer.spans if name == "primal_dual.integrate"]
    # one solve by cmd_solve, one reference solve by cmd_primal_dual
    assert [(a["case"], a["newton"], a["refine"]) for a in solves] == [("sum_tight", 0, 8)] * 2
    assert [(a["steps"], a["uplink"]) for a in runs] == [(500, 2000)]
