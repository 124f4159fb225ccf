"""The benchmark's traced run wraps program functions by module attribute.

A name the package no longer has is skipped silently there, which would
zero that layer's figures; this test fails instead.
"""
import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


class _Recorder:
    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, attrs=None):
        self.wrapped.append((module, attr))


def test_traced_layers_exist():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    recorder = _Recorder()
    worker._install_tracer(recorder, [])
    missing = [f"{m.__name__}.{attr}" for m, attr in recorder.wrapped if not callable(getattr(m, attr, None))]
    assert recorder.wrapped
    assert not missing, f"traced layers missing from the package: {missing}"
