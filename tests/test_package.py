"""The names outside code reaches into: the package exports and the
functions the benchmark's tracer wraps (perfbench/tracer.py)."""

import importlib

import dgalab
from conftest import REPO_ROOT


def test_every_export_resolves():
    for name in dgalab.__all__:
        assert hasattr(dgalab, name), name


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    tracer_mod = importlib.import_module("perfbench.tracer")
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert tracer._patches
    finally:
        tracer.uninstall()
    assert not tracer._patches
