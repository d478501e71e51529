"""The names outside code reaches into: the package exports and the
functions the benchmark's tracer wraps (perfbench/tracer.py), and the
modules importing the CLI loads."""

import importlib

import dgalab
from conftest import REPO_ROOT, python_subprocess


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


def test_cli_import_leaves_kind_modules_lazy():
    # the kind table names classes so that no kind's module loads before a
    # detector of that kind is trained or loaded
    lazy = [f"dgalab.detectors.{name}" for name in
            ("statistics", "fanci", "wordgraph", "neural", "forest")]
    proc = python_subprocess(["-c", "import sys, dgalab.cli\n"
                              f"print([m for m in {lazy!r} "
                              "if m in sys.modules])"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
