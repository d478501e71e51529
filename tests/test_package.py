"""The names outside code reaches into: the package exports, the
functions the benchmark's tracer wraps (perfbench/tracer.py) and the
command lines its workloads pass (perfbench/workloads.py), and the
modules importing the CLI loads."""

import importlib

import dgalab
from dgalab import cli
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


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # only parsed, not run: a CLI change that breaks the benchmark's
    # command lines fails here, not first in the benchmark's smoke test
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    parser = cli._build_parser()
    for workload in workloads.SIZES["tiny"]:
        commands = [
            *workloads.setup_commands(workload, "tiny", 1, tmp_path),
            *workloads.measured_commands(workload, "tiny", 1, tmp_path,
                                         tmp_path / "rep",
                                         tmp_path / "run.cfg")]
        for phase, argv in commands:
            assert parser.parse_args(argv).command == phase, (workload, argv)


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
