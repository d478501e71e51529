"""The names outside code reaches into: the package exports, the
functions the benchmark's tracer wraps (perfbench/tracer.py) and the
command lines its workloads pass (perfbench/workloads.py), and the
modules importing the CLI loads."""

import importlib
import os

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


_EVERY_COMMAND = """
import sys
from pathlib import Path
from dgalab.cli import main
from dgalab.detectors import KINDS
d = Path(sys.argv[1])
(d / "run.cfg").write_text(
    "train.batch = 8\\ntrain.mc = 2\\ntrain.epochs = 2\\n"
    "detector.neural.epochs = 1\\ndetector.fanci.trees = 2\\n"
    "matrix.dgas = kraken\\nmatrix.detectors = statistics\\n"
    "matrix.include_mixed = false\\nmatrix.pkdga = true\\n"
    "matrix.pkdga_budget = 1000\\nmatrix.train_per_class = 100\\n"
    "matrix.eval_benign = 50\\nmatrix.eval_agd = 50\\n"
    "game.stage_budget = 1000\\ngame.fresh = 50\\n")
def run(*argv):
    assert main([str(arg) for arg in argv]) == 0, argv
cfg = ("--config", d / "run.cfg")
benign, agd = d / "prep" / "benign.txt", d / "prep" / "kraken.txt"
run("prep", "--out", d / "prep", "--benign", 300, "--agd", 300)
for kind in KINDS:
    run("detector-train", "--kind", kind, "--benign", benign, "--agd", agd,
        "--out", d / kind, *cfg)
run("train", "--env", d / "neural" / "detector.ckpt", "--benign", benign,
    "--out", d / "rl", *cfg)
run("generate", "--dga", "pkdga", "--ckpt", d / "rl" / "policy.ckpt",
    "--count", 60)
run("generate", "--dga", "gozi", "--count", 10)
run("eval", "--detector", d / "fanci" / "detector.ckpt", "--benign", benign,
    "--agd", agd, "--out", d / "eval")
run("matrix", "--benign", benign, "--out", d / "matrix", *cfg)
run("game", "--detector", d / "neural" / "detector.ckpt", "--benign",
    benign, "--stages", 1, "--out", d / "game", *cfg)
print("numpy.random" in sys.modules)
"""


def test_no_command_imports_numpy_random(tmp_path):
    # every draw comes from rng's own Philox; numpy.random is a test oracle
    one_cpu = {min(os.sched_getaffinity(0))}      # a one-worker matrix
    proc = python_subprocess(["-c", _EVERY_COMMAND, str(tmp_path)],
                             preexec_fn=lambda: os.sched_setaffinity(
                                 0, one_cpu))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
