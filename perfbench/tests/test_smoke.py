"""Smoke test of the benchmark harness at tiny sizes.

Checks the result schema, the report and the output checks of every
workload, untraced and traced; never the timings.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(tmp_path, workload, trace):
    report_path = tmp_path / "report.json"
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds",
                "1", "--trace", str(trace), "--size", "tiny",
                "--report", str(report_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    for line in ("fail_ratio", *(m["name"] for m in wanted)):
        assert line in proc.stdout

    report = json.loads(report_path.read_text("utf-8"))
    machine = report["machine"]
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "seed",
                "pythonhashseed", "git_commit", "source_digest"):
        assert key in machine
    assert set(machine["blas_threads"].values()) == {"1"}
    checks = {c[0] for c in report["failed_checks"]}
    assert not checks
    spread = report["digest_spread"]
    if workload == "matrix-zoo":
        assert {f"matrix_{k}.tsv" for k in
                ("statistics", "fanci", "wordgraph", "neural")} <= set(spread)
    else:
        assert {"reward_curve.tsv", "policy.ckpt", "names.txt",
                "detector.ckpt"} <= set(spread)
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.spans"]["value"] > 0
        assert metrics["cli.main.calls"]["value"] >= 2


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
