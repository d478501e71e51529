"""dgalab benchmark: times each workload end to end and, in a traced run,
per layer.

Run from the root of a dgalab source tree:

    python3 perfbench/run.py --workload evasion-neural --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload,
                                                         # untraced + traced

Each workload is the sequence of ``dgalab`` commands in workloads.py, run in
a child process (child.py) with the workload seed as ``--seed``.  Children
get ``PYTHONPATH=src``, one BLAS thread and a fresh random
``PYTHONHASHSEED``, which is recorded, never pinned.

``--trace 0`` starts SETUP_REPEATS children that each set up from a cold
start; ``setup_s`` is their median.  The last one then repeats the measured
commands until ``--seconds`` have passed and reports medians over the
repetitions.  ``--trace 1`` runs one untraced and one traced child, each
with one repetition; the per-layer metrics come from the traced one, the
tracing overhead is the difference of their ``wall_s``.

Output checks (command exit codes, ``stopped: epochs``, valid generated
names, AUCs in [0, 1], matrix cells, identical output digests) count into
``attempted`` and ``failed``.  Digests are also compared with earlier runs
of the same source tree, workload, size and seed, kept in
``.perfbench/digests.json``.  ``matrix_fanci.tsv`` is exempt: FANCI's
entropy feature depends on PYTHONHASHSEED, a known defect, so its distinct
digest count is reported instead.

Human-readable lines go to stdout; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
DEADLINE_S = 175.0                   # a run must end within 180 s
KNOWN_NONDETERMINISTIC = {"matrix_fanci.tsv"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "dgalab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    def __init__(self, root: Path, args, deadline: float):
        self.root = root
        self.args = args
        self.deadline = deadline
        self.work = root / ".perfbench" / f"run-{os.getpid()}"

    def child(self, name: str, reps: int, trace: bool) -> dict:
        d = self.work / name
        d.mkdir(parents=True)
        spec = {"workload": self.args.workload, "size": self.args.size,
                "seed": self.args.seed, "seconds": self.args.seconds,
                "reps": reps, "trace": trace, "dir": str(d),
                "result": str(d / "result.json"),
                "spans": str(self.work.parent / f"spans-{self.args.workload}"
                             f"-{self.args.size}.npz")}
        (d / "spec.json").write_text(json.dumps(spec), "utf-8")
        hash_seed = random.SystemRandom().randrange(1, 2 ** 32)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = str(hash_seed)
        env.update({k: "1" for k in BLAS_ENV})
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        with open(d / "log.txt", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(d / "spec.json")],
                cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"child {name} ran out of time") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result = d / "result.json"
        if code != 0 or not result.is_file():
            tail = (d / "log.txt").read_text("utf-8")[-2000:]
            raise BenchError(f"child {name} exited {code}:\n{tail}")
        out = json.loads(result.read_text("utf-8"))
        out["hash_seed"] = hash_seed
        return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _rates(reps) -> dict:
    def rate(count_key, phase):
        return _median([r[count_key] / r["phases"][phase] for r in reps
                        if count_key in r and r["phases"].get(phase)])
    return {"register_calls_per_s": rate("register_calls", "train"),
            "generate_names_per_s": rate("generated", "generate"),
            "eval_names_per_s": rate("eval_names", "eval")}


def _wall(reps) -> float:
    return _median([sum(r["phases"].values()) for r in reps])


def _cpu_per_wall(reps) -> float:
    return _median([r["cpu_s"] / r["phases"]["matrix"] for r in reps
                    if "cpu_s" in r])


class Ledger:
    """Output digests of earlier runs, per source tree, size, workload and
    seed, so determinism is checked across processes and hash seeds."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key
        try:
            self.data = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            self.data = {}

    def merge(self, digests: dict) -> dict:
        seen = self.data.setdefault(self.key, {})
        out = {}
        for label, values in digests.items():
            prior = set(seen.get(label, []))
            merged = prior | set(values)
            seen[label] = sorted(merged)
            out[label] = {"this_run": len(set(values)),
                          "prior_runs_distinct": len(prior),
                          "distinct": len(merged)}
        return out

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True),
                       "utf-8")
        os.replace(tmp, self.path)


def run_workload(root: Path, args, spec) -> dict:
    """One run of one workload; returns the full report."""
    started = time.monotonic()
    runner = Runner(root, args, started + DEADLINE_S)
    children = {}
    try:
        if args.trace:
            children["untraced"] = runner.child("untraced", 1, False)
            children["traced"] = runner.child("traced", 1, True)
            measured = children["untraced"]
        else:
            for i in range(W.SETUP_REPEATS - 1):
                children[f"setup{i}"] = runner.child(f"setup{i}", 0, False)
            measured = children["measure"] = runner.child("measure", 10 ** 6,
                                                          False)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    checks = [c for ch in children.values() for c in ch["checks"]]
    digests: dict[str, list[str]] = {}
    for ch in children.values():
        for label, values in ch["digests"].items():
            digests.setdefault(label, []).extend(values)
    src = source_digest(root)
    ledger = Ledger(root / ".perfbench" / "digests.json",
                    f"{src}/{args.size}/{args.workload}/{args.seed}")
    spread = ledger.merge(digests)
    ledger.save()
    for label, s in sorted(spread.items()):
        if label not in KNOWN_NONDETERMINISTIC:
            checks.append([f"digest.{label}.identical", s["distinct"] == 1,
                           f"{s['distinct']} distinct"])

    reps = measured["reps"]
    rates = _rates(reps)
    if args.trace:
        traced = children["traced"]
        checks.append(["trace.self_time_nonnegative",
                       traced["min_self_ns"] >= 0,
                       f"min self {traced['min_self_ns']} ns"])
        metrics = dict(traced["layers"])
        metrics.update(rates)
        metrics["evaluation.matrix.cpu_per_wall"] = _cpu_per_wall(reps)
        metrics["trace.wall_s"] = _wall(traced["reps"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _wall(reps)
        metrics["trace.spans"] = traced["spans"]
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": _median([ch["setup_s"] for ch in children.values()]),
            "wall_s": _wall(reps),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        raise BenchError(f"metrics {sorted(metrics)} != spec {sorted(names)}")
    failed = sum(1 for c in checks if not c[1])
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "detail": {
            "setup_s_samples": [ch["setup_s"] for ch in children.values()],
            "reps": reps, **({} if args.trace else rates),
            "fail_ratio": failed / len(checks),
        },
        "attempted": len(checks), "failed": failed,
        "failed_checks": [c for c in checks if not c[1]],
        "digest_spread": spread,
        "machine": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": measured["numpy"], "blas": measured["blas"],
            "blas_threads": {k: "1" for k in BLAS_ENV},
            "matrix_threads": W.MATRIX_THREADS,
            "git_commit": git_commit(root), "source_digest": src,
            "seed": args.seed,
            "pythonhashseed": {k: ch["hash_seed"]
                               for k, ch in children.items()},
        },
        "wall_clock_s": time.monotonic() - started,
    }


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"== {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} size={report['size']} "
          f"({report['wall_clock_s']:.1f} s)")
    print(f"machine: nproc={m['nproc']} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']['name']} "
          f"{m['blas']['version']} blas_threads=1 "
          f"matrix_threads={m['matrix_threads']} "
          f"commit={m['git_commit']} source={m['source_digest'][:12]} "
          f"PYTHONHASHSEED={m['pythonhashseed']}")
    for name, v in report["metrics"].items():
        print(f"  {name:44s} {v['value']:14.6g} {v['unit']}")
    d = report["detail"]
    if W.detector_kind(report["workload"]) and not report["trace"]:
        for name in ("register_calls_per_s", "generate_names_per_s",
                     "eval_names_per_s"):
            print(f"  {name:44s} {d[name]:14.6g} 1/s")
    print(f"  {'fail_ratio':44s} {d['fail_ratio']:14.6g} "
          f"({report['failed']}/{report['attempted']})")
    for c in report["failed_checks"]:
        print(f"  FAILED {c[0]}: {c[2]}")
    for label, s in sorted(report["digest_spread"].items()):
        note = "  (known defect: FANCI entropy depends on PYTHONHASHSEED)" \
            if label in KNOWN_NONDETERMINISTIC else ""
        print(f"  digest {label}: {s['distinct']} distinct "
              f"(this run {s['this_run']}, earlier runs "
              f"{s['prior_runs_distinct']}){note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(W.SIZES), default="full")
    parser.add_argument("--report", help="also write the full report here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dgalab" / "cli.py").is_file():
        print("perfbench: run from the root of a dgalab source tree "
              "(src/dgalab/cli.py not found)", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if any(n not in known for n in names):
        parser.error(f"--workload must be one of {known} or all")

    reports = []
    try:
        for name in names:
            for trace in ((0, 1) if args.workload == "all" else
                          (args.trace,)):
                one = argparse.Namespace(**{**vars(args), "workload": name,
                                            "trace": trace})
                reports.append(run_workload(root, one, spec))
                print_report(reports[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.report:
        Path(args.report).write_text(
            json.dumps(reports if len(reports) > 1 else reports[0], indent=1),
            "utf-8")
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": reports[-1]["metrics"] if len(reports) == 1 else
        {f"{r['workload']}.{k}": v for r in reports
         for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
