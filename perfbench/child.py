"""One benchmark process: dgalab set-up, then the measured repetitions.

run.py starts this script with the path of a JSON spec and reads the JSON
result it writes.  Every dgalab command runs in this process through
``dgalab.cli.main(argv)``; the timings are taken around those calls.  The
set-up time runs from the start of this script, so it includes importing
dgalab and numpy and the first BLAS calls.

Usage: python3 perfbench/child.py SPEC.json
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as W  # noqa: E402

_STOPPED = re.compile(r"(\d+) register calls; stopped: (\w+)")


class Run:
    """Collects the checks and output digests of this process."""

    def __init__(self, main):
        self.main = main
        self.checks: list[tuple[str, bool, str]] = []
        self.digests: dict[str, list[str]] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return ok

    def digest(self, label: str, path: Path) -> None:
        if path.is_file():
            h = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            h = "missing"
        self.digests.setdefault(label, []).append(h)

    def cli(self, phase: str, argv, stdout_path=None):
        """Run one dgalab command; returns (ok, stderr text, seconds)."""
        err = io.StringIO()
        out = open(stdout_path, "w", encoding="utf-8") if stdout_path \
            else io.StringIO()
        with out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.main(argv)
            except Exception as exc:        # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        err = err.getvalue()
        last = err.strip().splitlines()[-1:] or [""]
        ok = self.check(f"{phase}.exit", code == 0, f"exit {code}: {last[0]}")
        return ok, err, seconds


def _column(path: Path, column: str) -> list[float]:
    lines = path.read_text("utf-8").splitlines()
    col = lines[0].split("\t").index(column)
    return [float(line.split("\t")[col]) for line in lines[1:]]


def _in_unit(values) -> bool:
    return bool(values) and all(math.isfinite(v) and 0.0 <= v <= 1.0
                                for v in values)


def setup(run: Run, spec, d: Path) -> None:
    for phase, argv in W.setup_commands(spec["workload"], spec["size"],
                                        spec["seed"], d):
        run.cli(phase, argv)
    if W.detector_kind(spec["workload"]):
        metrics = d / "det" / "metrics.tsv"
        run.check("detector-train.auc_in_unit",
                  metrics.is_file() and _in_unit(_column(metrics, "auc")))
        run.digest("detector.ckpt", d / "det" / "detector.ckpt")
    run.digest("benign.txt", d / "prep" / "benign.txt")


def evasion_rep(run: Run, spec, d: Path, rep: Path, cfg: Path, valid):
    workload, size = spec["workload"], spec["size"]
    phases, result = {}, {}
    for phase, argv in W.measured_commands(workload, size, spec["seed"], d,
                                           rep, cfg):
        ok, err, seconds = run.cli(phase, argv, rep / "names.txt"
                                   if phase == "generate" else None)
        phases[phase] = seconds
        if phase == "train":
            found = _STOPPED.search(err)
            calls = int(found.group(1)) if found else 0
            result["register_calls"] = calls
            run.check("train.stopped_epochs",
                      found is not None and found.group(2) == "epochs",
                      found.group(0) if found else "no summary line")
            curve = rep / "rl" / "reward_curve.tsv"
            rewards = _column(curve, "mean_reward") if curve.is_file() else []
            gain = max(rewards) - rewards[0] if rewards else float("nan")
            result["reward_gain"] = gain
            need = W.MIN_REWARD_GAIN.get((size, workload))
            if need is not None:
                run.check("train.reward_gain", gain >= need,
                          f"best - first = {gain:.3f}, need >= {need}")
            run.digest("reward_curve.tsv", curve)
            run.digest("policy.ckpt", rep / "rl" / "policy.ckpt")
        elif phase == "generate":
            names = (rep / "names.txt").read_text("utf-8").split() \
                if ok else []
            want = W.SIZES[size][workload]["count"]
            result["generated"] = len(names)
            run.check("generate.count", len(names) == want,
                      f"{len(names)} of {want}")
            bad = [n for n in names if not valid(n)]
            run.check("generate.valid_names", not bad and bool(names),
                      f"{len(bad)} invalid" + (f", e.g. {bad[0]!r}"
                                               if bad else ""))
            run.digest("names.txt", rep / "names.txt")
        else:
            benign = W.SIZES[size][workload]["benign"]
            result["eval_names"] = benign + result.get("generated", 0)
            summary = rep / "eval" / "summary.tsv"
            run.check("eval.auc_in_unit",
                      summary.is_file() and _in_unit(_column(summary, "auc")))
    result["phases"] = phases
    return result


def matrix_rep(run: Run, spec, d: Path, rep: Path, cfg: Path):
    (phase, argv), = W.measured_commands(spec["workload"], spec["size"],
                                         spec["seed"], d, rep, cfg)
    cpu0 = time.process_time()
    _, err, seconds = run.cli(phase, argv)
    cpu = time.process_time() - cpu0
    failed = set(re.findall(r"cell \('([\w-]+)', '(\w+)'\) failed", err))
    rows = [*W.MATRIX_DGAS, "mixed"]
    for row in rows:
        for kind in W.MATRIX_KINDS:
            run.check(f"matrix.cell.{row}.{kind}", (row, kind) not in failed)
    for kind in W.MATRIX_KINDS:
        path = rep / "matrix" / f"matrix_{kind}.tsv"
        cells = []
        if path.is_file():
            for line in path.read_text("utf-8").splitlines()[1:]:
                cells.extend(float(v) for v in line.split("\t")[1:])
        run.check(f"matrix.{kind}.cells_finite_in_unit",
                  len(cells) == len(rows) * len(W.MATRIX_DGAS)
                  and _in_unit(cells))
        run.digest(f"matrix_{kind}.tsv", path)
    return {"phases": {phase: seconds}, "cpu_s": cpu}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text("utf-8"))
    import numpy
    import dgalab.cli
    from dgalab.domains import validate_domain   # unpatched, for checks

    tracer = None
    main_fn = dgalab.cli.main
    if spec["trace"]:
        import tracer as T
        tracer = T.Tracer()
        T.install(tracer)
        main_fn = tracer.wrap(main_fn, "cli.main")
    run = Run(main_fn)
    work = Path(spec["dir"])
    d = work / "setup"
    setup(run, spec, d)
    setup_s = time.perf_counter() - START

    reps = []
    if spec["reps"]:
        cfg = work / "run.cfg"
        cfg.write_text(W.config_text(spec["workload"], spec["size"]),
                       "utf-8")
        t0 = time.perf_counter()
        while len(reps) < spec["reps"]:
            rep = work / f"rep{len(reps)}"
            rep.mkdir(parents=True, exist_ok=True)
            if spec["workload"] == "matrix-zoo":
                reps.append(matrix_rep(run, spec, d, rep, cfg))
            else:
                reps.append(evasion_rep(run, spec, d, rep, cfg,
                                        validate_domain))
            if time.perf_counter() - t0 >= spec["seconds"]:
                break

    result = {
        "setup_s": setup_s,
        "reps": reps,
        "checks": run.checks,
        "digests": run.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
    }
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans()
        tracer.write(Path(spec["spans"]), spans)
        result["layers"] = T.layer_metrics(T.stats_by_name(tracer, spans),
                                           tracer.counts())
        result["spans"] = int(len(spans["id"]))
        result["min_self_ns"] = int(spans["self_ns"].min()) \
            if len(spans["id"]) else 0
    Path(spec["result"]).write_text(json.dumps(result), "utf-8")
    return 0


def _blas(numpy) -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):          # older numpy: no dict mode
        return {"name": "unknown", "version": "unknown"}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
