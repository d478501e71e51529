"""The benchmark's workloads, written as the ``dgalab`` command lines a
researcher would type.

Each workload has a set-up part (timed as ``setup_s``) and a measured part
(timed as ``wall_s``).  Every command gets the workload seed as ``--seed``.
``full`` is the size the benchmark measures; ``tiny`` exists only for the
smoke test, which checks the report and the output checks, not timings.

This module imports nothing from dgalab, so run.py can use it without the
package being importable.
"""

from __future__ import annotations

from pathlib import Path

SETUP_REPEATS = 3        # fresh processes per run whose set-up is timed
MATRIX_THREADS = 2       # matrix worker threads; BLAS runs one thread each
MATRIX_KINDS = ("statistics", "fanci", "wordgraph", "neural")
MATRIX_DGAS = ("kraken", "gozi", "suppobox")

SIZES = {
    "full": {
        "evasion-neural": {"benign": 5000, "agd": 5000, "batch": 32,
                           "mc": 3, "epochs": 150, "count": 15000},
        "evasion-statistics": {"benign": 5000, "agd": 5000, "batch": 32,
                               "mc": 3, "epochs": 20, "count": 5000},
        "matrix-zoo": {"benign": 5000, "agd": 5000, "per_class": 2000,
                       "eval": 400},
    },
    "tiny": {
        "evasion-neural": {"benign": 300, "agd": 300, "batch": 8,
                           "mc": 2, "epochs": 3, "count": 200},
        "evasion-statistics": {"benign": 300, "agd": 300, "batch": 8,
                               "mc": 2, "epochs": 2, "count": 100},
        "matrix-zoo": {"benign": 400, "agd": 100, "per_class": 100,
                       "eval": 50},
    },
}

# The headline experiment must actually evade: best reward minus the
# first epoch's reward (the rule of acceptance criterion 4).
MIN_REWARD_GAIN = {("full", "evasion-neural"): 0.3}


def detector_kind(workload: str) -> str | None:
    return {"evasion-neural": "neural",
            "evasion-statistics": "statistics"}.get(workload)


def config_text(workload: str, size: str) -> str:
    p = SIZES[size][workload]
    if workload == "matrix-zoo":
        return (f"matrix.dgas = {','.join(MATRIX_DGAS)}\n"
                f"matrix.include_mixed = true\n"
                f"matrix.detectors = {','.join(MATRIX_KINDS)}\n"
                f"matrix.pkdga = false\n"
                f"matrix.train_per_class = {p['per_class']}\n"
                f"matrix.eval_benign = {p['eval']}\n"
                f"matrix.eval_agd = {p['eval']}\n")
    return (f"train.batch = {p['batch']}\ntrain.mc = {p['mc']}\n"
            f"train.length = 10\ntrain.epochs = {p['epochs']}\n")


def setup_commands(workload: str, size: str, seed: int,
                   d: Path) -> list[tuple[str, list[str]]]:
    """(phase, argv) pairs that build the inputs of the measured part."""
    p = SIZES[size][workload]
    s = str(seed)
    cmds = [("prep", ["prep", "--out", str(d / "prep"), "--benign",
                      str(p["benign"]), "--agd", str(p["agd"]),
                      "--dga", "kraken", "--seed", s])]
    kind = detector_kind(workload)
    if kind:
        cmds.append(("detector-train",
                     ["detector-train", "--kind", kind,
                      "--benign", str(d / "prep" / "benign.txt"),
                      "--agd", str(d / "prep" / "kraken.txt"),
                      "--out", str(d / "det"), "--seed", s]))
    return cmds


def measured_commands(workload: str, size: str, seed: int, setup: Path,
                      rep: Path, cfg: Path) -> list[tuple[str, list[str]]]:
    """(phase, argv) pairs of one measured repetition; ``generate`` writes
    its names to ``rep / "names.txt"``."""
    p = SIZES[size][workload]
    s = str(seed)
    benign = str(setup / "prep" / "benign.txt")
    if workload == "matrix-zoo":
        return [("matrix", ["matrix", "--benign", benign, "--config",
                            str(cfg), "--out", str(rep / "matrix"),
                            "--seed", s, "--threads", str(MATRIX_THREADS)])]
    det = str(setup / "det" / "detector.ckpt")
    return [
        ("train", ["train", "--env", det, "--benign", benign, "--config",
                   str(cfg), "--out", str(rep / "rl"), "--seed", s]),
        ("generate", ["generate", "--dga", "pkdga", "--ckpt",
                      str(rep / "rl" / "policy.ckpt"), "--count",
                      str(p["count"]), "--config", str(cfg), "--seed", s]),
        ("eval", ["eval", "--detector", det, "--benign", benign, "--agd",
                  str(rep / "names.txt"), "--out", str(rep / "eval"),
                  "--seed", s]),
    ]
