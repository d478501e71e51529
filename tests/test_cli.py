import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from dgalab import checkpoint, cli, evaluation, policy, training
from dgalab.baselines import FAMILIES
from dgalab.cli import DGA_NAMES, main
from dgalab.config import parse_config, sha256_file
from dgalab.corpora import LabeledCorpus
from dgalab.detectors import KINDS, train_detector
from dgalab.detectors.base import KIND_TABLE
from dgalab.dnsenv import FeedbackEnv
from dgalab.errors import ContractError, DataError
from conftest import (cli_subprocess, count_validations, python_subprocess,
                      read_manifest)

RUN_CFG = """
train.lr = 1.0
train.batch = 8
train.mc = 2
train.length = 10
train.epochs = 8
env.budget = 20000
detector.neural.epochs = 3
"""


# a small matrix over the workspace's 300 benign names, without pkdga cells
MATRIX_CFG = ("matrix.dgas = kraken\nmatrix.pkdga = false\n"
              "matrix.train_per_class = 100\nmatrix.eval_benign = 50\n"
              "matrix.eval_agd = 50\n")


def run_cli(*argv):
    """In-process invocation; returns (exit code, stdout text)."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cfg = root / "run.cfg"
    cfg.write_text(RUN_CFG)
    code, _ = run_cli("prep", "--out", str(root / "prep"), "--benign", "300",
                      "--agd", "300", "--dga", "kraken", "--seed", "1")
    assert code == 0
    code, _ = run_cli("detector-train", "--kind", "neural",
                      "--benign", str(root / "prep" / "benign.txt"),
                      "--agd", str(root / "prep" / "kraken.txt"),
                      "--out", str(root / "det"),
                      "--config", str(cfg), "--seed", "3")
    assert code == 0
    return root


@pytest.fixture(scope="module")
def statistics_ckpt(workspace):
    code, _ = run_cli("detector-train", "--kind", "statistics",
                      "--benign", str(workspace / "prep" / "benign.txt"),
                      "--agd", str(workspace / "prep" / "kraken.txt"),
                      "--out", str(workspace / "stat"), "--seed", "3")
    assert code == 0
    return workspace / "stat" / "detector.ckpt"


@pytest.fixture(scope="module")
def fanci_ckpt(workspace):
    cfg = workspace / "fanci.cfg"
    cfg.write_text("detector.fanci.trees = 3\n")
    code, _ = run_cli("detector-train", "--kind", "fanci",
                      "--benign", str(workspace / "prep" / "benign.txt"),
                      "--agd", str(workspace / "prep" / "kraken.txt"),
                      "--out", str(workspace / "fanci"), "--config", str(cfg),
                      "--seed", "3")
    assert code == 0
    return workspace / "fanci" / "detector.ckpt"


def resaved(ckpt, path, damage):
    """Copy of a checkpoint whose records went through ``damage``."""
    kind_id, blobs = checkpoint.load_blobs(ckpt)
    damage(blobs)
    checkpoint.save_blobs(path, kind_id, blobs)
    return path


def tiny_policy(path, damage=None):
    params = policy.init_params(1, 4, 6, 37, rng_seed=0)
    if damage:
        damage(params)
    checkpoint.save_policy(path, params, 10)
    return path


def generate_damaged(ckpt, capsys):
    """Run ``generate --dga pkdga`` on a damaged policy; (exit code, stderr
    lines)."""
    capsys.readouterr()
    code, _ = run_cli("generate", "--dga", "pkdga", "--ckpt", str(ckpt),
                      "--count", "3")
    return code, capsys.readouterr().err.splitlines()


def eval_damaged(workspace, ckpt, capsys):
    """Run ``eval`` on a damaged checkpoint; (exit code, stderr lines)."""
    capsys.readouterr()
    code, _ = run_cli("eval", "--detector", str(ckpt),
                      "--benign", str(workspace / "prep" / "benign.txt"),
                      "--agd", str(workspace / "prep" / "kraken.txt"),
                      "--out", str(ckpt.parent / "eval"))
    return code, capsys.readouterr().err.splitlines()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        code, _ = run_cli("generate", "--nonsense")
        assert code == 1

    @pytest.mark.parametrize("command", [
        "prep", "detector-train", "train", "generate", "eval", "game",
        "bench"])
    def test_only_matrix_takes_threads(self, command, tmp_path, capsys):
        # the required options, so that --threads is the only error
        argv = {
            "prep": [],
            "detector-train": ["--kind", "statistics", "--benign", "b.txt",
                               "--agd", "a.txt"],
            "train": ["--env", "d.ckpt", "--benign", "b.txt"],
            "generate": ["--dga", "kraken"],
            "eval": ["--detector", "d.ckpt", "--benign", "b.txt",
                     "--agd", "a.txt"],
            "game": ["--detector", "d.ckpt", "--benign", "b.txt"],
            "bench": ["--ckpt", "p.ckpt"],
        }[command]
        capsys.readouterr()
        out = tmp_path / "out"
        code, _ = run_cli(command, *argv, "--out", str(out),
                          "--threads", "2")
        assert code == 1
        assert usage_errors(capsys) == [
            "usage error: unrecognized arguments: --threads 2"]
        assert not out.exists()

    def test_missing_subcommand(self):
        code, _ = run_cli()
        assert code == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        capsys.readouterr()
        code, _ = run_cli("eval", "--detector", "nope.ckpt",
                          "--benign", "nope.txt", "--agd", "nope.txt",
                          "--out", str(tmp_path / "x"))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: input file not found: nope.ckpt"]
        assert not (tmp_path / "x").exists()
        # a bad config is reported before a missing input
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train.epoch = 1\n")
        code, _ = run_cli("eval", "--detector", "nope.ckpt",
                          "--benign", "nope.txt", "--agd", "nope.txt",
                          "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "usage error: config key 'train.epoch' is not read by any command"]
        assert not (tmp_path / "x").exists()


    def test_benign_file_not_utf8(self, workspace, statistics_ckpt,
                                  tmp_path, capsys):
        benign = tmp_path / "benign.txt"
        benign.write_bytes(b"example.com\n\xffbad.com\n")
        capsys.readouterr()
        code, _ = run_cli("eval", "--detector", str(statistics_ckpt),
                          "--benign", str(benign),
                          "--agd", str(workspace / "prep" / "kraken.txt"),
                          "--out", str(tmp_path / "eval"))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {benign}: not UTF-8 text (byte 12)"]

    def test_truncated_statistics_checkpoint(self, workspace,
                                             statistics_ckpt, tmp_path,
                                             capsys):
        cut = tmp_path / "half.ckpt"
        blob = statistics_ckpt.read_bytes()
        cut.write_bytes(blob[:len(blob) // 2])
        code, err = eval_damaged(workspace, cut, capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("data error: ")

    def test_over_long_edit_ref(self, workspace, statistics_ckpt, tmp_path,
                                capsys):
        def lengthen(blobs):
            blobs["edit_refs"] = b"a" * 25 + b"\n" + blobs["edit_refs"]
        bad = resaved(statistics_ckpt, tmp_path / "long.ckpt", lengthen)
        code, err = eval_damaged(workspace, bad, capsys)
        assert code == 2
        assert len(err) == 1 and "longer than 24" in err[0]

    def test_truncated_policy(self, tmp_path, capsys):
        ckpt = tiny_policy(tmp_path / "p.ckpt")
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        code, err = generate_damaged(ckpt, capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("data error: ")

    def test_version_1_policy(self, tmp_path, capsys):
        ckpt = tmp_path / "v1.ckpt"
        ckpt.write_bytes(b"PKDG" + struct.pack("<H4I", 1, 1, 4, 6, 37)
                         + bytes(64))
        code, err = generate_damaged(ckpt, capsys)
        assert code == 2
        assert len(err) == 1 and "version 1" in err[0]

    def test_policy_with_nan_weight(self, tmp_path, capsys):
        def poison(params):
            params.w_out[0, 0] = np.nan
        ckpt = tiny_policy(tmp_path / "p.ckpt", poison)
        code, err = generate_damaged(ckpt, capsys)
        assert code == 3
        assert len(err) == 1 and err[0].startswith("numeric abort: ")

    @pytest.mark.parametrize("command", [
        ["generate", "--dga", "pkdga", "--count", "3"],
        ["bench", "--batches", "2", "--out", "bench"]])
    def test_policy_over_another_alphabet(self, command, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        ckpt = tmp_path / "p5.ckpt"
        checkpoint.save_policy(ckpt, policy.init_params(1, 4, 6, 5,
                                                        rng_seed=0), 10)
        capsys.readouterr()
        code, out = run_cli(*command, "--ckpt", str(ckpt))
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and out == ""
        assert err == [f"data error: {ckpt}: bad policy dims [1, 4, 6, 5, 10]"]

    def test_fanci_without_prob(self, workspace, fanci_ckpt, tmp_path,
                                capsys):
        bad = resaved(fanci_ckpt, tmp_path / "bad.ckpt",
                      lambda b: b.pop("prob"))
        code, err = eval_damaged(workspace, bad, capsys)
        assert code == 2
        assert len(err) == 1 and "'prob' is missing" in err[0]

    def test_neural_with_short_weight(self, workspace, tmp_path, capsys):
        def shorten(blobs):
            blobs["s0.l0.w_h"] = blobs["s0.l0.w_h"][:-1]
        bad = resaved(workspace / "det" / "detector.ckpt",
                      tmp_path / "bad.ckpt", shorten)
        code, err = eval_damaged(workspace, bad, capsys)
        assert code == 2
        assert len(err) == 1 and "'s0.l0.w_h' holds" in err[0]

    @pytest.mark.parametrize("threshold", [1.5, -0.5])
    @pytest.mark.parametrize("command, flag", [
        ("train", "--env"), ("eval", "--detector"), ("game", "--detector")])
    def test_threshold_outside_unit_interval(self, command, flag, threshold,
                                             workspace, tmp_path, capsys):
        # a verdict at 1.5 rejects every name, so train would score every
        # epoch at reward 0 and exit 0
        def move(blobs):
            blobs["threshold"] = np.array([threshold], dtype=np.float32)
        bad = resaved(workspace / "det" / "detector.ckpt",
                      tmp_path / "bad.ckpt", move)
        prep = workspace / "prep"
        extra = {"train": [], "eval": ["--agd", str(prep / "kraken.txt")],
                 "game": ["--stages", "1"]}[command]
        capsys.readouterr()
        code, _ = run_cli(command, flag, str(bad), *extra,
                          "--benign", str(prep / "benign.txt"),
                          "--config", str(workspace / "run.cfg"),
                          "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {bad}: threshold {threshold} outside [0, 1]"]

    def test_unknown_matrix_detector(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("matrix.detectors = statistics,bogus\n"
                       "matrix.pkdga = false\n")
        capsys.readouterr()
        code, _ = run_cli("matrix", "--benign",
                          str(workspace / "prep" / "benign.txt"), "--config",
                          str(cfg), "--out", str(tmp_path / "mx"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["data error: matrix.detectors: unknown detector kind "
                       "'bogus'"]
        assert not list((tmp_path / "mx").glob("matrix_*.tsv"))

    def test_cyclic_fanci_tree(self, workspace, fanci_ckpt, tmp_path,
                               capsys):
        def cycle(blobs):
            blobs["left"][0] = blobs["right"][0] = 0
        bad = resaved(fanci_ckpt, tmp_path / "bad.ckpt", cycle)
        code, err = eval_damaged(workspace, bad, capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("data error: ")

    def test_bad_start_date(self, tmp_path, capsys):
        capsys.readouterr()
        code, out = run_cli("generate", "--dga", "pkdga", "--ckpt",
                            str(tiny_policy(tmp_path / "p.ckpt")),
                            "--start-date", "2030-13-45")
        assert code == 1 and out == ""
        assert usage_errors(capsys) == [
            "usage error: argument --start-date: expected a YYYY-MM-DD "
            "date, got '2030-13-45'"]

    @pytest.mark.parametrize("batches,bad", [("8,x", "x"), ("0", "0"),
                                             ("-3", "-3"), ("8,,32", "")])
    def test_bad_bench_batches(self, batches, bad, tmp_path, capsys):
        capsys.readouterr()
        code, _ = run_cli("bench", "--ckpt",
                          str(tiny_policy(tmp_path / "p.ckpt")),
                          "--batches", batches, "--out", str(tmp_path / "b"))
        assert code == 1
        assert usage_errors(capsys) == [
            "usage error: argument --batches: expected a positive integer, "
            f"got {bad!r}"]
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_prep_benign_below_one(self, count, tmp_path, capsys):
        capsys.readouterr()
        code, _ = run_cli("prep", "--out", str(tmp_path / "prep"),
                          "--benign", count, "--agd", "50")
        assert code == 1
        assert usage_errors(capsys) == [
            "usage error: argument --benign: expected a positive integer, "
            f"got {count!r}"]
        assert not (tmp_path / "prep").exists()

    @pytest.mark.parametrize("stages", ["-3", "-1", "x"])
    def test_bad_game_stages(self, stages, workspace, tmp_path, capsys):
        # a negative count would run stage 0 alone
        capsys.readouterr()
        code, _ = run_cli("game", "--detector",
                          str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--stages", stages, "--out", str(tmp_path / "g"))
        assert code == 1
        assert usage_errors(capsys) == [
            "usage error: argument --stages: expected a non-negative "
            f"integer, got {stages!r}"]
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("command", ["detector-train", "game"])
    def test_neural_overflow_is_numeric_abort(self, command, workspace,
                                              tmp_path, capsys):
        # at this rate training overflows float32; the weights it leaves
        # score at chance
        prep = workspace / "prep"
        cfg = tmp_path / "ovf.cfg"
        if command == "detector-train":
            cfg.write_text("detector.neural.lr = 1e30\n"
                           "detector.neural.epochs = 1\n")
            args = ["--kind", "neural", "--agd", str(prep / "kraken.txt")]
            written = ["detector.ckpt", "metrics.tsv"]
        else:
            cfg.write_text("train.batch = 8\ntrain.mc = 2\n"
                           "train.length = 10\ntrain.epochs = 2\n"
                           "game.stage_budget = 2000\ngame.fresh = 50\n"
                           "game.incr_lr = 1e30\n")
            args = ["--detector", str(workspace / "det" / "detector.ckpt"),
                    "--stages", "1"]
            written = ["stages.tsv"]
        capsys.readouterr()
        code, _ = run_cli(command, *args, "--benign", str(prep / "benign.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith(
            "numeric abort: neural detector training: overflow")
        assert err[0].endswith("lower detector.neural.lr or game.incr_lr")
        assert not any((tmp_path / "o" / name).exists() for name in written)

    @pytest.mark.parametrize("line", ["train.epoch = 1",
                                      "train.reward_mode = shaped",
                                      "train.reward_mode = binary",
                                      "detector.neural.epoch = 1",
                                      "detector.epoch = 1",
                                      "detector.fanci.epochs = 1",
                                      "detector.forest.trees = 1",
                                      "detector.neural = 1",
                                      "detector.epochs = 1",
                                      "detector.trees = 1",
                                      "trian.epochs = 1", "Train.epochs = 1",
                                      "benign = 300"])
    def test_unknown_config_key(self, line, workspace, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(RUN_CFG + line + "\n")
        capsys.readouterr()
        code, _ = run_cli("train", "--env",
                          str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "rl"))
        key = line.split(" = ")[0]
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: config key {key!r} is not read by any command"]
        assert not (tmp_path / "rl").exists()

    def test_misspelled_boolean(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        # a matrix that would run; the misspelling must stop it first
        cfg.write_text("matrix.include_mixed = ture\nmatrix.pkdga = false\n"
                       "matrix.dgas = kraken\nmatrix.detectors = statistics\n"
                       "matrix.train_per_class = 100\nmatrix.eval_benign = 50\n"
                       "matrix.eval_agd = 50\n")
        capsys.readouterr()
        code, _ = run_cli("matrix", "--benign",
                          str(workspace / "prep" / "benign.txt"), "--config",
                          str(cfg), "--out", str(tmp_path / "mx"))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: config matrix.include_mixed = 'ture': expected one "
            "of 1, true, yes, on, 0, false, no, off"]
        assert not list((tmp_path / "mx").glob("*.tsv"))

    @pytest.mark.parametrize("line,message", [
        ("detector.neural.epochs = abc", "epochs = 'abc': expected int"),
        ("detector.neural.bidirectional = maybe",
         "bidirectional = 'maybe': expected one of 1, true, yes, on, 0, "
         "false, no, off"),
        ("detector.fanci.trees = 2.5", "trees = '2.5': expected int"),
        ("detector.neural.lr = nan", "lr = 'nan': expected a finite float"),
    ])
    def test_bad_detector_hyperparameter(self, line, message, workspace,
                                         tmp_path, capsys):
        cfg = tmp_path / "hp.cfg"
        cfg.write_text(line + "\n")
        capsys.readouterr()
        code, _ = run_cli("detector-train", "--kind", line.split(".")[1],
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--agd", str(workspace / "prep" / "kraken.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: detector hyperparameter {message}"]
        assert not (tmp_path / "d" / "detector.ckpt").exists()

    @pytest.mark.parametrize("kind,line,exit_code,error", [
        ("fanci", "detector.fanci.trees = 2.5", 2,
         "data error: detector hyperparameter trees = '2.5': expected int"),
        ("fanci", "detector.fanci.trees = -1.5", 2,
         "data error: detector hyperparameter trees = '-1.5': expected int"),
        # the removed unsectioned spelling is refused as a key, just as early
        ("fanci", "detector.trees = -1.5", 1,
         "usage error: config key 'detector.trees' is not read by any "
         "command"),
        ("neural", "detector.neural.lr = nan", 2,
         "data error: detector hyperparameter lr = 'nan': "
         "expected a finite float"),
    ])
    def test_matrix_refuses_bad_hyperparameter_first(self, kind, line,
                                                      exit_code, error,
                                                      workspace, tmp_path,
                                                      capsys):
        cfg = tmp_path / "hp.cfg"
        cfg.write_text(MATRIX_CFG + f"matrix.detectors = statistics,{kind}\n"
                       f"{line}\n")
        capsys.readouterr()
        code, _ = run_cli("matrix", "--benign",
                          str(workspace / "prep" / "benign.txt"), "--config",
                          str(cfg), "--out", str(tmp_path / "mx"))
        assert code == exit_code
        assert capsys.readouterr().err.splitlines() == [error]
        assert not (tmp_path / "mx").exists()

    def test_matrix_with_failed_cells_exits_2(self, workspace, tmp_path,
                                              capsys, monkeypatch):
        # every cell fails (forked workers inherit the patch)
        def refuse(*args):
            raise DataError("refused")
        monkeypatch.setattr(evaluation, "_matrix_cell", refuse)
        cfg = tmp_path / "cells.cfg"
        cfg.write_text(MATRIX_CFG + "matrix.detectors = statistics\n")
        capsys.readouterr()
        code, _ = run_cli("matrix", "--benign",
                          str(workspace / "prep" / "benign.txt"), "--config",
                          str(cfg), "--out", str(tmp_path / "mx"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err[-1] == "data error: 2 of 2 matrix cells failed"
        assert [line.split(":")[0] for line in err[-3:-1]] == [
            "cell ('kraken', 'statistics') failed",
            "cell ('mixed', 'statistics') failed"]
        cells = (tmp_path / "mx" / "matrix_statistics.tsv").read_text()
        assert cells.splitlines()[1:] == ["kraken\tnan", "mixed\tnan"]
        assert (tmp_path / "mx" / "anti_detection_by_detector.tsv").is_file()

    def test_matrix_neural_overflow_fails_its_cells(self, workspace,
                                                   tmp_path, capsys):
        cfg = tmp_path / "ovf.cfg"
        cfg.write_text(MATRIX_CFG + "matrix.detectors = neural\n"
                       "detector.neural.lr = 1e30\n")
        capsys.readouterr()
        code, _ = run_cli("matrix", "--benign",
                          str(workspace / "prep" / "benign.txt"), "--config",
                          str(cfg), "--out", str(tmp_path / "mx"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err[-1] == "data error: 2 of 2 matrix cells failed"
        assert all("failed: NumericError(" in line
                   and "neural detector training: overflow" in line
                   for line in err[-3:-1])
        cells = (tmp_path / "mx" / "matrix_neural.tsv").read_text()
        assert cells.splitlines()[1:] == ["kraken\tnan", "mixed\tnan"]

    def test_matrix_with_dead_worker_exits_2(self, workspace, tmp_path):
        # a worker that dies takes its unfinished cells with it; the parent
        # reports them as failed cells, prints no traceback and leaves no
        # worker behind
        code = (
            "import multiprocessing, os, sys\n"
            "from dgalab import evaluation\n"
            "from dgalab.cli import main\n"
            "cell = evaluation._matrix_cell\n"
            "def dying(row, kind, *args):\n"
            "    if row == 'mixed':\n"
            "        os._exit(1)\n"
            "    return cell(row, kind, *args)\n"
            "evaluation._matrix_cell = dying\n"
            "evaluation._usable_cpus = lambda: 2\n"
            "status = main(sys.argv[1:])\n"
            "print(len(multiprocessing.active_children()))\n"
            "sys.exit(status)\n")
        cfg = tmp_path / "dead.cfg"
        cfg.write_text(MATRIX_CFG + "matrix.detectors = statistics\n")
        proc = python_subprocess(
            ["-c", code, "matrix", "--benign",
             str(workspace / "prep" / "benign.txt"), "--config", str(cfg),
             "--out", str(tmp_path / "mx")])
        err = proc.stderr.splitlines()
        assert proc.returncode == 2
        assert proc.stdout == "0\n"
        assert all(line.startswith(("wrote ", "cell ")) for line in err[:-1])
        failed = [line for line in err if line.startswith("cell ")]
        assert err[-1] == f"data error: {len(failed)} of 2 matrix cells failed"
        assert "cell ('mixed', 'statistics') failed: BrokenProcessPool(" \
            in "\n".join(failed)
        assert all(re.fullmatch(r"cell \('\w+', 'statistics'\) failed: "
                                r"BrokenProcessPool\(.*\)", line)
                   for line in failed)

    def test_empty_detector_value_means_default(self, workspace, tmp_path,
                                                capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("detector.neural.epochs =\n")
        capsys.readouterr()
        code, _ = run_cli("detector-train", "--kind", "neural",
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--agd", str(workspace / "prep" / "kraken.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "d" / "detector.ckpt").is_file()

    @pytest.mark.parametrize("command,line", [
        ("train", "train.lr = nan"),
        ("game", "game.incr_lr = nan"),
    ])
    def test_non_finite_setting(self, command, line, workspace, tmp_path,
                                capsys):
        cfg = tmp_path / "nf.cfg"
        cfg.write_text(line + "\n")
        det = str(workspace / "det" / "detector.ckpt")
        benign = str(workspace / "prep" / "benign.txt")
        flag = "--env" if command == "train" else "--detector"
        capsys.readouterr()
        code, _ = run_cli(command, flag, det, "--benign", benign, "--config",
                          str(cfg), "--out", str(tmp_path / "out"))
        key, _, value = line.partition(" = ")
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: config {key} = '{value}': expected a finite float"]
        assert not (tmp_path / "out").exists()


# the messages of the MatrixConfig and GameConfig size contracts
MATRIX_SIZES = ("train_per_class, eval_benign, eval_agd and pkdga_budget "
                "must be >= 1")
GAME_SIZES = "stage_budget, fresh_samples and incr_epochs must be >= 1"


class TestBadConfigWritesNothing:
    """A config that cannot run is refused by every command while it
    loads, whether or not the command reads the bad value: one stderr line
    and no --out directory."""

    def run(self, capsys, tmp_path, lines, *argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(lines if isinstance(lines, bytes) else lines.encode())
        capsys.readouterr()
        code, out = run_cli(*argv, "--config", str(cfg))
        err = capsys.readouterr().err.splitlines()
        assert out == "" and len(err) == 1, err
        assert not (tmp_path / "out").exists()
        return code, err[0]

    def test_unknown_matrix_family(self, workspace, tmp_path, capsys):
        code, err = self.run(capsys, tmp_path, "matrix.dgas = kraken,nope\n",
                             "matrix", "--benign",
                             str(workspace / "prep" / "benign.txt"),
                             "--out", str(tmp_path / "out"))
        assert code == 2
        assert err == "data error: matrix.dgas: unknown generator 'nope'"

    @pytest.mark.parametrize("key, entries, what", [
        ("matrix.detectors", "statistics,fanci,statistics", "detector kind"),
        ("matrix.dgas", "kraken,gozi,kraken", "generator")])
    def test_repeated_matrix_entry(self, key, entries, what, workspace,
                                   tmp_path, capsys):
        code, err = self.run(capsys, tmp_path, f"{key} = {entries}\n",
                             "matrix", "--benign",
                             str(workspace / "prep" / "benign.txt"),
                             "--out", str(tmp_path / "out"))
        assert code == 2
        repeated = entries.partition(",")[0]
        assert err == f"data error: {key}: repeated {what} {repeated!r}"

    def test_config_not_utf8(self, tmp_path, capsys):
        code, err = self.run(capsys, tmp_path, b"data.tld = com\n# caf\xe9\n",
                             "prep", "--benign", "10", "--agd", "10",
                             "--out", str(tmp_path / "out"))
        assert code == 2
        assert err == (f"data error: {tmp_path / 'bad.cfg'}: not UTF-8 text "
                       "(byte 20)")

    def test_non_finite_detector_rate(self, workspace, tmp_path, capsys):
        code, err = self.run(capsys, tmp_path, "detector.neural.lr = nan\n",
                             "detector-train", "--kind", "neural",
                             "--benign", str(workspace / "prep" / "benign.txt"),
                             "--agd", str(workspace / "prep" / "kraken.txt"),
                             "--out", str(tmp_path / "out"))
        assert code == 2
        assert err == ("data error: detector hyperparameter lr = 'nan': "
                       "expected a finite float")

    def test_seed_dates_out_of_order(self, workspace, tmp_path, capsys):
        code, err = self.run(capsys, tmp_path,
                             "seeds.start_date = 2030-01-01\n"
                             "seeds.end_date = 2029-12-31\n",
                             "train", "--env",
                             str(workspace / "det" / "detector.ckpt"),
                             "--benign", str(workspace / "prep" / "benign.txt"),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == "usage error: start_date must not exceed end_date"

    def test_split_outside_unit_interval(self, workspace, tmp_path, capsys):
        code, err = self.run(capsys, tmp_path, "detector.split = 1\n",
                             "detector-train", "--kind", "statistics",
                             "--benign", str(workspace / "prep" / "benign.txt"),
                             "--agd", str(workspace / "prep" / "kraken.txt"),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == "usage error: detector.split must lie in (0, 1)"

    def test_training_contract_for_eval(self, workspace, tmp_path, capsys):
        code, err = self.run(capsys, tmp_path, "train.length = 30\n",
                             "eval", "--detector",
                             str(workspace / "det" / "detector.ckpt"),
                             "--benign", str(workspace / "prep" / "benign.txt"),
                             "--agd", str(workspace / "prep" / "kraken.txt"),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == "usage error: episode length must lie in [7, 24]"

    # sizes no run can use: unchecked, each would fail the command that
    # reads it after --out exists, or train or update nothing and exit 0
    @pytest.mark.parametrize("key, value, command, message", [
        pytest.param(*case, id=case[0]) for case in (
            ("train.n_layers", 0, "train",
             "n_layers, d_e and d_h must be >= 1"),
            ("train.d_e", 0, "train", "n_layers, d_e and d_h must be >= 1"),
            ("train.d_h", 0, "train", "n_layers, d_e and d_h must be >= 1"),
            ("matrix.train_per_class", 0, "matrix", MATRIX_SIZES),
            ("matrix.eval_benign", 0, "matrix", MATRIX_SIZES),
            ("matrix.eval_agd", 0, "matrix", MATRIX_SIZES),
            ("matrix.pkdga_budget", 0, "matrix", MATRIX_SIZES),
            ("game.fresh", 0, "game", GAME_SIZES),
            ("game.stage_budget", 0, "game", GAME_SIZES),
            ("game.incr_epochs", 0, "game", GAME_SIZES),
            ("game.incr_lr", 0, "game", "incr_lr must be positive"),
            ("env.budget", -5, "train", "env.budget must be at least 0"))])
    def test_unusable_size(self, workspace, tmp_path, capsys, key, value,
                           command, message):
        ckpt = str(workspace / "det" / "detector.ckpt")
        code, err = self.run(capsys, tmp_path, f"{key} = {value}\n", command,
                             *{"train": ["--env", ckpt], "matrix": [],
                               "game": ["--detector", ckpt]}[command],
                             "--benign", str(workspace / "prep" / "benign.txt"),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == f"usage error: {message}"

    # unchecked, each of these ended after the manifest, in a traceback or
    # in exit 2, or exited 0 with a detector that was never trained or
    # ranks at chance
    @pytest.mark.parametrize("kind, key, value, message", [
        pytest.param(*case, id=f"{case[0]}.{case[1]}") for case in (
            ("fanci", "trees", "0", "trees = 0: must be at least 1"),
            ("fanci", "max_depth", "-2", "max_depth = -2: must be at least 1"),
            ("neural", "batch", "0", "batch = 0: must be at least 1"),
            ("neural", "max_len", "0", "max_len = 0: must be at least 1"),
            ("neural", "epochs", "0", "epochs = 0: must be at least 1"),
            ("neural", "lr", "-1", "lr = -1.0: must be positive"),
            ("statistics", "jaccard_refs", "0",
             "jaccard_refs = 0: must be at least 1"),
            ("wordgraph", "repeat_threshold", "-1",
             "repeat_threshold = -1: must be at least 0"))])
    def test_detector_hyperparameter_below_floor(self, workspace, tmp_path,
                                                 capsys, kind, key, value,
                                                 message):
        code, err = self.run(capsys, tmp_path,
                             f"detector.{kind}.{key} = {value}\n",
                             "detector-train", "--kind", kind,
                             "--benign", str(workspace / "prep" / "benign.txt"),
                             "--agd", str(workspace / "prep" / "kraken.txt"),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == f"usage error: detector hyperparameter {message}"
        # the library refuses it the same way
        with pytest.raises(ContractError) as refused:
            train_detector(kind, LabeledCorpus(("a.com",), ("b.com",)),
                           hp={key: value})
        assert str(refused.value) == f"detector hyperparameter {message}"

    # every verdict rules at the detector's own threshold: no config key
    # sets it, and a config that tries is refused before --out exists
    @pytest.mark.parametrize("command", ["train", "game", "matrix"])
    def test_removed_threshold_key(self, workspace, tmp_path, capsys,
                                   command):
        ckpt = str(workspace / "det" / "detector.ckpt")
        code, err = self.run(capsys, tmp_path, "env.threshold = 0.5\n",
                             command,
                             *{"train": ["--env", ckpt], "matrix": [],
                               "game": ["--detector", ckpt]}[command],
                             "--benign", str(workspace / "prep" / "benign.txt"),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == ("usage error: config key 'env.threshold' is not read "
                       "by any command")

    def test_setting_the_command_does_not_read(self, tmp_path, capsys):
        code, err = self.run(capsys, tmp_path, "game.incr_lr = x\n",
                             "generate", "--dga", "kraken", "--count", "3")
        assert code == 2
        assert err == ("data error: config game.incr_lr = 'x': expected a "
                       "finite float")


def usage_errors(capsys) -> list[str]:
    """The ``usage error:`` lines on stderr since the last read."""
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("usage error:")]


class TestConfigKeys:
    def test_known_keys_are_the_keys_the_cli_reads(self):
        # a command reads a key by name, or through the dataclass field
        # that the key sets
        source = Path(cli.__file__).read_text("utf-8")
        read = set(re.findall(r'settings\["([a-z_.]+)"\]', source))
        read |= {key for keyed in cli._FIELD_KEYS.values() for key in keyed}
        assert set(cli.SETTINGS) == read

    def test_one_key_per_value(self):
        hp_keys = {f"detector.{kind}.{key}" for kind, entry in
                   KIND_TABLE.items() for key in entry.hp}
        assert cli._KNOWN_KEYS == set(cli.SETTINGS) | hp_keys
        assert len(cli._KNOWN_KEYS) == len(cli.SETTINGS) + len(hp_keys) == 40

    def test_empty_value_counts_as_absent(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("detector.neural.epochs =\ndetector.neural.d_e = 8\n"
                       "detector.fanci.trees =\n")
        assert cli._detector_hp(parse_config(cfg), "neural") == {"d_e": "8"}
        _, _, hp = cli._load_cfg(cfg)
        assert hp["neural"] == {**KIND_TABLE["neural"].hp, "d_e": 8}
        assert hp["fanci"] == KIND_TABLE["fanci"].hp

    def test_split_and_kind_keys_pass(self, tmp_path):
        cfg = tmp_path / "open.cfg"
        cfg.write_text("detector.split = 0.5\ndetector.fanci.trees = 2\n")
        code, _ = run_cli("generate", "--dga", "kraken", "--count", "2",
                          "--config", str(cfg))
        assert code == 0


def settings_table() -> str:
    """README's table of every setting: its key, default and type."""
    def shown(default):
        if isinstance(default, bool):
            return f"`{str(default).lower()}`"
        if isinstance(default, tuple):
            return f"`{','.join(default)}`"
        return f"`{default}`"

    def kind(default):
        return "comma list" if isinstance(default, tuple) \
            else type(default).__name__

    rows = ["| key | default | type |", "|---|---|---|"]
    rows += [f"| `{key}` | {shown(default)} | {kind(default)} |"
             for key, default in sorted(cli.SETTINGS.items())]
    return "\n".join(rows) + "\n"


class TestDefaults:
    def test_train_defaults_match_train_config(self):
        _, settings, _ = cli._load_cfg(None)
        assert cli._config(training.TrainConfig, settings) == \
            training.TrainConfig()

    def test_readme_lists_every_setting(self):
        readme = Path(cli.__file__).parents[2] / "README.md"
        assert settings_table() in readme.read_text("utf-8")

    def test_game_defaults_match_game_config(self):
        _, settings, _ = cli._load_cfg(None)
        train_cfg = cli._config(training.TrainConfig, settings)
        assert cli._config(evaluation.GameConfig, settings,
                           train_cfg=train_cfg) == \
            evaluation.GameConfig(training.TrainConfig())


class TestManifestOptions:
    """A manifest records the config's raw lines, every command-line
    option, every setting, each kind's hyperparameters and the inputs."""

    def test_game_records_stages(self, workspace, tmp_path):
        out = tmp_path / "game"
        code, _ = run_cli("game", "--detector",
                          str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--stages", "0", "--out", str(out))
        assert code == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest["config"] == {}
        assert manifest["options"]["stages"] == 0

    def test_bench_records_batches(self, tmp_path):
        out = tmp_path / "bench"
        code, _ = run_cli("bench", "--ckpt",
                          str(tiny_policy(tmp_path / "p.ckpt")),
                          "--batches", "2,3", "--out", str(out))
        assert code == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest["config"] == {}
        assert manifest["options"]["batches"] == [2, 3]

    def test_records_every_resolved_setting(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("train.lr = 2\nmatrix.dgas = gozi, kraken\n"
                       "seeds.end_date = 2030-06-01\n")
        out = tmp_path / "prep"
        code, _ = run_cli("prep", "--out", str(out), "--benign", "20",
                          "--agd", "5", "--config", str(cfg))
        assert code == 0
        manifest = read_manifest(out / "manifest.json")
        settings = manifest["settings"]
        assert set(settings) == set(cli.SETTINGS)
        assert settings["train.lr"] == 2.0 and settings["train.batch"] == 32
        assert settings["matrix.dgas"] == ["gozi", "kraken"]
        assert settings["matrix.detectors"] == ["statistics", "neural"]
        assert settings["seeds.start_date"] == "2020-01-01"
        assert settings["seeds.end_date"] == "2030-06-01"
        assert manifest["config"]["train.lr"] == "2"

    @pytest.mark.parametrize("command", [
        "prep", "detector-train", "train", "generate", "eval", "matrix",
        "game", "bench"])
    def test_every_command_records_its_run(self, command, workspace,
                                           tmp_path):
        prep, det = workspace / "prep", workspace / "det" / "detector.ckpt"
        policy_ckpt = tiny_policy(tmp_path / "p.ckpt")
        benign, agd = prep / "benign.txt", prep / "kraken.txt"
        # (argv, the options it records besides the common ones, its inputs)
        argv, options, inputs = {
            "prep": (["--benign", "20", "--agd", "5", "--dga", "gozi"],
                     {"benign": 20, "agd": 5, "dga": "gozi"}, []),
            "detector-train": (
                ["--kind", "statistics", "--benign", str(benign), "--agd",
                 str(agd)],
                {"kind": "statistics", "benign": str(benign),
                 "agd": str(agd)}, [benign, agd]),
            "train": (["--env", str(det), "--benign", str(benign)],
                      {"env": str(det), "benign": str(benign)},
                      [det, benign]),
            "generate": (
                ["--dga", "pkdga", "--ckpt", str(policy_ckpt), "--count", "3",
                 "--start-date", "2031-02-03"],
                {"dga": "pkdga", "ckpt": str(policy_ckpt), "count": 3,
                 "start_date": "2031-02-03", "tld": "com", "mode": "sample"},
                [policy_ckpt]),
            "eval": (["--detector", str(det), "--benign", str(benign),
                      "--agd", str(agd)],
                     {"detector": str(det), "benign": str(benign),
                      "agd": str(agd)}, [det, benign, agd]),
            "matrix": (["--benign", str(benign), "--threads", "2"],
                       {"benign": str(benign), "threads": 2}, [benign]),
            "game": (["--detector", str(det), "--benign", str(benign),
                      "--stages", "0"],
                     {"detector": str(det), "benign": str(benign),
                      "stages": 0}, [det, benign]),
            "bench": (["--ckpt", str(policy_ckpt), "--batches", "2"],
                      {"ckpt": str(policy_ckpt), "batches": [2]},
                      [policy_ckpt]),
        }[command]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.epochs = 1\ntrain.batch = 4\ntrain.mc = 1\n"
                       + MATRIX_CFG + "matrix.detectors = statistics\n"
                       "detector.fanci.trees = 3\n")
        out = tmp_path / "out"
        code, _ = run_cli(command, *argv, "--config", str(cfg),
                          "--out", str(out), "--seed", "5")
        assert code == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest["command"] == command
        assert manifest["config"] == parse_config(cfg)
        assert manifest["options"] == {**options, "out": str(out),
                                       "config": str(cfg), "seed": 5}
        hyperparameters = {kind: dict(KIND_TABLE[kind].hp) for kind in KINDS}
        hyperparameters["fanci"]["trees"] = 3
        assert manifest["hyperparameters"] == hyperparameters
        assert manifest["inputs"] == {str(path): sha256_file(path)
                                      for path in inputs}
        assert manifest["blas_thread_setter"] is (
            evaluation.blas_thread_setter() is not None)

    def test_records_a_missing_blas_thread_setter(self, tmp_path,
                                                  monkeypatch):
        # without the setter, matrix workers run the default BLAS threads
        monkeypatch.setattr(evaluation, "_openblas", lambda: None)
        out = tmp_path / "prep"
        code, _ = run_cli("prep", "--out", str(out), "--benign", "20",
                          "--agd", "5")
        assert code == 0
        assert read_manifest(out / "manifest.json")[
            "blas_thread_setter"] is False


class TestBooleans:
    @pytest.mark.parametrize("value", ["no", "Off"])
    def test_detector_flag_spellings(self, value, workspace, tmp_path):
        cfg = tmp_path / "bi.cfg"
        cfg.write_text("detector.neural.epochs = 1\n"
                       f"detector.neural.bidirectional = {value}\n")
        code, _ = run_cli("detector-train", "--kind", "neural",
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--agd", str(workspace / "prep" / "kraken.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 0
        model = cli.load_detector(tmp_path / "d" / "detector.ckpt")
        assert model.bidirectional is False


class TestValidationCount:
    def test_eval_validates_each_name_once(self, workspace, tmp_path,
                                           monkeypatch):
        # load_domains checks each line and returns a CheckedNames, which
        # the detector's score_many does not check again
        calls = count_validations(monkeypatch)
        prep = workspace / "prep"
        code, _ = run_cli("eval", "--detector",
                          str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(prep / "benign.txt"),
                          "--agd", str(prep / "kraken.txt"),
                          "--out", str(tmp_path / "eval"))
        assert code == 0
        names = (prep / "benign.txt").read_text().split() \
            + (prep / "kraken.txt").read_text().split()
        # one call per name, and the CLI's one check_tld of data.tld
        assert len(calls) == len(names) + 1 == 601

    @pytest.mark.parametrize("kind", KINDS)
    def test_detector_train_validates_each_name_once(self, kind, workspace,
                                                     tmp_path, monkeypatch):
        # the split keeps load_domains' CheckedNames, which neither
        # train_detector, the kind nor the AUC's score_many checks again
        cfg = tmp_path / "small.cfg"
        cfg.write_text("detector.neural.epochs = 1\n"
                       "detector.fanci.trees = 3\n")
        calls = count_validations(monkeypatch)
        prep = workspace / "prep"
        code, _ = run_cli("detector-train", "--kind", kind,
                          "--benign", str(prep / "benign.txt"),
                          "--agd", str(prep / "kraken.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 0
        names = (prep / "benign.txt").read_text().split() \
            + (prep / "kraken.txt").read_text().split()
        assert len(calls) == len(names) + 1 == 601

    def test_matrix_validates_each_name_once(self, tmp_path, monkeypatch):
        # the cells' benign slices and the mixed row stay CheckedNames, so
        # no cell checks its training, evaluation or mixed-row names again
        code, _ = run_cli("prep", "--out", str(tmp_path / "prep"),
                          "--benign", "400", "--agd", "100")
        assert code == 0
        cfg = tmp_path / "mx.cfg"
        cfg.write_text("matrix.dgas = kraken,gozi\n"
                       "matrix.include_mixed = true\n"
                       "matrix.detectors = statistics\nmatrix.pkdga = false\n"
                       "matrix.train_per_class = 100\n"
                       "matrix.eval_benign = 50\nmatrix.eval_agd = 50\n")
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
        calls = count_validations(monkeypatch)
        code, _ = run_cli("matrix", "--benign",
                          str(tmp_path / "prep" / "benign.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "mx"))
        assert code == 0
        assert (tmp_path / "mx" / "anti_detection_by_detector.tsv").exists()
        # load_domains' 400 benign names and the CLI's one check_tld
        assert len(calls) == 400 + 1


class TestCampaignCallSites:
    """Every feedback-training run builds its one registration env inside
    ``training.campaign``."""

    @pytest.fixture
    def spy(self, monkeypatch):
        # "envs" holds, per env built, whether a campaign was running
        seen = {"campaigns": 0, "envs": [], "depth": 0}
        campaign, init = training.campaign, FeedbackEnv.__init__

        def counted_campaign(*args, **kwargs):
            seen["campaigns"] += 1
            seen["depth"] += 1
            try:
                return campaign(*args, **kwargs)
            finally:
                seen["depth"] -= 1

        def recorded_init(self, *args, **kwargs):
            seen["envs"].append(seen["depth"] > 0)
            init(self, *args, **kwargs)

        monkeypatch.setattr(training, "campaign", counted_campaign)
        monkeypatch.setattr(FeedbackEnv, "__init__", recorded_init)
        return seen

    @staticmethod
    def _cfg(tmp_path, extra=""):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text(RUN_CFG.replace("train.epochs = 8", "train.epochs = 2")
                       + extra)
        return cfg

    def test_train_builds_one_env(self, spy, workspace, tmp_path):
        code, _ = run_cli("train", "--env",
                          str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--out", str(tmp_path / "rl"),
                          "--config", str(self._cfg(tmp_path)))
        assert code == 0
        assert spy["envs"] == [True] and spy["campaigns"] == 1

    def test_matrix_builds_one_env_per_pkdga_cell(self, spy, workspace,
                                                  tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
        cfg = self._cfg(tmp_path, MATRIX_CFG.replace(
            "matrix.pkdga = false", "matrix.pkdga = true")
            + "matrix.detectors = statistics\nmatrix.pkdga_budget = 2000\n")
        code, _ = run_cli("matrix", "--benign",
                          str(workspace / "prep" / "benign.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "mx"))
        assert code == 0
        # the kraken and mixed rows, one detector: two pkdga cells
        assert spy["envs"] == [True, True] and spy["campaigns"] == 2

    def test_game_builds_one_env_per_stage(self, spy, workspace, tmp_path):
        code, _ = run_cli("game", "--detector",
                          str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--stages", "2", "--out", str(tmp_path / "game"),
                          "--config", str(self._cfg(
                              tmp_path, "game.stage_budget = 2000\n"
                                        "game.fresh = 50\n")))
        assert code == 0
        # the baseline row and both stages: no early stop
        stages = (tmp_path / "game" / "stages.tsv").read_text().splitlines()
        assert len(stages) == 1 + 3
        assert spy["envs"] == [True, True] and spy["campaigns"] == 2


class TestGenerate:
    def test_deterministic_output(self):
        code1, out1 = run_cli("generate", "--dga", "kraken", "--seed", "7",
                              "--count", "10")
        code2, out2 = run_cli("generate", "--dga", "kraken", "--seed", "7",
                              "--count", "10")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.strip().split("\n")) == 10

    def test_all_family_names(self):
        for dga in FAMILIES:
            code, out = run_cli("generate", "--dga", dga, "--seed", "2",
                                "--count", "5")
            assert code == 0 and len(out.strip().split("\n")) == 5

    @pytest.mark.parametrize("dga", DGA_NAMES)
    def test_tld_flag_overrides_config(self, dga, tmp_path):
        cfg = tmp_path / "net.cfg"
        cfg.write_text("data.tld = net\n")
        ckpt = ["--ckpt", str(tiny_policy(tmp_path / "p.ckpt"))] \
            if dga == "pkdga" else []
        for flag, tld in (([], "net"), (["--tld", "org"], "org")):
            out = tmp_path / f"gen-{tld}"
            code, text = run_cli("generate", "--dga", dga, *ckpt, *flag,
                                 "--count", "4", "--config", str(cfg),
                                 "--out", str(out))
            assert code == 0
            names = text.split()
            assert len(names) == 4
            assert all(name.endswith(f".{tld}") for name in names)
            assert read_manifest(out / "manifest.json")["options"]["tld"] \
                == tld

    @pytest.mark.parametrize("flag", ["--mode", "--ckpt", "--start-date"])
    def test_baseline_refuses_pkdga_flags(self, flag, tmp_path, capsys):
        value = {"--mode": "argmax", "--start-date": "2031-01-01",
                 "--ckpt": str(tiny_policy(tmp_path / "p.ckpt"))}[flag]
        for dga in FAMILIES:
            capsys.readouterr()
            code, out = run_cli("generate", "--dga", dga, "--count", "2",
                                flag, value, "--out", str(tmp_path / "gen"))
            assert code == 1 and out == ""
            assert capsys.readouterr().err.splitlines() == [
                f"usage error: {flag} applies to --dga pkdga only"]
            assert not (tmp_path / "gen").exists()

    def test_pkdga_requires_ckpt(self, tmp_path):
        code, _ = run_cli("generate", "--dga", "pkdga", "--count", "3")
        assert code == 1
        code, _ = run_cli("generate", "--dga", "pkdga", "--count", "3",
                          "--out", str(tmp_path / "gen"))
        assert code == 1
        assert not (tmp_path / "gen").exists()


class TestTrainCommand:
    def test_outputs_and_manifest(self, workspace):
        out = workspace / "rl"
        code, _ = run_cli("train", "--env", str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--out", str(out),
                          "--config", str(workspace / "run.cfg"), "--seed", "4")
        assert code == 0
        assert (out / "policy.ckpt").exists()
        assert (out / "reward_curve.tsv").exists()
        manifest = read_manifest(out / "manifest.json")
        assert manifest["command"] == "train"
        assert manifest["master_seed"] == 4
        assert len(manifest["inputs"]) == 2
        header, *rows = (out / "reward_curve.tsv").read_text().strip().split("\n")
        assert header == "epoch\tmean_reward"
        assert len(rows) == 8

    def test_rerun_from_manifest_is_byte_identical(self, workspace, tmp_path):
        src = workspace / "rl"
        if not src.exists():
            self.test_outputs_and_manifest(workspace)
        manifest = read_manifest(src / "manifest.json")
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("".join(f"{k} = {v}\n"
                               for k, v in manifest["config"].items()))
        out = tmp_path / "replay"
        code, _ = run_cli("train", "--env", str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--out", str(out), "--config", str(cfg),
                          "--seed", str(manifest["master_seed"]))
        assert code == 0
        assert (out / "policy.ckpt").read_bytes() == \
            (src / "policy.ckpt").read_bytes()
        assert (out / "reward_curve.tsv").read_bytes() == \
            (src / "reward_curve.tsv").read_bytes()

    def test_audit_log_is_byte_identical(self, workspace, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(RUN_CFG.replace("train.epochs = 8", "train.epochs = 2")
                       + "env.audit = true\n")
        logs = []
        for run in ("a", "b"):
            code, _ = run_cli("train", "--env",
                              str(workspace / "det" / "detector.ckpt"),
                              "--benign", str(workspace / "prep" / "benign.txt"),
                              "--out", str(tmp_path / run), "--config",
                              str(cfg), "--seed", "4")
            assert code == 0
            logs.append((tmp_path / run / "audit.tsv").read_bytes())
        assert logs[0] == logs[1]
        numbers = [line.split(b"\t")[0] for line in logs[0].splitlines()]
        assert numbers == [str(i).encode() for i in range(1, len(numbers) + 1)]

    def test_rerun_into_one_out_starts_the_audit_afresh(self, workspace,
                                                         tmp_path):
        # the env appends to its log; a second run into one --out must not
        # leave the first run's queries above its own
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(RUN_CFG.replace("train.epochs = 8", "train.epochs = 2")
                       + "env.audit = true\n")
        for out in ("fresh", "again", "again"):
            code, _ = run_cli("train", "--env",
                              str(workspace / "det" / "detector.ckpt"),
                              "--benign", str(workspace / "prep" / "benign.txt"),
                              "--out", str(tmp_path / out), "--config",
                              str(cfg), "--seed", "4")
            assert code == 0
        assert (tmp_path / "again" / "audit.tsv").read_bytes() \
            == (tmp_path / "fresh" / "audit.tsv").read_bytes()

    def test_budget_spent_before_the_first_epoch(self, workspace, tmp_path,
                                                 capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(RUN_CFG.replace("env.budget = 20000", "env.budget = 10"))
        out = tmp_path / "rl"
        capsys.readouterr()
        code, _ = run_cli("train", "--env",
                          str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--out", str(out), "--config", str(cfg))
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("wrote ")]
        assert code == 0
        assert (out / "reward_curve.tsv").read_text() == "epoch\tmean_reward\n"
        assert err == ["no epoch completed; 0 register calls; stopped: budget"]

    def test_generate_from_checkpoint(self, workspace):
        if not (workspace / "rl").exists():
            self.test_outputs_and_manifest(workspace)
        code, out = run_cli("generate", "--dga", "pkdga",
                            "--ckpt", str(workspace / "rl" / "policy.ckpt"),
                            "--count", "5",
                            "--config", str(workspace / "run.cfg"))
        assert code == 0
        names = out.strip().split("\n")
        assert len(names) == 5
        from dgalab.domains import validate_domain
        assert all(validate_domain(n) for n in names)

    def test_generate_takes_length_from_checkpoint(self, workspace,
                                                   tmp_path):
        cfg = tmp_path / "len14.cfg"
        cfg.write_text(RUN_CFG.replace("train.length = 10", "train.length = 14")
                       .replace("train.epochs = 8", "train.epochs = 2"))
        out = tmp_path / "rl14"
        code, _ = run_cli("train", "--env", str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--out", str(out), "--config", str(cfg),
                          "--seed", "4")
        assert code == 0
        code, text = run_cli("generate", "--dga", "pkdga", "--ckpt",
                             str(out / "policy.ckpt"), "--count", "20")
        assert code == 0
        cores = [name.split(".")[0] for name in text.split()]
        assert len(cores) == 20 and {len(c) for c in cores} == {14}


class TestBadTld:
    """A TLD that cannot end a valid name fails before anything is
    generated: exit 2, one stderr line, no result file."""

    def run(self, capsys, *argv):
        capsys.readouterr()
        code, out = run_cli(*argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and out == ""
        assert len(err) == 1 and "violates RFC limits" in err[0], err
        return err[0]

    def test_prep(self, tmp_path, capsys):
        cfg = tmp_path / "tld.cfg"
        cfg.write_text("data.tld = X\n")
        self.run(capsys, "prep", "--out", str(tmp_path / "prep"), "--benign",
                 "50", "--agd", "50", "--config", str(cfg))
        assert not (tmp_path / "prep" / "kraken.txt").exists()
        assert not (tmp_path / "prep" / "benign.txt").exists()

    @pytest.mark.parametrize("dga", [*FAMILIES, "pkdga"])
    def test_generate(self, dga, tmp_path, capsys):
        ckpt = ["--ckpt", str(tiny_policy(tmp_path / "p.ckpt"))] \
            if dga == "pkdga" else []
        err = self.run(capsys, "generate", "--dga", dga, "--tld", "C-",
                       "--count", "3", *ckpt)
        assert "'C-'" in err

    def test_matrix(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "tld.cfg"
        cfg.write_text("data.tld = X\nmatrix.pkdga = false\n")
        self.run(capsys, "matrix", "--benign",
                 str(workspace / "prep" / "benign.txt"), "--config",
                 str(cfg), "--out", str(tmp_path / "mx"))
        assert not list((tmp_path / "mx").glob("matrix_*.tsv"))

    def test_train(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "tld.cfg"
        cfg.write_text(RUN_CFG + "data.tld = X\n")
        self.run(capsys, "train", "--env",
                 str(workspace / "det" / "detector.ckpt"), "--benign",
                 str(workspace / "prep" / "benign.txt"), "--config", str(cfg),
                 "--out", str(tmp_path / "rl"))
        assert not (tmp_path / "rl" / "policy.ckpt").exists()


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = cli_subprocess(["generate", "--dga", "suppobox", "--seed", "9",
                               "--count", "3"])
        assert proc.returncode == 0
        assert len(proc.stdout.strip().split("\n")) == 3
