import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from dgalab import checkpoint, cli, evaluation, policy, training
from dgalab.cli import main
from dgalab.config import parse_config
from conftest import cli_subprocess, python_subprocess, read_manifest

RUN_CFG = """
train.lr = 1.0
train.batch = 8
train.mc = 2
train.length = 10
train.epochs = 8
env.budget = 20000
detector.epochs = 3
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
    cfg.write_text("detector.trees = 3\n")
    code, _ = run_cli("detector-train", "--kind", "fanci",
                      "--benign", str(workspace / "prep" / "benign.txt"),
                      "--agd", str(workspace / "prep" / "kraken.txt"),
                      "--out", str(workspace / "fanci"), "--config", str(cfg),
                      "--seed", "3")
    assert code == 0
    return workspace / "fanci" / "detector.ckpt"


def resaved(ckpt, path, damage):
    """Copy of a checkpoint whose records went through ``damage``."""
    kind, blobs = checkpoint.load_blobs(ckpt)
    damage(blobs)
    checkpoint.save_blobs(path, kind, blobs)
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

    def test_missing_subcommand(self):
        code, _ = run_cli()
        assert code == 1

    def test_missing_file_is_data_error(self, tmp_path):
        code, _ = run_cli("eval", "--detector", "nope.ckpt",
                          "--benign", "nope.txt", "--agd", "nope.txt",
                          "--out", str(tmp_path / "x"))
        assert code == 2


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

    @pytest.mark.parametrize("line", ["train.epoch = 1",
                                      "train.reward_mode = shaped",
                                      "train.reward_mode = binary",
                                      "detector.neural.epoch = 1",
                                      "detector.epoch = 1",
                                      "detector.fanci.epochs = 1",
                                      "detector.forest.trees = 1",
                                      "detector.neural = 1"])
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

    @pytest.mark.parametrize("kind,line,message", [
        ("fanci", "detector.fanci.trees = 2.5", "trees = '2.5': expected int"),
        ("fanci", "detector.trees = -1.5", "trees = '-1.5': expected int"),
        ("neural", "detector.neural.lr = nan",
         "lr = 'nan': expected a finite float"),
    ])
    def test_matrix_refuses_bad_hyperparameter_first(self, kind, line,
                                                      message, workspace,
                                                      tmp_path, capsys):
        cfg = tmp_path / "hp.cfg"
        cfg.write_text(MATRIX_CFG + f"matrix.detectors = statistics,{kind}\n"
                       f"{line}\n")
        capsys.readouterr()
        code, _ = run_cli("matrix", "--benign",
                          str(workspace / "prep" / "benign.txt"), "--config",
                          str(cfg), "--out", str(tmp_path / "mx"))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: detector hyperparameter {message}"]
        assert not (tmp_path / "mx").exists()

    def test_matrix_with_failed_cells_exits_2(self, workspace, tmp_path,
                                              capsys):
        # the value casts, but statistics training refuses zero edit refs
        cfg = tmp_path / "cells.cfg"
        cfg.write_text(MATRIX_CFG + "matrix.detectors = statistics\n"
                       "detector.statistics.edit_refs = 0\n")
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
        cfg.write_text("detector.epochs =\n")
        capsys.readouterr()
        code, _ = run_cli("detector-train", "--kind", "neural",
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--agd", str(workspace / "prep" / "kraken.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "d" / "detector.ckpt").is_file()

    @pytest.mark.parametrize("command,line", [
        ("train", "train.lr = nan"),
        ("train", "env.threshold = inf"),
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
        assert [p.name for p in (tmp_path / "out").iterdir()] == \
            ["manifest.json"]


def usage_errors(capsys) -> list[str]:
    """The ``usage error:`` lines on stderr since the last read."""
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("usage error:")]


class TestConfigKeys:
    def test_known_keys_are_the_keys_the_cli_reads(self):
        source = Path(cli.__file__).read_text("utf-8")
        read = set(re.findall(r'cfg_(?:get|date)\(cfg, "([a-z_.]+)"', source))
        known = {f"{section}.{name}"
                 for section, names in cli._CONFIG_KEYS.items()
                 for name in names}
        assert known == {k for k in read if not k.startswith("detector.")}

    @pytest.mark.parametrize("lines", [
        ("detector.neural.epochs = 2", "detector.epochs = 5"),
        ("detector.epochs = 5", "detector.neural.epochs = 2")])
    def test_kind_key_wins_in_either_order(self, lines, tmp_path):
        cfg = tmp_path / "order.cfg"
        cfg.write_text("\n".join(lines) + "\ndetector.trees = 4\n")
        parsed = parse_config(cfg)
        assert cli._detector_hp(parsed, "neural") == {"epochs": "2"}
        assert cli._detector_hp(parsed, "fanci") == {"trees": "4"}
        assert cli._detector_hp(parsed, "statistics") == {}

    def test_empty_value_counts_as_absent(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("detector.neural.epochs =\ndetector.epochs = 2\n"
                       "detector.fanci.trees =\ndetector.trees =\n")
        parsed = parse_config(cfg)
        assert cli._detector_hp(parsed, "neural") == {"epochs": "2"}
        assert cli._detector_hp(parsed, "fanci") == {}

    def test_detector_and_unsectioned_keys_pass(self, tmp_path):
        cfg = tmp_path / "open.cfg"
        cfg.write_text("detector.split = 0.5\ndetector.epochs = 1\n"
                       "detector.fanci.trees = 2\nbenign = 300\n")
        code, _ = run_cli("generate", "--dga", "kraken", "--count", "2",
                          "--config", str(cfg))
        assert code == 0


class TestDefaults:
    def test_train_defaults_match_train_config(self):
        assert cli._train_config({}) == training.TrainConfig()

    def test_game_defaults_match_game_config(self):
        assert cli._game_config({}) == \
            evaluation.GameConfig(training.TrainConfig())


class TestManifestOptions:
    """A manifest records the command-line options that shape a result."""

    def test_game_records_stages(self, workspace, tmp_path):
        out = tmp_path / "game"
        code, _ = run_cli("game", "--detector",
                          str(workspace / "det" / "detector.ckpt"),
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--stages", "0", "--out", str(out))
        assert code == 0
        assert read_manifest(out / "manifest.json")["config"] == \
            {"stages": "0"}

    def test_bench_records_batches(self, tmp_path):
        out = tmp_path / "bench"
        code, _ = run_cli("bench", "--ckpt",
                          str(tiny_policy(tmp_path / "p.ckpt")),
                          "--batches", "2,3", "--out", str(out))
        assert code == 0
        assert read_manifest(out / "manifest.json")["config"] == \
            {"batches": "2,3"}


class TestBooleans:
    @pytest.mark.parametrize("value", ["no", "Off"])
    def test_detector_flag_spellings(self, value, workspace, tmp_path):
        cfg = tmp_path / "bi.cfg"
        cfg.write_text("detector.epochs = 1\n"
                       f"detector.neural.bidirectional = {value}\n")
        code, _ = run_cli("detector-train", "--kind", "neural",
                          "--benign", str(workspace / "prep" / "benign.txt"),
                          "--agd", str(workspace / "prep" / "kraken.txt"),
                          "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 0
        model = cli.load_detector(tmp_path / "d" / "detector.ckpt")
        assert model.bidirectional is False


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
        for dga in ("kraken", "gozi", "suppobox"):
            code, out = run_cli("generate", "--dga", dga, "--seed", "2",
                                "--count", "5")
            assert code == 0 and len(out.strip().split("\n")) == 5

    def test_pkdga_requires_ckpt(self):
        code, _ = run_cli("generate", "--dga", "pkdga", "--count", "3")
        assert code == 1


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

    @pytest.mark.parametrize("dga", ["kraken", "gozi", "suppobox", "pkdga"])
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
