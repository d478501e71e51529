"""Acceptance gate: every criterion at its stated tolerance.

Each test emits one PASS/FAIL line through the terminal reporter (visible in
a normal pytest run; use ``pytest -s`` if your plugins swallow them).
Ordering matters only for speed: expensive artifacts (corpora, detectors,
the feedback-trained generator) are built once in module-scoped fixtures.
"""

import datetime as dt
import os
import sys
import time

import numpy as np
import pytest

from dgalab import evaluation, policy
from dgalab.baselines import gozi_generate, kraken_generate, suppobox_generate
from dgalab.corpora import LabeledCorpus, bundled_benign, load_wordlist
from dgalab.detectors import train_detector
from dgalab.dnsenv import FeedbackEnv, Registry
from dgalab.domains import TokenDict, assemble_fqdn, validate_domain
from dgalab.errors import QueryBudgetError
from dgalab.evaluation import (GameConfig, detection_auc, game_loop, roc_auc,
                               bench_inference, split_dataset)
from dgalab.rng import stream
from dgalab.training import TrainConfig, generate_domains, train
import scalar_oracles as oracle
from conftest import FixedScoreDetector, cast, cli_subprocess, pairwise_auc

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-"


@pytest.fixture(scope="session")
def emit(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _emit(line):
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line, file=sys.stderr)
    return _emit


@pytest.fixture(scope="module")
def corpus_split():
    benign = bundled_benign(6250)
    agd = [core + ".com" for core in kraken_generate(77, 6250)]
    corpus = LabeledCorpus(tuple(benign), tuple(agd))
    return split_dataset(corpus, 0.8, rng_seed=20)


@pytest.fixture(scope="module")
def neural_detector(corpus_split):
    train_part, _ = corpus_split
    return train_detector("neural", train_part,
                          hp={"epochs": 6, "lr": 0.5}, rng_seed=5)


@pytest.fixture(scope="module")
def evasion_run(neural_detector, corpus_split):
    train_part, _ = corpus_split
    env = FeedbackEnv(neural_detector, Registry(train_part.benign),
                      budget=1_000_000)
    cfg = TrainConfig(lr=1.0, batch=32, mc=4, length=10, epochs=400)
    t0 = time.time()
    result = train(env, cfg, master_seed=1)
    return result, time.time() - t0, env.query_count


def judge(emit, criterion, ok, detail):
    emit(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


class TestCriterion1GradientFidelity:
    def test_gradients_match_finite_differences(self, emit):
        t0 = time.time()
        worst = 0.0
        eps = 1e-5
        for trial in range(50):
            rng = stream("accept-grad", trial)
            n = int(rng.integers(2, 11))
            d_h = int(rng.integers(2, 9))
            d_e = int(rng.integers(2, 9))
            layers = int(rng.integers(1, 3))
            T = int(rng.integers(1, 6))
            dct = TokenDict(ALPHABET[:n])
            p = cast(policy.init_params(layers, d_e, d_h, n,
                                        rng_seed=trial), np.float64)
            seed_vec = np.zeros(n)
            seed_vec[int(rng.integers(n))] = 1.0
            tokens = [int(v) for v in rng.integers(0, n, size=T)]
            weights = rng.random(T)
            analytic = oracle.logprob_grad(p, dct, seed_vec, tokens, weights)
            for name, tensor in p.tensors().items():
                flat = tensor.reshape(-1)
                aflat = analytic[name].reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + eps
                    fp = oracle.weighted_logprob(p, dct, seed_vec, tokens,
                                                 weights)
                    flat[k] = orig - eps
                    fm = oracle.weighted_logprob(p, dct, seed_vec, tokens,
                                                 weights)
                    flat[k] = orig
                    fd = (fp - fm) / (2 * eps)
                    rel = abs(aflat[k] - fd) / (abs(fd) + 1e-6)
                    worst = max(worst, rel)
        took = time.time() - t0
        judge(emit, "criterion 1 (gradient fidelity)",
              worst < 1e-4 and took < 60,
              f"max rel err {worst:.2e} over 50 policies in {took:.1f}s")


class TestCriterion2AucOracle:
    def test_trapezoid_equals_pairwise_oracle(self, emit):
        worst = 0.0
        for trial in range(200):
            rng = stream("accept-auc", trial)
            size = int(rng.integers(4, 51))
            scores = rng.integers(0, 12, size=size) / 11.0
            labels = rng.integers(0, 2, size=size)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            got = roc_auc(list(zip(scores.tolist(), labels.tolist()))).auc
            want = pairwise_auc(scores[labels == 1], scores[labels == 0])
            worst = max(worst, abs(got - want))
        judge(emit, "criterion 2 (AUC oracle equivalence)", worst <= 1e-12,
              f"max |trapezoid - pairwise| = {worst:.2e} over 200 sets")


class TestCriterion3BaselineDetectability:
    def test_neural_and_statistics_detect_kraken(self, emit, corpus_split,
                                                 neural_detector):
        train_part, test_part = corpus_split
        t0 = time.time()
        auc_n = detection_auc(neural_detector, test_part.benign,
                              test_part.agd).auc
        stats = train_detector("statistics", train_part, rng_seed=5)
        auc_s = detection_auc(stats, test_part.benign, test_part.agd).auc
        took = time.time() - t0
        judge(emit, "criterion 3 (baseline detectability)",
              auc_n >= 0.90 and auc_s >= 0.85 and took < 600,
              f"neural AUC {auc_n:.4f} (>=0.90), statistics AUC {auc_s:.4f} "
              f"(>=0.85) in {took:.0f}s")


class TestCriterion4Evasion:
    def test_feedback_training_defeats_detector(self, emit, corpus_split,
                                                neural_detector, evasion_run):
        _, test_part = corpus_split
        result, took, queries = evasion_run
        fresh = generate_domains(result.best_params, 1000,
                                 dt.date(2031, 1, 1), T=10)
        auc = detection_auc(neural_detector, test_part.benign[:1000],
                            fresh).auc
        improvement = result.best_reward - result.curve[0]
        judge(emit, "criterion 4 (evasion)",
              auc <= 0.65 and improvement >= 0.3 and queries <= 1_000_000
              and took < 7200,
              f"AUC on 1000 fresh {auc:.4f} (<=0.65), reward "
              f"{result.curve[0]:.3f}->{result.best_reward:.3f} "
              f"(+{improvement:.3f}>=0.3), {queries} register calls, {took:.0f}s")


class TestCriterion5NoveltySemantics:
    def test_outcome_always_product_of_factors(self, emit):
        rng = stream("accept-novelty")
        det = FixedScoreDetector(lambda d: (len(d) * 7 + d.count("a")) % 10 / 10)
        env = FeedbackEnv(det, budget=30_000)
        checked = 0
        for i in range(5_000):
            name = f"{'ab'[int(rng.integers(2))]}{int(rng.integers(1500))}.com"
            first = env.register(name)
            second = env.register(name)
            d = first.d_factor
            assert first.outcome == d * first.n_factor
            assert second.outcome == second.d_factor * second.n_factor
            # consecutive calls: (d and novel, 0 * d)
            if first.outcome == 1:
                assert second.n_factor == 0 and second.outcome == 0
            checked += 2
        judge(emit, "criterion 5 (novelty semantics)", checked == 10_000,
              f"{checked} randomized register calls, outcome == d*n held")


class TestCriterion6Determinism:
    def _run(self, argv, hash_seed, preexec_fn=None, extra_env=None):
        proc = cli_subprocess(argv, hash_seed, preexec_fn, extra_env)
        assert proc.returncode == 0, proc.stderr
        return proc

    @staticmethod
    def _same_results(a, b) -> tuple[bool, int]:
        """Whether run directories ``a`` and ``b`` hold the same result
        files, byte for byte, with ``manifest.json`` (which holds a
        timestamp) left out; and how many result files ``a`` holds."""
        names = [sorted(p.name for p in d.iterdir()
                        if p.name != "manifest.json") for d in (a, b)]
        same = names[0] == names[1] and bool(names[0]) and all(
            (a / f).read_bytes() == (b / f).read_bytes() for f in names[0])
        return same, len(names[0])

    def test_train_and_matrix_reruns_byte_identical(self, emit, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "train.lr = 1.0\ntrain.batch = 8\ntrain.mc = 2\n"
            "train.length = 10\ntrain.epochs = 6\nenv.budget = 20000\n"
            "detector.neural.epochs = 2\n"
            "matrix.detectors = statistics\nmatrix.train_per_class = 120\n"
            "matrix.eval_benign = 60\nmatrix.eval_agd = 60\n"
            "matrix.dgas = kraken,suppobox\nmatrix.pkdga = true\n"
            "matrix.pkdga_budget = 6000\n")
        self._run(["prep", "--out", str(tmp_path / "prep"), "--benign", "300",
                   "--agd", "300", "--seed", "1"], "11")
        self._run(["detector-train", "--kind", "neural",
                   "--benign", str(tmp_path / "prep" / "benign.txt"),
                   "--agd", str(tmp_path / "prep" / "kraken.txt"),
                   "--out", str(tmp_path / "det"),
                   "--config", str(cfgfile), "--seed", "3"], "12")
        # the policy and the neural detector run BLAS products in every
        # epoch, so the train pair runs them at two BLAS thread counts
        outs = {}
        for tag, blas, hs in (("a", "1", "101"), ("b", "2", "202")):
            out = tmp_path / f"train-{tag}"
            self._run(["train", "--env", str(tmp_path / "det" / "detector.ckpt"),
                       "--benign", str(tmp_path / "prep" / "benign.txt"),
                       "--out", str(out), "--config", str(cfgfile),
                       "--seed", "4"], hs,
                      extra_env={"OPENBLAS_NUM_THREADS": blas})
            outs[tag] = out
        train_same, train_files = self._same_results(outs["a"], outs["b"])
        # one matrix child runs on a single CPU, so in one worker; the
        # other runs one worker per CPU of this process, at most one per
        # cell (kraken, suppobox and mixed rows, one detector)
        cpus = os.sched_getaffinity(0)
        one_cpu = {min(cpus)}
        workers = min(len(cpus), 3)
        mouts = {}
        for tag, pin, hs in (("a", True, "303"), ("b", False, "404")):
            out = tmp_path / f"matrix-{tag}"
            self._run(["matrix", "--benign", str(tmp_path / "prep" / "benign.txt"),
                       "--out", str(out), "--config", str(cfgfile),
                       "--seed", "5"], hs,
                      (lambda: os.sched_setaffinity(0, one_cpu)) if pin
                      else None)
            mouts[tag] = out
        matrix_same, matrix_files = self._same_results(mouts["a"], mouts["b"])
        judge(emit, "criterion 6 (determinism)", train_same and matrix_same,
              f"train across hash seeds 101/202 and OPENBLAS_NUM_THREADS 1/2, "
              f"{train_files} files byte-identical: {train_same}; matrix "
              f"across hash seeds 303/404 and 1/{workers} workers, "
              f"{matrix_files} files byte-identical: {matrix_same}")


class TestCriterion7GameDefense:
    def test_incremental_detector_recovers(self, emit, corpus_split):
        train_part, test_part = corpus_split
        t0 = time.time()
        det = train_detector("neural", train_part,
                             hp={"epochs": 6, "lr": 0.5,
                                 "bidirectional": True}, rng_seed=5)
        cfg = GameConfig(
            train_cfg=TrainConfig(lr=1.0, batch=32, mc=4, length=10,
                                  epochs=150),
            stage_budget=200_000, fresh_samples=500, incr_epochs=8,
            incr_lr=0.3)
        results = game_loop(det, list(train_part.benign),
                            list(test_part.benign), stages=3, cfg=cfg,
                            master_seed=2)
        took = time.time() - t0
        stage_aucs = [r.detector_auc for r in results if r.stage > 0]
        nondecreasing = all(b >= a - 0.05
                            for a, b in zip(stage_aucs, stage_aucs[1:]))
        # an early stop means the generator's reward fell below the floor:
        # the defense converged before exhausting the stage budget
        complete = (len(stage_aucs) == 3
                    or results[-1].reward < evaluation.REWARD_FLOOR)
        ok = (complete and stage_aucs[-1] >= 0.75 and nondecreasing
              and took < 14_400)
        judge(emit, "criterion 7 (game-based defense)", ok,
              "stage AUCs " + ", ".join(f"{a:.3f}" for a in stage_aucs)
              + f" (final >=0.75, band 0.05) in {took:.0f}s")


class TestCriterion8Throughput:
    def test_per_domain_time(self, emit, evasion_run):
        result, _, _ = evasion_run
        rows = bench_inference(result.best_params, [8, 128], T=10)
        per8 = rows[0][2]
        per128 = rows[1][2]
        judge(emit, "criterion 8 (throughput)",
              per128 <= 10.0 and per128 <= per8,
              f"{per128:.3f} ms/domain at batch 128 (<=10ms), "
              f"{per8:.3f} ms at batch 8 (monotone trend)")


class TestCriterion9Validity:
    def test_every_generator_emits_valid_names(self, emit, evasion_run):
        count = 100_000
        words_a = load_wordlist(bundled="words_a.txt")
        words_b = load_wordlist(bundled="words_b.txt")
        bad = 0
        for doms in (kraken_generate(3, count),
                     gozi_generate(words_a, 3, count),
                     suppobox_generate(words_a, words_b, 3, count)):
            for d in doms:
                if not validate_domain(assemble_fqdn(d, "com")):
                    bad += 1
        result, _, _ = evasion_run
        fresh = generate_domains(result.best_params, count,
                                 dt.date(2032, 1, 1), T=10, per_date=200)
        bad += sum(not validate_domain(n) for n in fresh)
        judge(emit, "criterion 9 (validity)", bad == 0,
              f"{4 * count} generated names, {bad} invalid")
