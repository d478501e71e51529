"""Dataset splits, ROC/AUC, the anti-detection experiment matrix, the
game-based defense loop, and generation throughput benchmarks.

AUC is computed over detection scores (positive class = AGD) with tied
scores grouped into a single threshold step; the trapezoidal area then
equals the tie-corrected pairwise rank statistic.  Anti-detection ability is
1 - AUC throughout.
"""

from __future__ import annotations

import datetime as _dt
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import policy as P
from . import training
from .corpora import LabeledCorpus
from .detectors import train_detector
from .dnsenv import FeedbackEnv
from .domains import DEFAULT_TOKENS
from .errors import (ContractError, DataError, NumericError,
                     UnsupportedDetectorError)
from .rng import stream


@dataclass(frozen=True)
class RocCurve:
    points: tuple           # ordered (FPR, TPR) pairs from (0,0) to (1,1)
    auc: float


def roc_auc(scored) -> RocCurve:
    """ROC over (score, label) pairs; label 1 is the positive class.

    Thresholds sweep the distinct score values; equal scores advance the
    curve in one step, which yields the tie-corrected trapezoidal area.
    ``NumericError`` names a non-finite score, which no threshold ranks.
    """
    items = sorted(scored, key=lambda sl: -sl[0])
    for score, _ in items:
        if not math.isfinite(score):
            raise NumericError(f"ROC score {score} is not finite")
    n_pos = sum(1 for _, label in items if label)
    n_neg = len(items) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(items):
        j = i
        while j < len(items) and items[j][0] == items[i][0]:
            tp += 1 if items[j][1] else 0
            fp += 0 if items[j][1] else 1
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(tuple(points), float(auc))


def anti_detection(auc: float) -> float:
    if not 0.0 <= auc <= 1.0:
        raise ContractError("auc must lie in [0, 1]")
    return 1.0 - auc


def detection_auc(model, benign_domains, agd_domains) -> RocCurve:
    """Detector AUC on a benign/AGD sample set (positive class = AGD)."""
    return _scores_auc(model.score_many(list(benign_domains)),
                       model.score_many(list(agd_domains)))


def _scores_auc(benign_scores, agd_scores) -> RocCurve:
    """``detection_auc`` from the P(benign) scores of both sets."""
    scored = ([(float(s), 1) for s in 1.0 - agd_scores]
              + [(float(s), 0) for s in 1.0 - benign_scores])
    return roc_auc(scored)


def split_dataset(corpus: LabeledCorpus, ratio: float,
                  rng_seed: int) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Stratified, deterministic, disjoint train/test split."""
    if not 0.0 < ratio < 1.0:
        raise ContractError("ratio must lie in (0, 1)")

    def one(items, label):
        items = list(items)
        if len(items) < 2:
            raise DataError(f"class {label!r} too small to stratify")
        perm = stream("split", rng_seed, label).permutation(len(items))
        cut = int(round(len(items) * ratio))
        if cut == 0 or cut == len(items):
            raise DataError(f"class {label!r} too small for ratio {ratio}")
        train = [items[i] for i in perm[:cut]]
        test = [items[i] for i in perm[cut:]]
        return train, test

    b_train, b_test = one(corpus.benign, "benign")
    a_train, a_test = one(corpus.agd, "agd")
    return (LabeledCorpus(tuple(b_train), tuple(a_train)),
            LabeledCorpus(tuple(b_test), tuple(a_test)))


# ---------------------------------------------------------------------------
# the anti-detection matrix

@dataclass
class MatrixConfig:
    detectors: tuple = ("statistics", "neural")
    train_per_class: int = 1000
    eval_benign: int = 400
    eval_agd: int = 400
    include_mixed: bool = True
    detector_hp: dict = field(default_factory=dict)
    pkdga: training.TrainConfig | None = None
    pkdga_budget: int = 150_000


@dataclass
class ExperimentMatrix:
    """Cells indexed by (training DGA, testing DGA, detector) -> 1 - AUC."""

    cells: dict
    rows: tuple
    tests: tuple
    detectors: tuple
    failures: dict = field(default_factory=dict)

    def fig_tsv(self, detector) -> str:
        lines = ["\t".join(["train\\test", *self.tests])]
        for row in self.rows:
            vals = [f"{self.cells[(row, t, detector)]:.6f}" for t in self.tests]
            lines.append("\t".join([row, *vals]))
        return "\n".join(lines) + "\n"

    def table_tsv(self, row="mixed") -> str:
        lines = ["\t".join(["dga", *self.detectors])]
        for test in self.tests:
            vals = [f"{self.cells[(row, test, d)]:.6f}" for d in self.detectors]
            lines.append("\t".join([test, *vals]))
        return "\n".join(lines) + "\n"


def _matrix_cell(row, kind, benign_train, agd_train, benign_eval,
                 test_samples, cfg: MatrixConfig, master_seed) -> dict:
    """One cell of the matrix: {testing DGA: 1 - AUC} for the ``kind``
    detector trained on ``benign_train`` against row ``row``'s ``agd_train``.
    """
    cell_seed = ("matrix-cell", master_seed, row, kind)
    corpus = LabeledCorpus(tuple(benign_train), tuple(agd_train))
    model = train_detector(kind, corpus, hp=cfg.detector_hp.get(kind),
                           rng_seed=cell_seed)
    # every test set of the cell is ranked against one scoring of the
    # cell's benign names
    benign_scores = model.score_many(benign_eval)
    out = {}
    for test, samples in test_samples.items():
        auc = _scores_auc(benign_scores, model.score_many(samples)).auc
        out[test] = anti_detection(auc)
    if cfg.pkdga is not None:
        env = FeedbackEnv(model, seed_corpus=benign_train,
                          budget=cfg.pkdga_budget)
        result = training.train(env, cfg.pkdga, master_seed=cell_seed)
        fresh = training.generate_domains(
            result.best_params, cfg.eval_agd,
            start_date=_dt.date(2030, 1, 1), T=cfg.pkdga.length,
            tld=cfg.pkdga.tld)
        auc = _scores_auc(benign_scores, model.score_many(fresh)).auc
        out["pkdga"] = anti_detection(auc)
    return out


def _cell_outcome(args):
    """``_matrix_cell(*args)``, or the repr of the exception it raised, so
    that no exception object crosses back from a pool worker."""
    try:
        return _matrix_cell(*args)
    except Exception as exc:    # cell failures must not kill the matrix
        return repr(exc)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_matrix(dgas: dict, benign_pool, cfg: MatrixConfig,
               master_seed: int = 0) -> ExperimentMatrix:
    """Train a detector per (training DGA, detector) pair and score every
    testing DGA's fresh output against it.

    ``dgas`` maps a name to ``generator(count, rng_key) -> list[fqdn]``.
    Cells where the testing DGA is ``pkdga`` first run feedback training
    against that very cell's detector (partial-knowledge protocol) with the
    configured register-call budget.  Per-cell failures are recorded and the
    rest of the matrix completes.

    Cells share no state, so they run in forked worker processes, one per
    usable CPU and never more than there are cells; every cell is a pure
    function of its inputs and results are collected in (row, detector)
    order, so the matrix does not depend on the worker count.
    """
    benign_pool = list(benign_pool)
    need = cfg.train_per_class + cfg.eval_benign
    if len(benign_pool) < need:
        raise DataError(f"benign pool of {len(benign_pool)} < {need}")
    benign_train = benign_pool[:cfg.train_per_class]
    benign_eval = benign_pool[cfg.train_per_class:need]

    names = list(dgas)
    rows = names + (["mixed"] if cfg.include_mixed else [])
    tests = names + (["pkdga"] if cfg.pkdga is not None else [])

    row_samples = {}
    for name in names:
        row_samples[name] = dgas[name](cfg.train_per_class,
                                       ("matrix-train", master_seed, name))
    if cfg.include_mixed:
        per = cfg.train_per_class // max(1, len(names))
        mixed = []
        for name in names:
            mixed.extend(row_samples[name][:per])
        row_samples["mixed"] = mixed
    test_samples = {name: dgas[name](cfg.eval_agd,
                                     ("matrix-test", master_seed, name))
                    for name in names}

    keys = [(row, kind) for row in rows for kind in cfg.detectors]
    jobs = [(row, kind, benign_train, row_samples[row], benign_eval,
             test_samples, cfg, master_seed) for row, kind in keys]
    workers = min(_usable_cpus(), len(jobs))
    outcomes = (_pool_map(_cell_outcome, jobs, workers) if workers > 1
                else list(map(_cell_outcome, jobs)))

    failures = {}
    cells = {}
    for (row, kind), outcome in zip(keys, outcomes):
        if isinstance(outcome, str):
            failures[(row, kind)] = outcome
            outcome = dict.fromkeys(tests, float("nan"))
        for test, val in outcome.items():
            cells[(row, test, kind)] = val
    return ExperimentMatrix(cells, tuple(rows), tuple(tests),
                            tuple(cfg.detectors), failures)


def _pool_map(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]`` over ``workers`` forked processes.

    ``fork`` starts every worker before the executor's manager thread, so
    the parent forks while it runs one thread, and no worker re-imports the
    caller's ``__main__``.  A job whose worker died yields the repr of the
    ``BrokenProcessPool`` error; on any exception in the parent the pending
    jobs are cancelled, and the ``with`` block joins every worker.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        try:
            futures = [pool.submit(fn, job) for job in jobs]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as exc:
                    outcomes.append(repr(exc))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return outcomes


# ---------------------------------------------------------------------------
# game-based defense

MAX_AGDS = 2000       # most registered names the detector learns a stage
REWARD_FLOOR = 0.02   # the loop stops once a stage's best reward is below
EVAL_START = _dt.date(2033, 1, 1)  # date seed of stage 0's fresh names


@dataclass
class GameConfig:
    train_cfg: training.TrainConfig
    stage_budget: int = 150_000
    fresh_samples: int = 400
    incr_epochs: int = 8
    incr_lr: float = 0.3


@dataclass
class StageResult:
    stage: int
    detector_auc: float
    reward: float | None
    agds_used: int = 0


def game_loop(detector, benign_train, benign_eval, stages: int,
              cfg: GameConfig, master_seed: int = 0) -> list[StageResult]:
    """Alternate feedback-training the generator and incrementally training
    the detector on the adversarial names it produced.

    Per stage: (1) the generator trains against the current detector through
    a fresh-budget black-box environment (the registry persists across
    stages); (2) the detector incrementally learns the names that registered
    successfully, with benign replay; (3) the updated detector is scored on
    fresh output of that stage's generator.  Stage 0 records the baseline
    AUC against the untrained generator.  Stops early when the generator's
    best reward falls below the floor.
    """
    if not hasattr(detector, "incremental_update"):
        raise UnsupportedDetectorError(
            f"{type(detector).__name__} cannot learn incrementally")
    tc = cfg.train_cfg
    params = P.init_params(tc.n_layers, tc.d_e, tc.d_h, DEFAULT_TOKENS.n,
                           rng_seed=("game-init", master_seed))

    def fresh_names(p, stage):
        start = EVAL_START + _dt.timedelta(days=400 * stage)
        return training.generate_domains(p, cfg.fresh_samples, start,
                                         T=tc.length, tld=tc.tld)

    results = [StageResult(0, detection_auc(detector, benign_eval,
                                            fresh_names(params, 0)).auc, None)]
    benign_train = list(benign_train)
    shared_registry = set(benign_train)
    for stage in range(1, stages + 1):
        env = FeedbackEnv(detector, seed_corpus=shared_registry,
                          budget=cfg.stage_budget)
        outcome = training.train(env, tc, master_seed=(master_seed, stage),
                                 params=params)
        params = outcome.best_params
        shared_registry.update(outcome.registered)
        # stride-sample so the update set spans the whole stage, not its tail
        got = outcome.registered
        step = max(1, len(got) // MAX_AGDS)
        agds = got[::step][:MAX_AGDS]
        if agds:
            lo = ((stage - 1) * len(agds)) % max(1, len(benign_train))
            replay = (benign_train[lo:] + benign_train[:lo])[:len(agds)]
            detector.incremental_update(agds, replay, epochs=cfg.incr_epochs,
                                        lr=cfg.incr_lr,
                                        rng_key=(master_seed, stage))
        auc = detection_auc(detector, benign_eval,
                            fresh_names(params, stage)).auc
        results.append(StageResult(stage, auc, outcome.best_reward, len(agds)))
        if outcome.best_reward < REWARD_FLOOR:
            break
    return results


# ---------------------------------------------------------------------------
# throughput

def bench_inference(params: P.PolicyParams, batch_sizes, T: int = 12,
                    runs: int = 5) -> list[tuple[int, float, float]]:
    """Median wall-clock generation time per batch size, warmup excluded.

    Returns rows of (batch, total ms, ms per domain).
    """
    rows = []
    for batch in batch_sizes:
        seeds = np.zeros((batch, DEFAULT_TOKENS.n), dtype=params.dtype)
        seeds[np.arange(batch), np.arange(batch) % DEFAULT_TOKENS.n] = 1.0
        P.run_batch(params, DEFAULT_TOKENS, T, seed_vecs=seeds)  # warmup
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            P.run_batch(params, DEFAULT_TOKENS, T, seed_vecs=seeds)
            times.append((time.perf_counter() - t0) * 1000.0)
        total = float(np.median(times))
        rows.append((int(batch), total, total / batch))
    return rows


def bench_tsv(rows) -> str:
    lines = ["batch\ttotal_ms\tms_per_domain"]
    for batch, total, per in rows:
        lines.append(f"{batch}\t{total:.6f}\t{per:.6f}")
    return "\n".join(lines) + "\n"
