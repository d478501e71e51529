"""Dataset splits, ROC/AUC, the anti-detection experiment matrix, the
game-based defense loop, and generation throughput benchmarks.

AUC is computed over detection scores (positive class = AGD) with tied
scores grouped into a single threshold step; the trapezoidal area then
equals the tie-corrected pairwise rank statistic.  Anti-detection ability is
1 - AUC throughout.
"""

from __future__ import annotations

import ctypes
import datetime as _dt
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import policy as P
from . import training
from .corpora import LabeledCorpus
from .detectors import train_detector
from .domains import DEFAULT_TOKENS, CheckedNames
from .errors import (ContractError, DataError, NumericError,
                     UnsupportedDetectorError)
from .rng import stream


@dataclass(frozen=True, eq=False)
class RocCurve:
    fpr: np.ndarray         # float64, rising from 0 to 1, one point per
    tpr: np.ndarray         # distinct score, after the (0, 0) start
    auc: float
    BLOCK = 4096            # points a piece of ``csv``

    def csv(self):
        """The text of ``roc.csv``, in pieces of ``BLOCK`` points."""
        yield "fpr,tpr\n"
        for lo in range(0, len(self.fpr), self.BLOCK):
            pairs = zip(self.fpr[lo:lo + self.BLOCK].tolist(),
                        self.tpr[lo:lo + self.BLOCK].tolist())
            yield "".join(f"{x:.6f},{y:.6f}\n" for x, y in pairs)


def roc_auc(scored) -> RocCurve:
    """ROC over (score, label) pairs, an (N, 2) array or a sequence; a
    nonzero label is the positive class.

    Thresholds sweep the distinct score values; equal scores advance the
    curve in one step, which yields the tie-corrected trapezoidal area.
    ``NumericError`` names a non-finite score, which no threshold ranks.
    """
    try:
        pairs = np.asarray(scored, dtype=np.float64)
        if pairs.shape[1:] != (2,) and pairs.shape != (0,):
            raise ValueError(f"shape {pairs.shape}")
    except (TypeError, ValueError) as exc:
        raise ContractError(f"ROC needs (score, label) pairs: {exc}") from None
    score, label = pairs.reshape(-1, 2).T
    if not np.isfinite(score).all():
        raise NumericError(f"ROC score {score[~np.isfinite(score)][0]} is "
                           "not finite")
    order = np.argsort(-score, kind="stable")
    score, positive = score[order], label[order] != 0
    n_pos = int(positive.sum())
    if not 0 < n_pos < len(positive):
        raise DataError("ROC needs both classes present")
    ends = np.flatnonzero(np.append(score[1:] != score[:-1], True))
    tp = np.cumsum(positive)[ends]
    fpr = np.append(0.0, (ends + 1 - tp) / (len(positive) - n_pos))
    tpr = np.append(0.0, tp / n_pos)
    auc = np.cumsum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1]
    return RocCurve(fpr, tpr, float(auc))


def anti_detection(auc: float) -> float:
    if not 0.0 <= auc <= 1.0:
        raise ContractError("auc must lie in [0, 1]")
    return 1.0 - auc


def detection_auc(model, benign_domains, agd_domains) -> RocCurve:
    """Detector AUC on a benign/AGD sample set (positive class = AGD)."""
    return _scores_auc(model.score_many(benign_domains),
                       model.score_many(agd_domains))


def _scores_auc(benign_scores, agd_scores) -> RocCurve:
    """``detection_auc`` from the P(benign) scores of both sets."""
    scores = 1.0 - np.concatenate([agd_scores, benign_scores])
    return roc_auc(np.column_stack([scores,
                                    np.arange(len(scores)) < len(agd_scores)]))


def split_dataset(corpus: LabeledCorpus, ratio: float,
                  rng_seed: int) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Stratified, deterministic, disjoint train/test split; each part has
    its class's type, so a part of a ``CheckedNames`` is one."""
    if not 0.0 < ratio < 1.0:
        raise ContractError("ratio must lie in (0, 1)")

    def one(items, label):
        if len(items) < 2:
            raise DataError(f"class {label!r} too small to stratify")
        perm = stream("split", rng_seed, label).permutation(len(items))
        cut = int(round(len(items) * ratio))
        if cut == 0 or cut == len(items):
            raise DataError(f"class {label!r} too small for ratio {ratio}")
        part = type(items)
        return (part(items[i] for i in perm[:cut]),
                part(items[i] for i in perm[cut:]))

    b_train, b_test = one(corpus.benign, "benign")
    a_train, a_test = one(corpus.agd, "agd")
    return LabeledCorpus(b_train, a_train), LabeledCorpus(b_test, a_test)


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

    def __post_init__(self):
        if min(self.train_per_class, self.eval_benign, self.eval_agd,
               self.pkdga_budget) < 1:
            raise ContractError("train_per_class, eval_benign, eval_agd and "
                                "pkdga_budget must be >= 1")


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
    model = train_detector(kind, LabeledCorpus(benign_train, agd_train),
                           hp=cfg.detector_hp.get(kind),
                           rng_seed=cell_seed)
    # every test set of the cell is ranked against one scoring of the
    # cell's benign names
    benign_scores = model.score_many(benign_eval)
    out = {}
    for test, samples in test_samples.items():
        auc = _scores_auc(benign_scores, model.score_many(samples)).auc
        out[test] = anti_detection(auc)
    if cfg.pkdga is not None:
        result = training.campaign(model, training.Registry(benign_train),
                                   cfg.pkdga, cfg.pkdga_budget, cell_seed)
        fresh = training.generate_domains(
            result.best_params, cfg.eval_agd, start_date=_dt.date(2030, 1, 1),
            T=cfg.pkdga.length, tld=cfg.pkdga.tld)
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


# kind -> rank of its cells' cost: neural fits take longest, then fanci's
# forests; every other kind ranks 2
_COST_RANK = {"neural": 0, "fanci": 1}


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
        parts = [row_samples[name][:per] for name in names]
        checked = all(isinstance(part, CheckedNames) for part in parts)
        row_samples["mixed"] = (CheckedNames if checked else list)(
            name for part in parts for name in part)
    test_samples = {name: dgas[name](cfg.eval_agd,
                                     ("matrix-test", master_seed, name))
                    for name in names}

    keys = [(row, kind) for row in rows for kind in cfg.detectors]
    # the slowest kinds' cells start first (a stable sort); the outcomes
    # are read back in (row, detector) order
    order = sorted(keys, key=lambda key: _COST_RANK.get(key[1], 2))
    jobs = [(row, kind, benign_train, row_samples[row], benign_eval,
             test_samples, cfg, master_seed) for row, kind in order]
    workers = min(_usable_cpus(), len(jobs))
    outcomes = dict(zip(order, _pool_map(_cell_outcome, jobs, workers)
                        if workers > 1 else map(_cell_outcome, jobs)))

    failures = {}
    cells = {}
    for row, kind in keys:
        outcome = outcomes[(row, kind)]
        if isinstance(outcome, str):
            failures[(row, kind)] = outcome
            outcome = dict.fromkeys(tests, float("nan"))
        for test, val in outcome.items():
            cells[(row, test, kind)] = val
    return ExperimentMatrix(cells, tuple(rows), tuple(tests),
                            tuple(cfg.detectors), failures)


def _openblas():
    """numpy's bundled OpenBLAS, the wheel's
    ``numpy.libs/libscipy_openblas64_*`` library, or None where it is not
    found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    path = next(libs.glob("libscipy_openblas64_*"), None)
    return None if path is None else ctypes.CDLL(str(path))


def blas_thread_setter():
    """The thread-count setter of numpy's bundled OpenBLAS,
    ``scipy_openblas_set_num_threads64_``, or None where the library or the
    setter is missing; then matrix workers run the default BLAS threads."""
    setter = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
    return setter


def _one_blas_thread() -> None:
    """Pool initializer: this worker's OpenBLAS runs one thread, so that one
    worker per CPU does not run a BLAS thread per CPU each.  It does nothing
    where the library or its setter is missing."""
    setter = blas_thread_setter()
    if setter is not None:
        setter(1)


def _pool_map(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]`` over ``workers`` forked processes.

    ``fork`` starts every worker before the executor's manager thread, so
    the parent forks while it runs one thread, and no worker re-imports the
    caller's ``__main__``.  Each worker runs one BLAS thread; the parent's
    count is left alone.  A job whose worker died yields the repr of the
    ``BrokenProcessPool`` error; on any exception in the parent the pending
    jobs are cancelled, and the ``with`` block joins every worker.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context,
                             initializer=_one_blas_thread) as pool:
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

    def __post_init__(self):
        if not self.incr_lr > 0:
            raise ContractError("incr_lr must be positive")
        if min(self.stage_budget, self.fresh_samples, self.incr_epochs) < 1:
            raise ContractError("stage_budget, fresh_samples and incr_epochs "
                                "must be >= 1")


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
    registry = training.Registry(benign_train)
    for stage in range(1, stages + 1):
        got: list[str] = []
        outcome = training.campaign(detector, registry, tc,
                                    cfg.stage_budget, (master_seed, stage),
                                    params=params, registered=got)
        params = outcome.best_params
        # stride-sample so the update set spans the whole stage, not its tail
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
