import datetime as dt
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgalab import cli, policy
from dgalab.baselines import kraken_generate, suppobox_generate
from dgalab.corpora import LabeledCorpus, load_wordlist, synthesize_benign
from dgalab.detectors import train_detector
from dgalab.errors import (ContractError, DataError, NumericError,
                           UnsupportedDetectorError)
from dgalab.evaluation import (GameConfig, MatrixConfig, RocCurve,
                               anti_detection, bench_inference, bench_tsv,
                               detection_auc, game_loop, roc_auc, run_matrix,
                               split_dataset)
from dgalab.rng import stream
from dgalab.training import TrainConfig
import scalar_oracles as oracle
from conftest import FixedScoreDetector, pairwise_auc


class TestRocAuc:
    def test_perfect_separation(self):
        scored = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
        assert roc_auc(scored).auc == 1.0

    def test_all_equal_is_chance(self):
        scored = [(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]
        assert roc_auc(scored).auc == 0.5

    def test_matches_pairwise_oracle_with_ties(self):
        rng = stream("auc-oracle")
        for trial in range(200):
            n = int(rng.integers(4, 50))
            scores = rng.integers(0, 10, size=n) / 10.0  # many ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scored = list(zip(scores.tolist(), labels.tolist()))
            got = roc_auc(scored).auc
            want = pairwise_auc(scores[labels == 1], scores[labels == 0])
            assert got == pytest.approx(want, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc([(0.5, 1), (0.2, 1)])

    @pytest.mark.parametrize("label", [0, 1])
    def test_nan_score_rejected(self, label):
        with pytest.raises(NumericError, match="^ROC score nan is not "
                                               "finite$"):
            roc_auc([(0.2, 1), (float("nan"), label), (0.1, 0)])

    def test_curve_monotone_and_bounded(self):
        rng = stream("auc-curve")
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        curve = roc_auc(list(zip(scores, labels)))
        for axis in (curve.fpr, curve.tpr):
            assert axis.dtype == np.float64
            assert axis.tobytes() == np.sort(axis).tobytes()
            assert axis[[0, -1]].tobytes() == np.array([0.0, 1.0]).tobytes()

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 1)),
                    min_size=4, max_size=40))
    @settings(max_examples=60)
    def test_monotone_transform_invariance(self, raw):
        scored = [(k / 100.0, l) for k, l in raw]
        labels = [l for _, l in scored]
        if min(labels) == max(labels):
            scored[0] = (scored[0][0], 1 - scored[0][1])
        base = roc_auc(scored).auc
        warped = [(s * s * 3.0 + 1.0, l) for s, l in scored]
        assert roc_auc(warped).auc == pytest.approx(base, abs=1e-12)

    def test_label_flip_complements_auc(self):
        rng = stream("auc-flip")
        scores = rng.random(30)  # ties have measure zero
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        scored = list(zip(scores, labels))
        flipped = [(s, 1 - l) for s, l in scored]
        assert roc_auc(flipped).auc == pytest.approx(1.0 - roc_auc(scored).auc,
                                                     abs=1e-12)

    @given(n=st.integers(2, 5000),
           levels=st.one_of(st.integers(1, 8), st.integers(9, 5000)),
           seed=st.integers(0, 2 ** 32 - 1), float32=st.booleans(),
           as_array=st.booleans(),
           bad=st.none() | st.sampled_from([float("nan"), float("inf"),
                                            -float("inf")]))
    @settings(max_examples=100, deadline=None)
    def test_equals_item_sweep_oracle(self, n, levels, seed, float32,
                                      as_array, bad):
        # heavy ties from few score levels, +0.0 and -0.0 in one tie group,
        # float32-rounded scores, a list or an array, and the oracle's
        # error for a non-finite score or for one class present
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=levels)[rng.integers(0, levels, n)]
        zeros = rng.random(n) < 0.2
        scores[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        if float32:
            scores = scores.astype(np.float32).astype(np.float64)
        if bad is not None:
            scores[rng.integers(n)] = bad
        labels = (rng.random(n) < rng.random()).astype(np.int64)
        pairs = list(zip(scores.tolist(), labels.tolist()))
        given_ = np.column_stack([scores, labels]) if as_array else pairs
        try:
            want = oracle.roc_sweep(pairs)
        except (DataError, NumericError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                roc_auc(given_)
            return
        got = roc_auc(given_)
        assert got.fpr.tobytes() == want.fpr.tobytes()
        assert got.tpr.tobytes() == want.tpr.tobytes()
        assert got.auc.hex() == want.auc.hex()

    def test_curve_of_distinct_scores_retains_two_arrays(self):
        # 20,000 distinct scores give 20,001 points: two float64 arrays of
        # 160 kB each, and no Python object per point
        rng = stream("auc-memory")
        pairs = np.column_stack([rng.permutation(20_000) / 20_000.0,
                                 rng.integers(0, 2, 20_000)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            curve = roc_auc(pairs)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(curve.fpr) == len(curve.tpr) == 20_001
        assert retained < 1_000_000

    @pytest.mark.parametrize("points", [
        1, RocCurve.BLOCK - 1, RocCurve.BLOCK, RocCurve.BLOCK + 1,
        3 * RocCurve.BLOCK])
    def test_csv_equals_one_joined_string(self, tmp_path, points):
        # eval writes roc.csv a block of points at a time; the file holds
        # the bytes of the whole-text join, for random values and for
        # values already on six decimals
        rng = stream("roc-csv", points)
        fpr = np.sort(rng.random(points))
        fpr[::7] = np.round(fpr[::7], 6)
        curve = RocCurve(fpr, np.sort(rng.random(points)) ** 3, 0.5)
        path = tmp_path / "roc.csv"
        cli._emit(path, curve.csv())
        assert path.read_bytes() == oracle.roc_csv_text(curve).encode()

    @pytest.mark.parametrize("scored", [
        [0.5, 0.2], [(0.5, 1, 0), (0.2, 0, 0)], [(0.5, 1), (0.2,)],
        [("high", 1), ("low", 0)], np.zeros((2, 2, 1))])
    def test_not_pairs_rejected(self, scored):
        with pytest.raises(ContractError,
                           match=re.escape("ROC needs (score, label) pairs")):
            roc_auc(scored)


class TestAntiDetection:
    def test_values(self):
        assert anti_detection(1.0) == 0.0
        assert anti_detection(0.5) == 0.5
        assert anti_detection(0.9174) == pytest.approx(0.0826)

    def test_range_check(self):
        with pytest.raises(ContractError):
            anti_detection(1.5)


class TestSplit:
    def _corpus(self, nb=10, na=10):
        return LabeledCorpus(tuple(f"b{i}.com" for i in range(nb)),
                             tuple(f"a{i}.com" for i in range(na)))

    def test_eighty_twenty(self):
        train, test = split_dataset(self._corpus(), 0.8, rng_seed=0)
        assert len(train.benign) == 8 and len(test.benign) == 2
        assert len(train.agd) == 8 and len(test.agd) == 2

    def test_deterministic(self):
        a = split_dataset(self._corpus(40, 40), 0.8, rng_seed=5)
        b = split_dataset(self._corpus(40, 40), 0.8, rng_seed=5)
        assert a[0].benign == b[0].benign and a[1].agd == b[1].agd

    def test_disjoint_and_complete(self):
        train, test = split_dataset(self._corpus(25, 17), 0.6, rng_seed=2)
        for cls in ("benign", "agd"):
            tr = set(getattr(train, cls))
            te = set(getattr(test, cls))
            assert tr.isdisjoint(te)
            assert tr | te == set(getattr(self._corpus(25, 17), cls))

    def test_too_small_to_stratify(self):
        with pytest.raises(DataError):
            split_dataset(LabeledCorpus(("b.com",), ("a1.com", "a2.com")),
                          0.8, rng_seed=0)


def _dga_map():
    from dgalab.rng import stream_key
    words_a = load_wordlist(bundled="words_a.txt")
    words_b = load_wordlist(bundled="words_b.txt")

    def kraken(count, key):
        return [core + ".com" for core in
                kraken_generate(stream_key(key) % 10_000, count)]

    def suppobox(count, key):
        return [core + ".com" for core in
                suppobox_generate(words_a, words_b,
                                  stream_key(key) % 10_000, count)]
    return {"kraken": kraken, "suppobox": suppobox}


class TestMatrix:
    def test_single_cell(self):
        benign = synthesize_benign(260, rng_seed=3)
        dgas = {"kraken": _dga_map()["kraken"]}
        cfg = MatrixConfig(detectors=("statistics",), train_per_class=160,
                           eval_benign=80, eval_agd=80, include_mixed=False,
                           pkdga=None)
        matrix = run_matrix(dgas, benign, cfg, master_seed=0)
        assert set(matrix.cells) == {("kraken", "kraken", "statistics")}
        val = matrix.cells[("kraken", "kraken", "statistics")]
        assert 0.0 <= val <= 1.0
        assert not matrix.failures

    def test_benign_names_scored_once_per_cell(self, monkeypatch):
        from dgalab import evaluation
        scored = []

        def recording(*args, **kwargs):
            model = train_detector(*args, **kwargs)
            score_many = model.score_many

            def recorded(names):
                scored.append(list(names))
                return score_many(names)
            model.score_many = recorded
            return model

        monkeypatch.setattr(evaluation, "train_detector", recording)
        # the calls are recorded in this process, so no cell may run in a
        # forked worker
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
        benign = synthesize_benign(260, rng_seed=3)
        cfg = MatrixConfig(detectors=("statistics",), train_per_class=160,
                           eval_benign=80, eval_agd=80, include_mixed=False,
                           pkdga=None)
        run_matrix(_dga_map(), benign, cfg, master_seed=0)
        # two cells, each scoring its benign names and two test sets
        assert len(scored) == 6
        assert sum(names == benign[160:240] for names in scored) == 2

    def test_diagonal_present_and_layouts(self):
        benign = synthesize_benign(400, rng_seed=3)
        cfg = MatrixConfig(detectors=("statistics", "fanci"),
                           train_per_class=200, eval_benign=100, eval_agd=100,
                           include_mixed=True, pkdga=None,
                           detector_hp={"fanci": {"trees": 8}})
        matrix = run_matrix(_dga_map(), benign, cfg, master_seed=1)
        for dga in ("kraken", "suppobox"):
            for det in ("statistics", "fanci"):
                assert np.isfinite(matrix.cells[(dga, dga, det)])
        fig = matrix.fig_tsv("statistics")
        lines = fig.strip().split("\n")
        assert lines[0].split("\t") == ["train\\test", "kraken", "suppobox"]
        assert len(lines) == 4  # kraken, suppobox, mixed
        table = matrix.table_tsv()
        assert table.startswith("dga\tstatistics\tfanci")

    def test_cell_failure_recorded_matrix_completes(self):
        benign = synthesize_benign(260, rng_seed=3)
        cfg = MatrixConfig(detectors=("statistics", "not-a-kind"),
                           train_per_class=160, eval_benign=80, eval_agd=80,
                           include_mixed=False, pkdga=None)
        dgas = {"kraken": _dga_map()["kraken"]}
        matrix = run_matrix(dgas, benign, cfg, master_seed=0)
        assert ("kraken", "not-a-kind") in matrix.failures
        assert np.isnan(matrix.cells[("kraken", "kraken", "not-a-kind")])
        assert np.isfinite(matrix.cells[("kraken", "kraken", "statistics")])

    def test_cells_identical_across_worker_counts(self, monkeypatch):
        from dgalab import evaluation
        benign = synthesize_benign(260, rng_seed=3)
        # fanci's cells run before statistics' and the failing kind's
        cfg = MatrixConfig(detectors=("statistics", "not-a-kind", "fanci"),
                           train_per_class=120, eval_benign=60, eval_agd=60,
                           include_mixed=True,
                           pkdga=TrainConfig(lr=1.0, batch=4, mc=2, length=8,
                                             epochs=3),
                           pkdga_budget=2_000)
        matrices = {}
        for workers in (1, 2):
            monkeypatch.setattr(evaluation, "_usable_cpus", lambda: workers)
            matrices[workers] = run_matrix(_dga_map(), benign, cfg,
                                           master_seed=2)
        one, two = matrices[1], matrices[2]
        assert list(one.cells) == list(two.cells) == [
            (row, test, kind) for row in one.rows for kind in cfg.detectors
            for test in one.tests]
        values = [np.array(list(m.cells.values())) for m in (one, two)]
        assert values[0].tobytes() == values[1].tobytes()
        assert np.isnan(values[0]).sum() == len(one.rows) * len(one.tests)
        assert one.failures == two.failures
        assert set(one.failures) == {(row, "not-a-kind") for row in one.rows}

    def test_dead_worker_fails_its_cells(self, monkeypatch):
        import multiprocessing
        import os
        from dgalab import evaluation
        cell = evaluation._matrix_cell

        def dying(row, kind, *args):
            if (row, kind) == ("suppobox", "statistics"):
                os._exit(1)
            return cell(row, kind, *args)

        monkeypatch.setattr(evaluation, "_matrix_cell", dying)
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        benign = synthesize_benign(260, rng_seed=3)
        cfg = MatrixConfig(detectors=("statistics",), train_per_class=120,
                           eval_benign=60, eval_agd=60, include_mixed=True,
                           pkdga=None)
        matrix = run_matrix(_dga_map(), benign, cfg, master_seed=0)
        assert ("suppobox", "statistics") in matrix.failures
        assert all(err.startswith("BrokenProcessPool(")
                   for err in matrix.failures.values())
        for row, kind in matrix.failures:
            assert np.isnan(matrix.cells[(row, "kraken", kind)])
        assert multiprocessing.active_children() == []

    def test_each_worker_runs_one_blas_thread(self):
        import ctypes
        from dgalab import evaluation
        lib = evaluation._openblas()
        if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy's bundled OpenBLAS (numpy.libs/"
                        "libscipy_openblas64_*) or its thread count getter "
                        "was not found")
        get = lib.scipy_openblas_get_num_threads64_
        get.restype = ctypes.c_int
        set_threads = lib.scipy_openblas_set_num_threads64_
        set_threads.argtypes = [ctypes.c_int]
        before = get()
        set_threads(2)  # the default on two CPUs, whatever the environment
        try:
            assert evaluation._pool_map(_blas_threads, [0, 1], 2) == [1, 1]
            assert get() == 2
        finally:
            set_threads(before)

    def test_pkdga_column_dominates_zero_knowledge_on_average(self):
        # per-cell feedback training adapts to every detector, so the
        # feedback generator's anti-detection marginal should beat the
        # fixed families' marginals regardless of the training row
        from dgalab.corpora import bundled_benign
        benign = bundled_benign(1600)
        cfg = MatrixConfig(
            detectors=("statistics", "neural"),
            train_per_class=800, eval_benign=400, eval_agd=400,
            include_mixed=False,
            detector_hp={"neural": {"epochs": 4}},
            pkdga=TrainConfig(lr=1.0, batch=16, mc=3, length=10, epochs=100),
            pkdga_budget=120_000)
        matrix = run_matrix(_dga_map(), benign, cfg, master_seed=3)
        assert not matrix.failures
        means = {}
        for test in matrix.tests:
            vals = [matrix.cells[(row, test, det)]
                    for row in matrix.rows for det in matrix.detectors]
            means[test] = float(np.mean(vals))
        assert means["pkdga"] > means["kraken"]
        assert means["pkdga"] > means["suppobox"]


def _blas_threads(_job) -> int:
    """The BLAS thread count of the process that runs this job."""
    import ctypes
    from dgalab import evaluation
    get = evaluation._openblas().scipy_openblas_get_num_threads64_
    get.restype = ctypes.c_int
    return get()


class TestGameLoop:
    def test_zero_stages_baseline_only(self):
        benign = synthesize_benign(240, rng_seed=2)
        corpus = LabeledCorpus(tuple(benign[:160]),
                               tuple(core + ".com"
                                     for core in kraken_generate(3, 160)))
        det = train_detector("neural", corpus, hp={"epochs": 2}, rng_seed=0)
        cfg = GameConfig(train_cfg=TrainConfig(lr=1.0, batch=4, mc=2,
                                               length=8, epochs=2),
                         stage_budget=5_000, fresh_samples=40)
        out = game_loop(det, benign[:160], benign[160:240], stages=0, cfg=cfg)
        assert len(out) == 1
        assert out[0].stage == 0 and out[0].reward is None
        assert 0.0 <= out[0].detector_auc <= 1.0

    def test_one_stage_improves_on_its_own_agds(self):
        benign = synthesize_benign(300, rng_seed=6)
        corpus = LabeledCorpus(tuple(benign[:200]),
                               tuple(core + ".com"
                                     for core in kraken_generate(8, 200)))
        det = train_detector("neural", corpus, hp={"epochs": 3}, rng_seed=1)
        cfg = GameConfig(train_cfg=TrainConfig(lr=1.0, batch=8, mc=2,
                                               length=8, epochs=30),
                         stage_budget=20_000, fresh_samples=60,
                         incr_epochs=5, incr_lr=0.3)
        # capture stage AGDs by running the stage manually first
        from dgalab.dnsenv import FeedbackEnv, Registry
        from dgalab import training as tr
        env = FeedbackEnv(det, Registry(benign[:200]), budget=20_000)
        registered = []
        tr.train(env, cfg.train_cfg, master_seed=(7, 1), registered=registered)
        agds = registered[-500:]
        if agds:
            before = detection_auc(det, benign[200:300], agds).auc
            det.incremental_update(agds, benign[:len(agds)], epochs=5, lr=0.3)
            after = detection_auc(det, benign[200:300], agds).auc
            assert after >= before - 1e-9

    @pytest.mark.parametrize("threshold, rewarded", [(0.7, False),
                                                     (0.5, True)])
    def test_verdict_follows_the_detector_threshold(self, threshold,
                                                    rewarded):
        class Constant(FixedScoreDetector):
            def incremental_update(self, *args, **kwargs):
                pass

        det = Constant(lambda d: 0.6, threshold=threshold)
        benign = synthesize_benign(40, rng_seed=3)
        cfg = GameConfig(train_cfg=TrainConfig(lr=1.0, batch=4, mc=2,
                                               length=8, epochs=2),
                         stage_budget=5_000, fresh_samples=20)
        out = game_loop(det, benign[:20], benign[20:], stages=1, cfg=cfg)
        assert out[1].stage == 1
        reward = out[1].reward
        assert reward > 0 if rewarded else reward == 0

    def test_stages_share_one_registry(self, monkeypatch):
        # every stage's env gets the one registry the game built from its
        # benign training names, and each accepted name is inserted into
        # it in place, so no stage copies the names of the stages before
        from dgalab.dnsenv import FeedbackEnv, Registry

        class Constant(FixedScoreDetector):
            def incremental_update(self, *args, **kwargs):
                pass

        registries, accepted = [], []
        init, register_many = FeedbackEnv.__init__, FeedbackEnv.register_many

        def recorded_init(self, detector, registry=None, **kwargs):
            registries.append(registry)
            init(self, detector, registry, **kwargs)

        def recorded_register_many(self, fqdns):
            records = register_many(self, fqdns)
            accepted.extend(name for name, outcome
                            in zip(fqdns, records.outcome) if outcome)
            return records

        monkeypatch.setattr(FeedbackEnv, "__init__", recorded_init)
        monkeypatch.setattr(FeedbackEnv, "register_many",
                            recorded_register_many)
        benign = synthesize_benign(40, rng_seed=3)
        cfg = GameConfig(train_cfg=TrainConfig(lr=1.0, batch=4, mc=2,
                                               length=8, epochs=2),
                         stage_budget=5_000, fresh_samples=20)
        out = game_loop(Constant(lambda d: 0.6), benign[:20], benign[20:],
                        stages=2, cfg=cfg)
        assert [r.stage for r in out] == [0, 1, 2]
        assert len(registries) == 2 and registries[0] is registries[1]
        assert isinstance(registries[0], Registry)
        assert accepted
        assert all(name in registries[0] for name in benign[:20] + accepted)
        assert not any(name in registries[0] for name in benign[20:])

    def test_non_incremental_kind_unsupported(self):
        corpus = LabeledCorpus(tuple(synthesize_benign(40, rng_seed=1)),
                               tuple(core + ".com"
                                     for core in kraken_generate(2, 40)))
        det = train_detector("statistics", corpus, rng_seed=0)
        cfg = GameConfig(train_cfg=TrainConfig(lr=1.0))
        with pytest.raises(UnsupportedDetectorError):
            game_loop(det, [], [], stages=1, cfg=cfg)


class TestBench:
    def test_rows_and_batch_one(self):
        p = policy.init_params(1, 8, 16, 37, rng_seed=0)
        rows = bench_inference(p, [1, 8], T=8, runs=3)
        assert len(rows) == 2
        batch, total, per = rows[0]
        assert batch == 1
        assert total == pytest.approx(per, rel=1e-9)
        tsv = bench_tsv(rows)
        assert tsv.startswith("batch\ttotal_ms\tms_per_domain")
