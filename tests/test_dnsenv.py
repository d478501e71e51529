import inspect

import pytest

from dgalab.baselines import kraken_generate
from dgalab.corpora import LabeledCorpus, synthesize_benign
from dgalab.detectors import train_detector
from dgalab.dnsenv import FeedbackEnv, fluxing_round
from dgalab.errors import (DataError, FluxingRoundError, QueryBudgetError)
from dgalab.rng import stream


def make_env(fixed_detector_factory, rule=lambda d: 0.9, **kw):
    det = fixed_detector_factory(rule)
    return FeedbackEnv(det, **kw)


class TestRegister:
    def test_novel_benign_registers(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory)
        fb = env.register("fresh.com")
        assert (fb.outcome, fb.d_factor, fb.n_factor) == (1, 1, 1)
        assert env.resolve("fresh.com") is not None

    def test_second_attempt_blocked_by_novelty(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory)
        first = env.register("twice.com")
        second = env.register("twice.com")
        assert first.outcome == 1
        assert (second.outcome, second.d_factor, second.n_factor) == (0, 1, 0)

    def test_agd_scoring_rejected_and_not_inserted(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory, rule=lambda d: 0.1)
        fb = env.register("bad.com")
        assert (fb.outcome, fb.d_factor, fb.n_factor) == (0, 0, 1)
        assert env.resolve("bad.com") is None
        # registry unchanged: a later registration of the same name is still novel
        assert env.register("bad.com").n_factor == 1

    def test_invalid_name_no_counter_increment(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory)
        with pytest.raises(DataError):
            env.register("-bad-.com")
        assert env.query_count == 0

    def test_newline_name_is_data_error_before_scoring(self):
        corpus = LabeledCorpus(tuple(synthesize_benign(40, rng_seed=4)),
                               tuple(core + ".com"
                                     for core in kraken_generate(4, 40)))
        det = train_detector("neural", corpus, hp={"epochs": 1}, rng_seed=0)
        env = FeedbackEnv(det)
        for names in (["abc.com\n"], ["abc\n.com"], ["ok.com", "abc.com\n"]):
            with pytest.raises(DataError):
                env.register_many(names)
        assert env.query_count == 0
        assert env.register("abc.com").n_factor == 1

    def test_seeded_corpus_blocks_replay(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory,
                       seed_corpus=["popular.com", "famous.net"])
        fb = env.register("popular.com")
        assert fb.outcome == 0 and fb.n_factor == 0
        assert env.resolve("famous.net") is not None

    def test_budget_enforced(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory, budget=3)
        for i in range(3):
            env.register(f"name{i}.com")
        with pytest.raises(QueryBudgetError):
            env.register("name3.com")

    def test_outcome_product_invariant_randomized(self, fixed_detector_factory):
        rng = stream("novelty-prop")
        env = make_env(fixed_detector_factory,
                       rule=lambda d: 0.8 if len(d) % 2 else 0.2,
                       budget=20_001)
        for i in range(10_000):
            name = f"x{rng.integers(0, 2000)}{'a' * int(rng.integers(0, 3))}.com"
            fb = env.register(name)
            assert fb.outcome == fb.d_factor * fb.n_factor

    def test_batched_matches_sequential(self, fixed_detector_factory):
        names = ["a.com", "b.com", "a.com", "c.com", "b.com"]
        env1 = make_env(fixed_detector_factory)
        seq = [env1.register(n) for n in names]
        env2 = make_env(fixed_detector_factory)
        batch = env2.register_many(names)
        assert [f.outcome for f in seq] == [f.outcome for f in batch]
        assert [f.n_factor for f in seq] == [f.n_factor for f in batch]


class TestBlackBox:
    def test_no_public_detector_access(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory)
        public = [a for a in dir(env) if not a.startswith("_")]
        assert set(public) <= {"register", "register_many", "resolve",
                               "query_count", "budget", "close"}
        for attr in public:
            assert "score" not in attr
        leaked = [a for a in vars(env)
                  if "detector" in a.lower() and not a.startswith("_FeedbackEnv__")]
        assert leaked == []


class TestThreshold:
    def test_env_neither_takes_nor_stores_a_threshold(
            self, fixed_detector_factory):
        assert "threshold" not in inspect.signature(FeedbackEnv).parameters
        env = make_env(fixed_detector_factory)
        assert not [a for a in vars(env) if "threshold" in a.lower()]

    def test_verdict_follows_the_detector_at_each_call(
            self, fixed_detector_factory):
        det = fixed_detector_factory(lambda d: 0.6, threshold=0.7)
        env = FeedbackEnv(det)
        assert env.register("one.com").d_factor == 0
        det.threshold = 0.5
        assert env.register("one.com").d_factor == 1


class TestAuditLog:
    def test_append_only_tsv(self, fixed_detector_factory, tmp_path):
        path = tmp_path / "audit.tsv"
        env = make_env(fixed_detector_factory, audit_path=path)
        env.register("one.com")
        env.register("one.com")
        env2 = make_env(fixed_detector_factory, audit_path=path)
        env2.register("two.com")
        rows = [line.split("\t")
                for line in path.read_text().strip().split("\n")]
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 5  # query number, fqdn, d, n, outcome
            assert row[4] == str(int(row[2]) * int(row[3]))
        assert [row[0] for row in rows] == ["1", "2", "1"]
        assert rows[0][1] == "one.com" and rows[2][1] == "two.com"
        assert rows[1][3] == "0"  # second attempt lost novelty


class TestResolve:
    def test_unregistered_is_none(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory)
        assert env.resolve("nothere.com") is None

    def test_one_hit_among_candidates(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory, rule=lambda d: 0.0)
        candidates = [f"cand{i}.com" for i in range(100)]
        chosen = candidates[41]
        env._registered.add(chosen)  # simulate an out-of-band registration
        hits = [c for c in candidates if env.resolve(c) is not None]
        assert hits == [chosen]


class TestFluxing:
    def test_first_candidate_registrable(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory)
        name, attempts = fluxing_round(env, ["one.com"])
        assert name == "one.com" and attempts == 1

    def test_attempts_equal_first_registrable_index(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory,
                       rule=lambda d: 0.9 if d.startswith("ok") else 0.1)
        cands = ["no1.com", "no2.com", "ok3.com", "ok4.com"]
        name, attempts = fluxing_round(env, cands)
        assert name == "ok3.com" and attempts == 3

    def test_all_rejected_raises(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory, rule=lambda d: 0.0)
        with pytest.raises(FluxingRoundError):
            fluxing_round(env, ["a.com", "b.com"])

    def test_permissive_detector_round_succeeds(self, fixed_detector_factory):
        env = make_env(fixed_detector_factory)
        cands = [f"c{i}.com" for i in range(50)]
        name, attempts = fluxing_round(env, cands)
        assert name == "c0.com" and attempts <= 50
