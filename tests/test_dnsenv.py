import inspect
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dgalab.baselines import kraken_generate
from dgalab.corpora import LabeledCorpus, synthesize_benign
from dgalab.detectors import train_detector
from dgalab.dnsenv import FeedbackEnv, Registry, fluxing_round
from dgalab.domains import validate_domain
from dgalab.errors import (DataError, FluxingRoundError, QueryBudgetError)
from dgalab.rng import stream
from conftest import FixedScoreDetector
from scalar_oracles import SetRegistry


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
                       registry=Registry(["popular.com", "famous.net"]))
        fb = env.register("popular.com")
        assert fb.outcome == 0 and fb.n_factor == 0
        assert env.resolve("famous.net") is not None

    def test_seed_corpus_of_several_chunks(self, fixed_detector_factory):
        # the registry reads its seed names 65,536 at a time
        seeds = [f"Seed{i}.com" for i in range(140_000)]
        env = make_env(fixed_detector_factory,
                       registry=Registry(seeds + seeds[:9]))
        assert all(env.resolve(f"seed{i}.com") is not None
                   for i in (0, 65_535, 65_536, 131_072, 139_999))
        assert env.resolve("seed140000.com") is None
        assert env.register_many(["seed139999.com", "seed140000.com"]
                                 ).n_factor.tolist() == [0, 1]

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


# valid names over a two-letter alphabet, so that names are prefixes of
# each other at several lengths
NAMES = st.lists(st.text("ab", min_size=1, max_size=3), min_size=1,
                 max_size=3).map(".".join)
# seed names need not be valid: mixed case, NUL, characters of two and
# three UTF-8 bytes, one of which lowercases to two characters, and a lone
# surrogate
SEEDS = st.one_of(NAMES, st.text("aAbB.\0\u00e9\u0130\u00df\u20ac\ud800",
                                 max_size=5))
# the valid five-byte names; those that begin with "a" make a bucket large
# enough that a call's new five-byte names wait in its array of recent
# insertions
FIVE = [name for name in map("".join, product("ab.", repeat=5))
        if validate_domain(name)]


class TestRegistryOracle:
    @settings(deadline=None, max_examples=300)
    @given(seeds=st.lists(SEEDS, max_size=40), bucket=st.booleans(),
           pool=st.lists(st.one_of(NAMES, st.sampled_from(FIVE)),
                         min_size=1, max_size=10),
           calls=st.lists(st.lists(st.tuples(st.integers(0, 9),
                                             st.booleans()),
                                   max_size=16), max_size=6))
    def test_register_many_and_resolve_match_a_set(self, seeds, bucket,
                                                   pool, calls):
        # calls draw from a small pool, so they repeat names within a call
        # and across calls; each call's verdicts are drawn, so copies of
        # one name in one call can get different verdicts
        seeds += [name for name in FIVE if name[0] == "a"] if bucket else []
        verdicts = []
        env = FeedbackEnv(FixedScoreDetector(lambda d: verdicts.pop(0)),
                          Registry(seeds), budget=10_000)
        oracle = SetRegistry(d.lower() for d in seeds)
        probes = sorted({*seeds, *(d.lower() for d in seeds), *pool})
        for call in calls:
            names = [pool[i % len(pool)] for i, _ in call]
            legit = [ok for _, ok in call]
            verdicts[:] = [float(ok) for ok in legit]
            fb = env.register_many(names)
            assert fb.d_factor.tolist() == legit
            assert fb.n_factor.tolist() == oracle.register(names,
                                                           legit).tolist()
            assert ([env.resolve(name) is not None for name in probes]
                    == [name in oracle for name in probes])


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
        # simulate an out-of-band registration
        env._registered.register([chosen], [True])
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
