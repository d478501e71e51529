import copy
import gc
import importlib
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_oracles as oracle
from dgalab.baselines import kraken_generate, suppobox_generate, WordDict
from dgalab.corpora import (LabeledCorpus, bundled_tlds, load_wordlist,
                            synthesize_benign)
from dgalab.detectors import (FEATURE_NAMES, KINDS, load_detector,
                              train_detector)
from dgalab.detectors import features, statistics, wordgraph
from dgalab.config import cast_value
from dgalab.detectors.base import KIND_TABLE, checked_names, fit_logistic
from dgalab.detectors.features import extract_many, split_core
from dgalab import recurrent
from dgalab.detectors import neural
from dgalab.detectors.neural import VOCAB, NeuralDetector, encode
from dgalab.detectors.forest import fit_forest
from dgalab.detectors.statistics import CHUNK, StatisticsDetector
from dgalab.domains import CheckedNames, validate_domain
from dgalab.errors import DataError, NumericError, ScoringError
from dgalab.rng import stream
from conftest import count_validations, extract_features, python_subprocess


def small_corpus(n=120, seed=4):
    benign = synthesize_benign(n, rng_seed=seed)
    agd = [core + ".com" for core in kraken_generate(seed, n)]
    return LabeledCorpus(tuple(benign), tuple(agd))


# Names for the batched-versus-scalar tests: cores of 1-63 characters built
# from dictionary words, digits, inner hyphens and repeated n-grams, under
# 0-2 subdomains and a TLD inside or outside the allow-list (or none).
_WORDS = (load_wordlist(bundled="words_a.txt").words
          + load_wordlist(bundled="words_b.txt").words)
_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_PIECES = st.one_of(
    st.sampled_from(_WORDS),
    st.text(_ALNUM, min_size=1, max_size=8),
    st.builds(lambda s, n: s * n, st.text(_ALNUM, min_size=1, max_size=3),
              st.integers(2, 6)),
    st.text(_ALNUM, min_size=40, max_size=63))


@st.composite
def cores(draw):
    pieces = draw(st.lists(_PIECES, min_size=1, max_size=6))
    seps = draw(st.lists(st.sampled_from(["", "", "-", "--"]),
                         min_size=len(pieces) - 1, max_size=len(pieces) - 1))
    core = pieces[0] + "".join(s + p for s, p in zip(seps, pieces[1:]))
    return core[:63].rstrip("-")


@st.composite
def domain_names(draw):
    labels = draw(st.lists(cores(), min_size=1, max_size=3))
    tld = draw(st.one_of(st.none(), st.sampled_from(bundled_tlds()),
                         st.sampled_from(["zz", "x1", "q-q", "example"])))
    name = ".".join(labels + ([tld] if tld else []))
    return name if validate_domain(name) else labels[-1]


@lru_cache(maxsize=1)
def name_pool() -> tuple:
    """Fixed valid names, enough to push a batch past any chunk size."""
    words_a = load_wordlist(bundled="words_a.txt")
    words_b = load_wordlist(bundled="words_b.txt")
    pool = (synthesize_benign(150, rng_seed=8)
            + [core + ".net" for core in kraken_generate(8, 100)]
            + [core + ".org" for core in
               suppobox_generate(words_a, words_b, 8, 100)])
    chunk = max(statistics.CHUNK, features.CHUNK, wordgraph.CHUNK)
    extra = max(0, chunk + 2 - len(pool))
    return tuple(pool + [core + ".com" for core in kraken_generate(9, extra)])


class TestFeatures:
    def test_google_hand_counts(self):
        f = dict(zip(FEATURE_NAMES, extract_features("google")))
        assert f["length"] == 6.0
        assert f["digit_ratio"] == 0.0
        assert f["vowel_ratio"] == pytest.approx(0.5)
        assert f["subdomain_count"] == 0.0

    def test_degenerate_digits(self):
        f = dict(zip(FEATURE_NAMES, extract_features("000000")))
        assert f["digit_ratio"] == 1.0
        assert f["char_entropy"] == 0.0
        assert f["first_char_digit"] == 1.0

    def test_hyphenated_hand_counts(self):
        f = dict(zip(FEATURE_NAMES, extract_features("a-b-c")))
        assert f["hyphen_count"] == 2.0
        assert f["max_consonant_run"] == 1.0

    def test_fqdn_parsing(self):
        core, subs, tld = split_core("scholar.google.com")
        assert (core, subs, tld) == ("google", 1, "com")
        f = dict(zip(FEATURE_NAMES, extract_features("scholar.google.com")))
        assert f["subdomain_count"] == 1.0
        assert f["tld_in_allowlist"] == 1.0

    def test_deterministic_and_finite(self):
        a = extract_features("mixed-42.example.org")
        b = extract_features("mixed-42.example.org")
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))
        assert len(a) == 21 == len(FEATURE_NAMES)

    def test_extraction_independent_of_hash_seed(self):
        # features must not follow set iteration order (PYTHONHASHSEED)
        code = ("import hashlib; from dgalab.corpora import bundled_benign; "
                "from dgalab.detectors.features import extract_many; "
                "f = extract_many(bundled_benign(3000)); "
                "print(hashlib.sha256(f.tobytes()).hexdigest())")
        digests = set()
        for hash_seed in ("1", "2"):
            proc = python_subprocess(["-c", code], hash_seed)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1

    def test_invalid_domain_rejected(self):
        with pytest.raises(ScoringError):
            extract_features("not valid!")

    @settings(deadline=None)
    @given(st.lists(domain_names(), min_size=1, max_size=8),
           st.one_of(st.integers(0, 4),
                     st.integers(features.CHUNK - 8, features.CHUNK + 4)))
    @example(["a", "ab", "abc", "0-0", "a" * 63 + ".com", "ab" * 31 + "a.io",
              "x.sunsetgarden.co.uk", "0123456789.zz"], 0)
    def test_extract_many_equals_scalar_oracle(self, names, pad):
        batch = list(name_pool()[:pad]) + names
        got = extract_many(batch)
        want = np.stack([oracle.fanci_features(d) for d in batch])
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_dictionary_coverage_higher_for_words(self):
        wordy = dict(zip(FEATURE_NAMES, extract_features("sunsetgarden.com")))
        noise = dict(zip(FEATURE_NAMES, extract_features("qzxvkwpj.com")))
        assert wordy["dict_word_coverage"] > noise["dict_word_coverage"]


@st.composite
def forest_data(draw):
    """(X, y) with constant, tied, adjacent-float and free columns."""
    n = draw(st.integers(2, 40))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.sampled_from(["constant", "tied", "adjacent", "free"]))
        if shape == "constant":
            column = [draw(st.floats(-5, 5))] * n
        elif shape == "tied":
            column = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        elif shape == "adjacent":
            base = draw(st.floats(-5, 5))
            pair = (base, float(np.nextafter(base, np.inf)))
            column = [pair[i] for i in draw(
                st.lists(st.integers(0, 1), min_size=n, max_size=n))]
        else:
            column = draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
        columns.append(column)
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return (np.array(columns, dtype=np.float64).T,
            np.array(y, dtype=np.float64))


class TestForest:
    def test_one_feature_separable_perfect_split(self):
        rng = stream("forest-sep")
        x0 = rng.random(60) * 2.0          # class 0 in [0, 2]
        x1 = rng.random(60) * 2.0 + 5.0    # class 1 in [5, 7]
        X = np.concatenate([x0, x1])[:, None]
        y = np.array([0.0] * 60 + [1.0] * 60)
        forest = fit_forest(X, y, rng_seed=1, n_trees=1, max_depth=1,
                            min_leaf=2)
        tree = forest.trees[0]
        assert tree.feature[0] == 0
        assert 2.0 < tree.threshold[0] < 5.0
        pred = forest.predict(X)
        assert np.all((pred >= 0.5) == (y == 1.0))

    def test_deterministic_per_seed(self):
        rng = stream("forest-det")
        X = rng.random((80, 4))
        y = (X[:, 1] > 0.5).astype(float)
        a = fit_forest(X, y, rng_seed=7, n_trees=5, max_depth=4,
                       min_leaf=2)
        b = fit_forest(X, y, rng_seed=7, n_trees=5, max_depth=4,
                       min_leaf=2)
        assert np.array_equal(a.predict(X), b.predict(X))

    # one column of adjacent floats whose midpoint rounds onto the larger
    # value, so the best split sends every row left
    @example(data=(np.array([[1 + 2.0 ** -52], [1 + 2.0 ** -51]] * 4),
                   np.array([0.0, 1.0] * 4)),
             max_depth=3, min_leaf=1, seed=0)
    @settings(deadline=None, max_examples=80)
    @given(data=forest_data(), max_depth=st.integers(0, 6),
           min_leaf=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    def test_trees_equal_recursive_oracle(self, data, max_depth, min_leaf,
                                          seed):
        X, y = data
        got = fit_forest(X, y, seed, n_trees=3, max_depth=max_depth,
                         min_leaf=min_leaf).trees
        want = oracle.forest_trees(X, y, seed, 3, max_depth, min_leaf)
        for a, b in zip(got, want, strict=True):
            for field in ("feature", "threshold", "left", "right", "prob"):
                x, w = getattr(a, field), getattr(b, field)
                assert x.dtype == w.dtype and np.array_equal(x, w), field


class TestDetectorContracts:
    @pytest.mark.parametrize("kind", KINDS)
    def test_scores_in_range_and_deterministic(self, kind):
        corpus = small_corpus(60)
        hp = {"epochs": 2} if kind == "neural" else {"trees": 5}
        model = train_detector(kind, corpus, hp=hp, rng_seed=2)
        probe = list(corpus.benign[:10]) + list(corpus.agd[:10])
        s1 = model.score_many(probe)
        s2 = model.score_many(probe)
        assert np.all((s1 >= 0.0) & (s1 <= 1.0))
        assert np.array_equal(s1, s2)
        assert model.score(probe[0]) == pytest.approx(s1[0], abs=1e-6)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train_detector("fanci",
                           LabeledCorpus(("a.com",), ()), rng_seed=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_invalid_corpus_name_is_data_error(self, kind):
        corpus = small_corpus(20)
        bad = LabeledCorpus(corpus.benign[:10] + ("Good.com",),
                            corpus.agd[:10] + ("-bad.com",))
        with pytest.raises(DataError, match="^training corpus: invalid "
                                            "domain 'Good.com'$"):
            train_detector(kind, bad, hp={"epochs": 1}, rng_seed=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_class_is_checked_once(self, kind, monkeypatch):
        # neither train_detector nor the kind checks a CheckedNames class
        # again, and a tuple class is checked once per name
        corpus = small_corpus(20)
        hp = {"epochs": 1, "trees": 3}
        count_validations(monkeypatch, refuse=True)
        checked = LabeledCorpus(CheckedNames(corpus.benign),
                                CheckedNames(corpus.agd))
        want = train_detector(kind, checked, hp=hp, rng_seed=0).to_blobs()
        monkeypatch.undo()
        calls = count_validations(monkeypatch)
        got = train_detector(kind, corpus, hp=hp, rng_seed=0).to_blobs()
        assert calls == [*corpus.benign, *corpus.agd]
        assert {key: bytes(value) for key, value in got.items()} \
            == {key: bytes(value) for key, value in want.items()}

    def test_hyperparameter_casts(self, monkeypatch):
        hp = {"n": "3", "m": 4.0, "x": "0.25", "on": "Yes", "off": False,
              "frac": 2.5, "word": "abc", "flag": "maybe", "big": "1e3",
              "nan": "nan", "inf": float("inf")}

        def cast(key, to):
            return cast_value(f"detector hyperparameter {key}", hp[key], to)

        assert cast("n", int) == 3
        assert cast("m", int) == 4
        assert cast("x", float) == 0.25
        assert cast("on", bool) is True
        assert cast("off", bool) is False
        assert cast("big", int) == 1000
        for key, to in (("frac", int), ("word", int), ("word", float),
                        ("flag", bool), ("nan", float), ("inf", float),
                        ("inf", int)):
            with pytest.raises(DataError, match=f"^detector hyperparameter "
                                                f"{key} = "):
                cast(key, to)
        # an absent key takes its default; the kind gets every key, typed
        got = {}
        monkeypatch.setattr(importlib.import_module("dgalab.detectors.fanci")
                            .FanciDetector, "train",
                            lambda names, labels, typed, seed:
                            got.update(typed))
        train_detector("fanci", small_corpus(20), hp={"trees": "3"})
        assert got == {"trees": 3, "max_depth": 12, "min_leaf": 2}

    def test_every_key_read_is_declared(self):
        for kind in KINDS:
            module = importlib.import_module(f"dgalab.detectors.{kind}")
            source = Path(module.__file__).read_text("utf-8")
            read = set(re.findall(r'hp\["(\w+)"\]', source))
            assert read == set(KIND_TABLE[kind].hp), kind

    @pytest.mark.parametrize("kind", KINDS)
    def test_defaults_as_text_train_the_same_model(self, kind, tmp_path):
        corpus = small_corpus(40)
        text = {key: str(value) for key, value in KIND_TABLE[kind].hp.items()}
        train_detector(kind, corpus, hp={}, rng_seed=1).save(tmp_path / "a")
        train_detector(kind, corpus, hp=text, rng_seed=1).save(tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, entry in KIND_TABLE.items() for key in entry.hp])
    def test_every_declared_key_is_read(self, kind, key):
        with pytest.raises(DataError, match=f"^detector hyperparameter "
                                            f"{key} = 'abc': "):
            train_detector(kind, small_corpus(20), hp={key: "abc"},
                           rng_seed=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_and_score_leave_no_cyclic_garbage(self, kind):
        corpus = small_corpus(60)
        hp = {"epochs": 1} if kind == "neural" else {}
        gc.collect()
        gc.disable()
        try:
            model = train_detector(kind, corpus, hp=hp, rng_seed=2)
            model.score_many(corpus.benign + corpus.agd)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_invalid_domain_scoring_error(self, kind):
        hp = {"epochs": 1} if kind == "neural" else {"trees": 3}
        model = train_detector(kind, small_corpus(40), hp=hp, rng_seed=0)
        for name in ("UPPER.com", "-abc.com"):
            with pytest.raises(ScoringError):
                model.score(name)
            with pytest.raises(ScoringError):
                model.score_many(["example.com", name])

    @pytest.mark.parametrize("kind", KINDS)
    def test_newline_is_scoring_error(self, kind):
        hp = {"epochs": 1} if kind == "neural" else {"trees": 3}
        model = train_detector(kind, small_corpus(40), hp=hp, rng_seed=0)
        for name in ("abc\n.com", "abc.com\n"):
            with pytest.raises(ScoringError):
                model.score_many([name])
            with pytest.raises(ScoringError):
                model.score(name)

    def test_checked_names_rejects_newline(self):
        assert checked_names(("abc.com",)) == ["abc.com"]
        for name in ("abc\n.com", "abc.com\n"):
            with pytest.raises(ScoringError):
                checked_names(["abc.com", name])

    @pytest.mark.parametrize("kind", KINDS)
    def test_checkpoint_round_trip(self, kind, tmp_path):
        corpus = small_corpus(50)
        hp = {"epochs": 2} if kind == "neural" else {"trees": 4}
        model = train_detector(kind, corpus, hp=hp, rng_seed=6)
        path = tmp_path / f"{kind}.ckpt"
        model.save(path)
        loaded = load_detector(path)
        probe = list(corpus.benign[:8]) + list(corpus.agd[:8])
        assert np.allclose(model.score_many(probe), loaded.score_many(probe),
                           atol=1e-6)


@pytest.fixture(scope="module")
def trained_kinds():
    corpus = small_corpus(80)
    return {kind: train_detector(kind, corpus, hp={"trees": 5}, rng_seed=3)
            for kind in ("statistics", "fanci", "wordgraph")}


class TestBatchInvariance:
    """A name's score does not depend on the batch it is scored in."""

    @pytest.mark.parametrize("kind, chunk", [
        ("statistics", statistics.CHUNK), ("fanci", features.CHUNK),
        ("wordgraph", wordgraph.CHUNK)])
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_concatenation_and_single_names(self, trained_kinds, kind, chunk,
                                            data):
        model = trained_kinds[kind]
        drawn = data.draw(st.lists(domain_names(), min_size=2, max_size=6))
        pad = data.draw(st.one_of(st.integers(0, 4),
                                  st.integers(chunk - 6, chunk + 2)))
        names = list(name_pool()[:pad]) + drawn
        cut = data.draw(st.integers(1, len(names) - 1))
        whole = model.score_many(names)
        parts = np.concatenate([model.score_many(names[:cut]),
                                model.score_many(names[cut:])])
        assert np.array_equal(whole, parts)
        for name in drawn:
            assert model.score(name) == model.score_many([name])[0]


class TestStatisticsDetector:
    def test_duplicates_do_not_change_model(self):
        corpus = small_corpus(50)
        doubled = LabeledCorpus(corpus.benign + corpus.benign,
                                corpus.agd + corpus.agd)
        a = train_detector("statistics", corpus, rng_seed=1)
        b = train_detector("statistics", doubled, rng_seed=1)
        assert np.array_equal(a.profile, b.profile)
        assert a.jaccard_refs == b.jaccard_refs
        assert a.edit_refs == b.edit_refs
        probe = corpus.benign[:5] + corpus.agd[:5]
        assert np.allclose(a.score_many(probe), b.score_many(probe))
        # a name in both classes stays in both: as an AGD under another TLD
        # (same core, so the same distances) it trains the same model,
        # whether or not either class repeats it
        shared = corpus.benign[:10]
        moved = tuple(name.rpartition(".")[0]
                      + (".org" if not name.endswith(".org") else ".net")
                      for name in shared)
        want = train_detector("statistics", LabeledCorpus(
            corpus.benign, corpus.agd + moved), rng_seed=1).to_blobs()
        for benign, agd in ((corpus.benign, corpus.agd + shared),
                            (corpus.benign + shared[::2],
                             corpus.agd + shared + corpus.agd[:9] + shared)):
            got = train_detector("statistics", LabeledCorpus(benign, agd),
                                 rng_seed=1).to_blobs()
            assert got.keys() == want.keys()
            for key in want:
                assert bytes(got[key]) == bytes(want[key]), key

    def test_chunked_batches_equal_whole_and_single(self):
        corpus = small_corpus(CHUNK + 2)
        model = train_detector("statistics", corpus, rng_seed=1)
        names = list(corpus.benign) + list(corpus.agd)[:CHUNK]
        whole = model.score_many(names)
        for size in (1, CHUNK - 1, CHUNK, CHUNK + 1):
            parts = [model.score_many(names[lo:lo + size])
                     for lo in range(0, len(names), size)]
            assert np.array_equal(np.concatenate(parts), whole), size
        assert np.array_equal([model.score(d) for d in names], whole)

    def test_whole_batch_pass_equals_64_name_passes(self, monkeypatch):
        model = train_detector("statistics", small_corpus(80), rng_seed=2)
        corpus = small_corpus(1250, seed=6)
        names = list(corpus.benign) + list(corpus.agd)
        whole = model.distances_many(names), model.score_many(names)
        monkeypatch.setattr(statistics, "CHUNK", 64)
        assert np.array_equal(model.distances_many(names), whole[0])
        assert np.array_equal(model.score_many(names), whole[1])

    @pytest.mark.parametrize("where", [0, CHUNK, -1])
    def test_invalid_name_anywhere_in_batch(self, where):
        model = train_detector("statistics", small_corpus(40), rng_seed=0)
        names = list(small_corpus(CHUNK + 2).benign)
        names[where] = "UPPER.com"
        with pytest.raises(ScoringError, match="invalid domain 'UPPER.com'"):
            model.score_many(names)

    @pytest.mark.parametrize("name, value", [
        ("logistic", None),
        ("profile", np.ones(36, dtype=np.float32)),
        ("standardize", b"not numbers"),
        ("edit_refs", None),
        ("jaccard_refs", b""),
        ("edit_refs", b"abc\n\nxyz"),
        ("edit_refs", b"a" * 25),
        ("jaccard_refs", b"abc\nAB"),
        ("profile", np.zeros(37, dtype=np.float32)),
    ])
    def test_damaged_blobs_are_data_errors(self, name, value):
        blobs = train_detector("statistics", small_corpus(40),
                               rng_seed=0).to_blobs()
        if value is None:
            del blobs[name]
        else:
            blobs[name] = value
        with pytest.raises(DataError):
            StatisticsDetector.from_blobs(blobs)

    def test_profile_mode_beats_random_noise(self):
        corpus = small_corpus(200)
        model = train_detector("statistics", corpus, rng_seed=1)
        reference = model.edit_refs[0] + ".com"
        assert model.score(reference) > model.score("qkxvz0pwj3.com")


class TestWordGraph:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(domain_names(), min_size=2, max_size=30),
           st.integers(0, 60), st.integers(0, 3),
           st.lists(domain_names(), min_size=1, max_size=8))
    def test_graph_statistics_and_scores_equal_oracle(self, drawn, n_pool,
                                                      threshold, probe):
        pool = name_pool()
        corpus = LabeledCorpus(tuple(pool[:n_pool]) + tuple(drawn[::2]),
                               tuple(pool[-n_pool:] if n_pool else ())
                               + tuple(drawn[1::2]))
        model = train_detector("wordgraph", corpus,
                               hp={"repeat_threshold": threshold})
        domains = list(corpus.benign) + list(corpus.agd)
        degrees, max_degree = oracle.wordgraph_graph(domains, threshold)
        assert model.degrees == degrees
        assert model.max_degree == max(1, max_degree)
        stats = np.array([[oracle.wordgraph_stat(degrees, max_degree, d)]
                          for d in domains])
        assert np.array_equal(model.graph_stats(domains), stats[:, 0])
        if stats.max() > stats.min():
            labels = [1.0] * len(corpus.benign) + [0.0] * len(corpus.agd)
            w, b, mean, std = fit_logistic(stats, labels)
            assert model.logistic.b == b
            for got, want in ((model.logistic.w, w),
                              (model.logistic.mean, mean),
                              (model.logistic.std, std)):
                assert np.array_equal(got, want)
        names = probe + domains
        assert np.array_equal(model.score_many(names),
                              [oracle.wordgraph_score(model, d)
                               for d in names])

    def test_no_repeats_means_all_zero(self):
        # every substring unique: nothing repeats more than three times
        benign = [f"unique{i:04d}x.com" for i in range(10)]
        agd = [f"other{i:04d}zz.com" for i in range(10)]
        # distinct digits make every 3+-gram appear at most a handful of times
        corpus = LabeledCorpus(tuple(benign), tuple(agd))
        model = train_detector("wordgraph", corpus,
                               hp={"repeat_threshold": 100}, rng_seed=0)
        assert model.graph_stats(["unique0001x.com"])[0] == 0.0
        assert model.score("whatever.com") == pytest.approx(0.5, abs=1e-6)

    def test_shared_dictionary_words_gain_degree(self):
        d1 = WordDict(("sunny", "rainy", "misty"))
        d2 = WordDict(("field", "river", "stone"))
        agd = [f"{core}.com" for core in suppobox_generate(d1, d2, 3, 60)]
        benign = [f"distinct{i:03d}q.net" for i in range(60)]
        corpus = LabeledCorpus(tuple(benign), tuple(agd))
        model = train_detector("wordgraph", corpus, rng_seed=0)
        stat, noise = model.graph_stats(["sunnyfield.com", "qzkwv0xy.com"])
        assert stat > 0.0
        assert stat > noise

    def test_unmatched_domain_scores_zero_stat(self):
        corpus = small_corpus(80)
        model = train_detector("wordgraph", corpus, rng_seed=0)
        assert model.graph_stats(["q0q1q2q3q4.com"])[0] == 0.0


def random_neural(d_e, d_h, layers, bidirectional, max_len=32, seed=0):
    """An untrained detector with fan-scaled uniform weights."""
    rng = np.random.default_rng(seed)

    def uniform(*shape):
        return ((rng.random(shape) * 2 - 1) / np.sqrt(shape[0])
                ).astype(np.float32)

    stacks = [([uniform(d_e if layer == 0 else d_h, 4 * d_h)
                for layer in range(layers)],
               [uniform(d_h, 4 * d_h) for _ in range(layers)],
               [uniform(1, 4 * d_h)[0] for _ in range(layers)])
              for _ in range(1 + bidirectional)]
    return NeuralDetector(uniform(len(VOCAB) + 1, d_e), stacks,
                          uniform(d_h * len(stacks)), 0.1, max_len)


@st.composite
def shared_prefix_batches(draw):
    """1-70 names over a few stems: duplicates, names that are prefixes of
    one another, shared suffixes and, sometimes, one unique longest name."""
    stems = draw(st.lists(st.text("ab", min_size=1, max_size=10),
                          min_size=1, max_size=4))
    names = draw(st.lists(
        st.builds(lambda stem, tail, tld: stem + tail + tld,
                  st.sampled_from(stems), st.text("abz9", max_size=4),
                  st.sampled_from(["", ".c", ".co", ".com"])),
        min_size=1, max_size=70))
    if len(names) < 70 and draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))),
                     max(names, key=len) + "q" * draw(st.integers(1, 30)))
    return names


def live_prefix_rows(names, max_len) -> int:
    """Rows a prefix-sharing pass runs over one direction: the distinct live
    prefixes of each step, at least two a step unless the batch is one."""
    names = [name[:max_len] for name in names]
    floor = min(2, len(names))
    return sum(max(len({n[:t + 1] for n in names if len(n) > t}), floor)
               for t in range(max(map(len, names))))


class TestNeuralDetector:
    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([8, 24, 32, 64]), st.sampled_from([8, 24, 32, 64]),
           st.integers(1, 2), st.booleans(), st.integers(1, 40),
           shared_prefix_batches(),
           st.one_of(st.just(0),
                     st.integers(neural.CHUNK - 70, neural.CHUNK + 2)))
    @example(64, 64, 1, False, 32, ["ab.com", "ab.com", "abab.com"], 0)
    @example(8, 64, 2, True, 40, ["a", "ab", "abz", "abz" + "q" * 30], 0)
    @example(24, 32, 1, True, 32, ["abba"], neural.CHUNK)
    def test_score_many_equals_padded_oracle(self, d_e, d_h, layers,
                                             bidirectional, max_len, names,
                                             pad):
        model = random_neural(d_e, d_h, layers, bidirectional, max_len)
        batch = list(name_pool()[:pad]) + names
        got = model.score_many(batch)
        assert np.array_equal(got, oracle.neural_padded_scores(model, batch))
        # a float32 score can round away a changed bit of a pooled feature
        idx, lengths = encode(names, max_len)
        assert np.array_equal(model._prefix_pool(idx, lengths),
                              model._pool(idx, lengths)[1])
        assert model.score(names[0]) == model.score_many(names[:1])[0] == \
            oracle.neural_padded_scores(model, names[:1])[0]

    def test_each_distinct_live_prefix_runs_once(self, monkeypatch):
        rows = []
        step = recurrent.stack_step

        def spy(w_x, w_h, b, x, hidden, want_cache=False):
            rows.append(len(x))
            return step(w_x, w_h, b, x, hidden, want_cache)

        monkeypatch.setattr(recurrent, "stack_step", spy)
        model = random_neural(8, 8, 1, False)
        model.score_many(["abcdefghij.com"] * 3)
        assert rows == [2] * 14                   # one prefix, two rows
        rows.clear()
        model.score_many(["abcdefghijk", "abcdefghijlm", "abcdefghijno.com"])
        assert rows == [2] * 10 + [3] + [2] * 5
        rows.clear()
        model.score_many(["abcdefghij.com"])
        assert rows == [1] * 14
        model = random_neural(8, 8, 2, True, max_len=20)
        names = list(name_pool()[:300]) + list(name_pool()[:40])
        rows.clear()
        model.score_many(names)
        assert sum(rows) == (live_prefix_rows(names, 20) + live_prefix_rows(
            [name[:20][::-1] for name in names], 20))

    @given(st.lists(st.text(VOCAB, min_size=1, max_size=70), min_size=1,
                    max_size=12),
           st.integers(1, 40))
    def test_encode_equals_per_character_oracle(self, names, max_len):
        idx, lengths = encode(names, max_len)
        want_idx, want_lengths = oracle.neural_encode(names, max_len)
        assert idx.dtype == want_idx.dtype and lengths.dtype == np.int64
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(lengths, want_lengths)

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([8, 24]), st.sampled_from([8, 32]),
           st.integers(1, 2), st.booleans(), st.integers(1, 40),
           st.lists(st.text(VOCAB, min_size=1, max_size=30), min_size=2,
                    max_size=40),
           st.integers(1, 16), st.integers(0, 2 ** 31))
    @example(24, 32, 1, False, 32, ["a", "b", "c.d", "abcdefghij", "e"], 2, 0)
    @example(8, 8, 2, True, 12, ["abcdefghijklmnop.com", "a", "bc"] * 17, 50,
             5)
    @example(24, 32, 2, True, 3, ["a", "b", "c", "d", "ab.com"], 4, 1)
    def test_fit_equals_per_batch_encoding_oracle(self, d_e, d_h, layers,
                                                  bidirectional, max_len,
                                                  names, batch, seed):
        # both start from one initialisation (train at 0 epochs); the fit
        # reads its names into bytes once, the oracle encodes each batch
        half = len(names) // 2
        hp = {**KIND_TABLE["neural"].hp, "d_e": d_e, "d_h": d_h,
              "layers": layers, "bidirectional": bidirectional,
              "max_len": max_len, "epochs": 0}
        labels = [1.0] * half + [0.0] * (len(names) - half)
        model = NeuralDetector.train(names, np.array(labels), hp, seed)
        want = copy.deepcopy(model)

        def weight_bits(m):
            return {**{key: value.tobytes()
                       for key, value in m.to_blobs().items()},
                    "b": np.float64(m.b).tobytes()}

        model.fit(names, labels, 2, batch, 0.5, rng_key=seed)
        oracle.neural_fit_oracle(want, names, labels, 2, batch, 0.5, seed)
        assert weight_bits(model) == weight_bits(want)
        model.incremental_update(names[half:], names[:half], epochs=2, lr=0.2,
                                 batch=batch, rng_key=seed)
        oracle.neural_fit_oracle(want, names, labels, 2, batch, 0.2,
                                 ("incr", seed))
        assert weight_bits(model) == weight_bits(want)
        model.incremental_update([], [], epochs=2, lr=0.2, batch=batch)
        assert weight_bits(model) == weight_bits(want)

    def test_toy_separable_by_first_char(self):
        benign = [f"a{i:04d}x.com" for i in range(40)]
        agd = [f"z{i:04d}x.com" for i in range(40)]
        corpus = LabeledCorpus(tuple(benign), tuple(agd))
        model = train_detector("neural", corpus,
                               hp={"epochs": 30, "lr": 1.0, "d_h": 16},
                               rng_seed=1)
        scores_b = model.score_many(list(benign))
        scores_a = model.score_many(list(agd))
        accuracy = ((scores_b >= 0.5).sum() + (scores_a < 0.5).sum()) / 80
        assert accuracy == 1.0

    def test_incremental_update_moves_scores(self):
        corpus = small_corpus(60)
        model = train_detector("neural", corpus, hp={"epochs": 3}, rng_seed=2)
        novel = [f"zz-adv-{i:03d}.com" for i in range(30)]
        before = model.score_many(novel).mean()
        model.incremental_update(novel, list(corpus.benign[:30]), epochs=5,
                                 lr=0.3)
        after = model.score_many(novel).mean()
        assert after < before

    def test_overflowing_rate_is_numeric_error(self):
        # at this rate the first step saturates every unit and the second
        # overflows float32
        corpus = small_corpus(60)
        with pytest.raises(NumericError, match="^neural detector training: "
                           "overflow.*detector.neural.lr"):
            train_detector("neural", corpus, hp={"epochs": 1, "lr": 1e30,
                                                 "batch": 32}, rng_seed=2)
        model = train_detector("neural", corpus, hp={"epochs": 1},
                               rng_seed=2)
        novel = [f"zz-adv-{i:03d}.com" for i in range(30)]
        with pytest.raises(NumericError, match="game.incr_lr"):
            model.incremental_update(novel, list(corpus.benign[:30]),
                                     epochs=2, lr=1e30)
        # one step leaves weights whose next forward pass overflows
        model = train_detector("neural", corpus, hp={"epochs": 1},
                               rng_seed=2)
        model.incremental_update(novel, list(corpus.benign[:30]), epochs=1,
                                 lr=1e30)
        with pytest.raises(NumericError, match="^neural detector scoring: "):
            model.score_many(novel)

    def test_bidirectional_variant(self):
        corpus = small_corpus(60)
        model = train_detector("neural", corpus,
                               hp={"epochs": 2, "bidirectional": True},
                               rng_seed=2)
        assert model.bidirectional
        s = model.score_many(list(corpus.benign[:5]))
        assert np.all((s >= 0) & (s <= 1))
