import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgalab.baselines import kraken_generate
from dgalab.corpora import LabeledCorpus, synthesize_benign
from dgalab.detectors import edit_distance, train_detector
from dgalab.detectors.distances import (MAX_PACKED, add_one_smooth, encode,
                                        id_strings, ngram_ids, string_ids)
from dgalab.detectors.features import split_core
from dgalab.detectors.statistics import StatisticsDetector
from dgalab.domains import LABEL_CHARS
from dgalab.errors import ContractError
from dgalab.rng import stream
from scalar_oracles import (jaccard_bigrams, kl_divergence,
                            statistics_distances)


class TestKl:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_closed_form(self):
        got = kl_divergence([1.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_direct_summation(self):
        rng = stream("kl-oracle")
        for _ in range(20):
            p = rng.random(5)
            p /= p.sum()
            q = add_one_smooth(rng.random(5) * 10)
            direct = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)
            assert kl_divergence(p, q) == pytest.approx(direct, abs=1e-12)

    def test_rejects_unsmoothed_zero(self):
        with pytest.raises(ContractError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=8),
           st.lists(st.integers(0, 50), min_size=2, max_size=8))
    @settings(max_examples=100)
    def test_nonnegative_zero_iff_equal(self, a, b):
        n = min(len(a), len(b))
        pa = np.array(a[:n], dtype=float) + 1.0
        pb = np.array(b[:n], dtype=float) + 1.0
        p = pa / pa.sum()
        q = add_one_smooth(pb)
        kl = kl_divergence(p, q)
        assert kl >= -1e-15
        if np.allclose(p, q, atol=0):
            assert kl == 0.0
        if kl == 0.0:
            assert np.allclose(p, q, atol=1e-12)


class TestJaccard:
    def test_identical(self):
        assert jaccard_bigrams("banana", "banana") == 1.0

    def test_disjoint(self):
        assert jaccard_bigrams("abab", "cdcd") == 0.0

    def test_enumerated_sets(self):
        # {ab, bc, cd} vs {bc, cd, de}: the enumeration oracle gives
        # 2 shared bigrams over 4 distinct ones
        assert jaccard_bigrams("abcd", "bcde") == pytest.approx(2 / 4)

    def test_too_short_rejected(self):
        with pytest.raises(ContractError):
            jaccard_bigrams("a", "abc")

    @given(st.text(alphabet="abcd", min_size=2, max_size=12),
           st.text(alphabet="abcd", min_size=2, max_size=12))
    def test_range_and_symmetry(self, a, b):
        j = jaccard_bigrams(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard_bigrams(b, a)


class TestEdit:
    def test_identity(self):
        assert edit_distance("same", "same") == 0

    def test_empty(self):
        assert edit_distance("", "abc") == 3

    def test_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3

    @given(st.text(alphabet="abc", max_size=10),
           st.text(alphabet="abc", max_size=10),
           st.text(alphabet="abc", max_size=10))
    @settings(max_examples=150)
    def test_metric_properties(self, a, b, c):
        assert edit_distance(a, b) == edit_distance(b, a)
        assert (edit_distance(a, b) == 0) == (a == b)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


_EDGE = LABEL_CHARS[:-1]          # a label may not start or end with '-'


def _label(max_size, alphabet=LABEL_CHARS):
    edge = st.sampled_from(alphabet.replace("-", ""))
    inner = st.builds(lambda a, mid, z: a + mid + z, edge,
                      st.text(alphabet=alphabet, max_size=max_size - 2), edge)
    return st.one_of(edge, inner)


# cores over a four-character alphabet repeat bigrams often
_cores = st.one_of(_label(63), _label(63, "ab1-"))
_names = st.one_of(
    _cores,
    st.builds(lambda subs, core, tld: ".".join([*subs, core, tld]),
              st.lists(_label(12), max_size=2), _cores,
              st.sampled_from(["com", "net", "io"])))
_refs = st.lists(st.text(alphabet=LABEL_CHARS, min_size=1, max_size=24),
                 min_size=1, max_size=8)


def _assert_matches_oracle(model, names):
    got = model.distances_many(names)
    want = np.stack([statistics_distances(model, d) for d in names])
    for col in range(3):
        assert np.array_equal(got[:, col], want[:, col]), col


class TestBatchedStatistics:
    """The batched KL, bigram-bitset Jaccard and bit-vector edit distance
    equal the per-name oracle exactly."""

    @given(st.lists(_names, min_size=1, max_size=40), _refs, _refs,
           st.lists(st.integers(0, 60), min_size=len(LABEL_CHARS),
                    max_size=len(LABEL_CHARS)))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, names, jac_refs, edit_refs, counts):
        # the leading names' own cores as refs give exact and partial overlaps
        cores = [split_core(d)[0] for d in names[:3]]
        model = StatisticsDetector(add_one_smooth(counts), jac_refs + cores,
                                   edit_refs + [c[:24] for c in cores])
        _assert_matches_oracle(model, names)

    def test_trained_detector_on_generated_names(self):
        benign = synthesize_benign(1000, rng_seed=5)
        agd = [core + ".com" for core in kraken_generate(5, 1000)]
        model = train_detector("statistics",
                               LabeledCorpus(tuple(benign[:500]),
                                             tuple(agd[:500])), rng_seed=3)
        _assert_matches_oracle(model, benign + agd)


class TestPackedIds:
    @given(st.lists(st.text(LABEL_CHARS, min_size=1, max_size=MAX_PACKED),
                    min_size=1, max_size=30))
    def test_order_distinctness_and_inverse(self, strings):
        ids = string_ids(strings)
        assert id_strings(ids) == strings
        # equal ids exactly for equal strings, of any lengths
        assert len(set(ids.tolist())) == len(set(strings))
        for a, ia in zip(strings, ids.tolist()):
            for b, ib in zip(strings, ids.tolist()):
                if len(a) == len(b):
                    assert (ia < ib) == (a < b)

    @given(st.lists(st.text(LABEL_CHARS, min_size=1, max_size=63),
                    min_size=1, max_size=8),
           st.integers(1, MAX_PACKED))
    def test_ngram_ids_are_the_ids_of_the_slices(self, strings, max_k):
        codes, lengths = encode(strings)
        grams = ngram_ids(codes, lengths, max_k)
        assert grams.shape == (max_k, *codes.shape)
        for k in range(1, max_k + 1):
            for row, s in enumerate(strings):
                want = [-1] * codes.shape[1]
                slices = [s[i:i + k] for i in range(len(s) - k + 1)]
                if slices:
                    want[:len(slices)] = string_ids(slices).tolist()
                assert grams[k - 1, row].tolist() == want
