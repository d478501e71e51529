from collections import Counter

import pytest

from dgalab.baselines import (Lcg, WordDict, gozi_generate, kraken_generate,
                              suppobox_generate)
from dgalab.corpora import load_wordlist
from dgalab.domains import assemble_fqdn, validate_domain
from dgalab.errors import ContractError

# chi-square critical value at p = 0.001, 25 degrees of freedom
_CHI2_CRIT_25 = 52.62


class TestLcg:
    def test_first_step_from_one(self):
        # hand evaluation: 1103515245 * 1 + 12345 = 1103527590 < 2^31
        assert Lcg(1).step() == 1103527590

    def test_modulus_wraps(self):
        lcg = Lcg(2 ** 31 - 1)
        assert 0 <= lcg.step() < 2 ** 31

    def test_below_range(self):
        lcg = Lcg(99)
        assert all(0 <= lcg.below(26) < 26 for _ in range(1000))


class TestKraken:
    def test_deterministic(self):
        a = kraken_generate(7, 50)
        b = kraken_generate(7, 50)
        assert a == b
        c = kraken_generate(8, 50)
        assert a != c

    def test_count_and_validity(self):
        doms = kraken_generate(3, 3)
        assert len(doms) == 3
        assert all(validate_domain(assemble_fqdn(core, "com")) for core in doms)

    def test_lengths_in_range(self):
        doms = kraken_generate(11, 500)
        assert {len(core) for core in doms} == set(range(7, 13))

    def test_letter_frequency_near_uniform(self):
        doms = kraken_generate(123456, 12000)
        chars = "".join(doms)[:100_000]
        counts = Counter(chars)
        expected = len(chars) / 26
        stat = sum((counts.get(chr(97 + i), 0) - expected) ** 2 / expected
                   for i in range(26))
        assert stat < _CHI2_CRIT_25

    def test_count_contract(self):
        with pytest.raises(ContractError):
            kraken_generate(1, 0)


class TestGozi:
    def test_single_word_dict_forced(self):
        d = WordDict(("abc",))
        doms = gozi_generate(d, 5, 4, words_per_name=(2, 2))
        assert all(core == "abcabc" for core in doms)

    def test_deterministic(self):
        words = load_wordlist(bundled="words_a.txt")
        a = gozi_generate(words, 42, 30)
        b = gozi_generate(words, 42, 30)
        assert a == b

    def test_matches_lcg_index_oracle(self):
        d = WordDict(("one", "two"))
        doms = gozi_generate(d, 9, 6, words_per_name=(2, 2))
        lcg = Lcg(9)
        expect = []
        for _ in range(6):
            k = 2 + lcg.below(1)  # span 1: word count fixed at 2
            expect.append("".join(d.words[lcg.below(2)] for _ in range(k)))
        assert doms == expect

    def test_empty_dict_rejected(self):
        with pytest.raises(ContractError):
            WordDict(())

    def test_words_fit_a_label(self):
        with pytest.raises(ContractError):
            WordDict(("a" * 64,))
        # a second 63-character word never fits, the first always does
        doms = gozi_generate(WordDict(("a" * 63,)), 3, 5, words_per_name=(2, 2))
        assert doms == ["a" * 63] * 5


class TestSuppobox:
    def test_forced_pair(self):
        doms = suppobox_generate(WordDict(("sun",)), WordDict(("set",)), 1, 3)
        assert all(core == "sunset" for core in doms)

    def test_deterministic(self):
        d1 = load_wordlist(bundled="words_a.txt")
        d2 = load_wordlist(bundled="words_b.txt")
        a = suppobox_generate(d1, d2, 5, 20)
        b = suppobox_generate(d1, d2, 5, 20)
        assert a == b

    def test_two_by_two_coverage(self):
        d1 = WordDict(("aa", "bb"))
        d2 = WordDict(("cc", "dd"))
        doms = suppobox_generate(d1, d2, 31, 1000)
        seen = set(doms)
        assert seen == {"aacc", "aadd", "bbcc", "bbdd"}


class TestValidityAcrossGenerators:
    def test_everything_assembles_valid(self):
        words_a = load_wordlist(bundled="words_a.txt")
        words_b = load_wordlist(bundled="words_b.txt")
        batches = [
            kraken_generate(2, 500),
            gozi_generate(words_a, 2, 500),
            suppobox_generate(words_a, words_b, 2, 500),
        ]
        for batch in batches:
            for d in batch:
                assert validate_domain(assemble_fqdn(d, "com"))
