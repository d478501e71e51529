import hashlib
from collections import Counter

import pytest

from dgalab.baselines import (FAMILIES, WordDict, _lcg_states, gozi_generate,
                              kraken_generate, suppobox_generate)
from dgalab.corpora import bundled_words, load_wordlist
from dgalab.domains import assemble_fqdn, validate_domain
from dgalab.errors import ContractError

import scalar_oracles as oracle
from scalar_oracles import Lcg

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

    @pytest.mark.parametrize("seed", [-3, 0, 2 ** 31 - 1, 2 ** 127 + 5])
    def test_jump_ahead_states_match_steps(self, seed):
        lcg = Lcg(seed)
        assert _lcg_states(seed, 1000).tolist() == \
            [lcg.step() for _ in range(1000)]


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

    @pytest.mark.parametrize("seed", [0, 1, 5, 12345, 2 ** 31 - 1, 2 ** 31,
                                      2 ** 40 + 7, -3])
    def test_matches_step_oracle(self, seed):
        for count in (1, 2, 3, 17, 1000, 5000):
            assert kraken_generate(seed, count) == \
                oracle.kraken_cores(seed, count)


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

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 31 - 1, 2 ** 31,
                                      2 ** 40 + 7, -3])
    def test_matches_step_oracle(self, seed):
        words = bundled_words()[0]
        for count in (1, 2, 17, 1000, 5000):
            assert gozi_generate(words, seed, count) == \
                oracle.gozi_cores(words, seed, count)
        long = WordDict(("a" * 63, "bc", "d", "efghij" * 5))
        for wd, span in ((words, (1, 1)), (words, (3, 9)), (long, (2, 2)),
                         (long, (1, 70)), (WordDict(("x", "yz")), (1, 70)),
                         (WordDict(("x",)), (64, 70))):
            for count in (1, 300):
                assert gozi_generate(wd, seed, count, span) == \
                    oracle.gozi_cores(wd, seed, count, span)

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

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 31 - 1, 2 ** 31,
                                      2 ** 40 + 7, -3])
    def test_matches_step_oracle(self, seed):
        first, second = bundled_words()
        for count in (1, 2, 17, 1000, 5000):
            assert suppobox_generate(first, second, seed, count) == \
                oracle.suppobox_cores(first, second, seed, count)
        odd = WordDict(("ab", "cde", "f", "g" * 40, "hi", "j" * 63, "k"))
        for wd1, wd2 in ((odd, second), (second, odd), (odd, odd)):
            for count in (1, 300):
                assert suppobox_generate(wd1, wd2, seed, count) == \
                    oracle.suppobox_cores(wd1, wd2, seed, count)


# sha256 of the newline-joined 3,000 cores each family writes for a seed,
# as the stepping generators wrote them
PINNED_CORES = {
    ("kraken", 0):
        "0b9f47cd186cf1666eaf4233f9a04a60cdd4578347d42b6552f8d42373d9940e",
    ("kraken", 2 ** 31 + 5):
        "4b9f1ea6052a58e08a4387bf5ad40bd2c056a2fa5085c1631ab97b93e4d253b5",
    ("gozi", 0):
        "fc0e691356e3649908bb4e8b080cecd66f87aee427e397889c8ab112e23742f5",
    ("gozi", 2 ** 31 + 5):
        "6277626146aa6fbe6c7566b8680cfe92f1ed84c36b3f663be648068151f22db2",
    ("suppobox", 0):
        "bd8db72cd351a21e8c586031c38ab32c1e78975f68db85d1a41a0284881b9c7d",
    ("suppobox", 2 ** 31 + 5):
        "6c96d612139948a0393a3b015907d9a51af570ab6e9d037dfb501a7bcee8b5fc",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("count", [0, -5])
def test_every_family_refuses_an_empty_count(family, count):
    with pytest.raises(ContractError, match="^count must be at least 1$"):
        FAMILIES[family](1, count)


@pytest.mark.parametrize("family,seed", sorted(PINNED_CORES))
def test_family_cores_are_pinned(family, seed):
    cores = FAMILIES[family](seed, 3000)
    digest = hashlib.sha256("\n".join(cores).encode()).hexdigest()
    assert digest == PINNED_CORES[family, seed]


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
