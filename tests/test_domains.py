import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import scalar_oracles as oracle
from dgalab import domains
from dgalab.domains import (DEFAULT_TOKENS, LABEL_CHARS, CheckedNames,
                            SeedSpace, TokenDict, assemble_fqdn, check_tld,
                            checked_names, encode_seed, validate_domain)
from dgalab.errors import (AssemblyError, ContractError, DataError,
                           ScoringError, SeedRangeError)
from dgalab.policy import init_params


def days_from_civil(y, m, d):
    """Independent day count (Gregorian to days since 1970-01-01)."""
    y -= m <= 2
    era = (y if y >= 0 else y - 399) // 400
    yoe = y - era * 400
    doy = (153 * (m + (-3 if m > 2 else 9)) + 2) // 5 + d - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


class TestTokenDict:
    def test_default_alphabet(self):
        assert DEFAULT_TOKENS.n == 37
        # the start marker takes the embedding row after the n tokens
        assert init_params(1, 2, 3, DEFAULT_TOKENS.n,
                           rng_seed=0).embedding.shape[0] == 38
        assert DEFAULT_TOKENS.tokens[0] == "a"
        assert DEFAULT_TOKENS.hyphen_index == 36

    def test_rejects_duplicates_and_bad_chars(self):
        with pytest.raises(ContractError):
            TokenDict("aab")
        with pytest.raises(ContractError):
            TokenDict("ab_")
        with pytest.raises(ContractError):
            TokenDict("a")

    def test_bijection(self):
        d = DEFAULT_TOKENS
        for i, ch in enumerate(d.tokens):
            assert d.tokens.index(ch) == i
            assert d.detokenize([i]) == ch

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                   min_size=1, max_size=30))
    def test_round_trip(self, core):
        d = DEFAULT_TOKENS
        assert d.detokenize([d.tokens.index(c) for c in core]) == core


class TestEncodeSeed:
    def test_epoch_is_index_zero(self):
        vec, seed = encode_seed(dt.date(1970, 1, 1))
        assert seed == 0
        assert vec[0] == 1.0 and vec.sum() == 1.0 and len(vec) == 37

    def test_next_day_is_index_one(self):
        vec, seed = encode_seed(dt.date(1970, 1, 2))
        assert seed == 1
        assert vec[1] == 1.0 and vec.sum() == 1.0

    def test_against_calendar_oracle(self):
        date = dt.date(2016, 8, 1)
        days = days_from_civil(2016, 8, 1)
        vec, seed = encode_seed(date)
        assert seed == days
        assert vec[days % 37] == 1.0 and vec.sum() == 1.0
        small = TokenDict("abcde")
        vec5, seed5 = encode_seed(date, small)
        assert seed5 == days and vec5[days % 5] == 1.0 and len(vec5) == 5

    def test_determinism(self):
        a = encode_seed(dt.date(2020, 5, 17))
        b = encode_seed(dt.date(2020, 5, 17))
        assert a[1] == b[1] and np.array_equal(a[0], b[0])

    def test_range_error(self):
        space = SeedSpace(dt.date(2016, 1, 1), dt.date(2016, 12, 31))
        with pytest.raises(SeedRangeError):
            encode_seed(dt.date(2017, 1, 1), space=space)
        encode_seed(dt.date(2016, 6, 1), space=space)


class TestAssemble:
    def test_plain(self):
        assert assemble_fqdn("abcdef", "com") == "abcdef.com"

    def test_length_error(self):
        with pytest.raises(AssemblyError):
            assemble_fqdn("a" * 63, "x" * 63 + "."
                          + "y" * 63 + "." + "z" * 57 + ".info")


class TestValidate:
    @pytest.mark.parametrize("name,ok", [
        ("abc.com", True),
        ("-abc.com", False),
        ("a_b.com", False),
        ("abc-.com", False),
        ("a.b.c.d", True),
        ("", False),
        ("a" * 63 + ".com", True),
        ("a" * 64 + ".com", False),
        ("ab..com", False),
        ("ABC.com", False),
        ("a" * 251 + ".c" * 30, False),
    ])
    def test_cases(self, name, ok):
        assert validate_domain(name) is ok

    def test_total_function(self):
        assert validate_domain(None) is False  # type: ignore[arg-type]

    @pytest.mark.parametrize("name", ["abc\n.co.uk", "abc.co\n.uk",
                                      "abc.co.uk\n", "\nabc.co.uk"])
    def test_newline_rejected(self, name):
        assert validate_domain(name) is False


class TestCheckedNames:
    def test_checked_batch_comes_back_unchecked(self, monkeypatch):
        batch = checked_names(name for name in ("abc.com", "x-1.org"))
        assert type(batch) is CheckedNames
        assert batch == ["abc.com", "x-1.org"]

        def refuse(_name):
            raise AssertionError("a checked batch was validated again")

        monkeypatch.setattr(domains, "validate_domain", refuse)
        assert checked_names(batch) is batch

    def test_scoring_error_is_a_data_error(self):
        # the env raises it for an invalid name, and the CLI exits 2
        assert issubclass(ScoringError, DataError)
        with pytest.raises(DataError, match="^invalid domain 'UPPER.com'$"):
            checked_names(["abc.com", "UPPER.com"])


class TestCheckTld:
    @pytest.mark.parametrize("tld", ["com", "co.uk", "x", "xn--p1ai"])
    def test_valid(self, tld):
        assert check_tld(tld) == tld
        assert check_tld(tld, 1) == tld

    @pytest.mark.parametrize("tld", ["C-", "X", "-com", "com-", "co..uk",
                                     "", ".com", "com.", "com\n", "c_m"])
    def test_invalid(self, tld):
        with pytest.raises(AssemblyError, match="violates RFC limits"):
            check_tld(tld, 10)

    def test_name_length_limit(self):
        tld = ".".join(["abcdefghi"] * 24)           # 239 characters
        assert check_tld(tld, 13) == tld             # 13 + 1 + 239 = 253
        with pytest.raises(AssemblyError):
            check_tld(tld, 14)
        with pytest.raises(AssemblyError):
            check_tld("com", 64)


def _dictionaries():
    """Random token dictionaries, with and without a hyphen."""
    return st.permutations(LABEL_CHARS).flatmap(
        lambda chars: st.integers(2, len(chars)).map(
            lambda n: TokenDict("".join(chars[:n]))))


@st.composite
def _token_rows(draw):
    """(dictionary, (B, T) tokens with no hyphen at either edge, tld)."""
    dct = draw(_dictionaries())
    T = draw(st.integers(1, 63))
    B = draw(st.integers(1, 6))
    inner = list(range(dct.n))
    edge = [i for i in inner if i != dct.hyphen_index]
    rows = [[draw(st.sampled_from(edge if t in (0, T - 1) else inner))
             for t in range(T)] for _ in range(B)]
    return dct, np.array(rows, dtype=np.int64), draw(
        st.sampled_from(["com", "co.uk", "x"]))


class TestTokenNames:
    @given(_token_rows())
    @example((TokenDict("ab"), np.array([[0, 1, 1], [1, 0, 0]]), "com"))
    @example((TokenDict("a-"), np.array([[0] * 63, [0, 1] * 31 + [0]]),
              "co.uk"))
    @example((TokenDict("q7z0"), np.array([[1, 3, 2]]), "x"))
    def test_equals_detokenize_and_assemble(self, case):
        dct, tokens, tld = case
        got = dct.fqdns(tokens, tld)
        assert got == oracle.token_fqdns(dct, tokens, tld)
        assert all(type(name) is str for name in got)


class TestDomainSequence:
    """The rules a generated core label must meet, checked where a core
    becomes a name."""

    def test_rejects_edge_hyphen(self):
        with pytest.raises(AssemblyError):
            assemble_fqdn("-abc", "com")
        with pytest.raises(AssemblyError):
            assemble_fqdn("abc-", "com")

    def test_rejects_too_long(self):
        with pytest.raises(AssemblyError):
            assemble_fqdn("a" * 64, "com")

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                   min_size=1, max_size=63))
    def test_valid_cores_assemble_valid(self, core):
        assert validate_domain(assemble_fqdn(core, "com"))
