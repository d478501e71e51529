import hashlib

import pytest

from dgalab.corpora import (LabeledCorpus, bundled_benign, bundled_tlds,
                            load_domains, load_wordlist, save_domains,
                            synthesize_benign)
from dgalab.detectors.features import FEATURE_NAMES
from dgalab.domains import validate_domain
from dgalab.errors import DataError
from conftest import extract_features


class TestWordlists:
    def test_bundled_lists_load_and_validate(self):
        a = load_wordlist(bundled="words_a.txt")
        b = load_wordlist(bundled="words_b.txt")
        assert len(a) > 500 and len(b) > 500
        assert set(a.words).isdisjoint(b.words)

    def test_tlds_and_third_levels(self):
        assert "com" in bundled_tlds()


class TestBenignPool:
    def test_bundled_matches_synthesizer(self):
        # sha256 of the 50,000 names joined by newlines, as frozen in the
        # benign list the package once shipped; a change to the synthesizer,
        # the wordlists or the RNG stream changes it.
        names = bundled_benign()
        assert len(names) == 50_000
        digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
        assert digest == ("45a0751c45566e70b9cb2f00dc4a3db0"
                          "9f5204923818bc6c945f77f18873e3d6")

    def test_synthesize_deterministic_unique_valid(self):
        a = synthesize_benign(500, rng_seed=3)
        b = synthesize_benign(500, rng_seed=3)
        assert a == b
        assert len(set(a)) == 500
        assert all(validate_domain(d) for d in a)


class TestCorpusFiles:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header comment\nalpha.com\n\nbeta.net\n")
        assert load_domains(path) == ["alpha.com", "beta.net"]
        save_domains(tmp_path / "out.txt", ["x.com", "y.org"])
        assert load_domains(tmp_path / "out.txt") == ["x.com", "y.org"]

    def test_invalid_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ok.com\nNOT VALID\n")
        with pytest.raises(DataError):
            load_domains(path)

    def test_labeled_corpus_requires_both_classes(self):
        with pytest.raises(DataError):
            LabeledCorpus(("a.com",), ()).require_both()


def features_csv(domains) -> str:
    """CSV export with the fixed 21-column header (plus the domain)."""
    lines = [",".join(("domain",) + FEATURE_NAMES)]
    for domain in domains:
        values = extract_features(domain)
        lines.append(domain + "," + ",".join(f"{v:.6g}" for v in values))
    return "\n".join(lines) + "\n"


class TestFeatureCsv:
    def test_fixed_header_and_rows(self):
        csv = features_csv(["google.com", "a-b-c.net"])
        lines = csv.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "domain"
        assert tuple(header[1:]) == FEATURE_NAMES
        assert len(header) == 22
        assert len(lines) == 3
