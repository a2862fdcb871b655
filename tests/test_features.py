import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from queryspell import (Candidate, ConfigError, FeatureSchema, FrequencyDictionary,
                        RequestContext, extract_features, phonetic_similarity)


def _dict_with(entries):
    d = FrequencyDictionary()
    for term, wc, af, dc in entries:
        d.add(term, word_count=wc, asset_frequency=af, download_count=dc)
    return d.freeze()


def _candidate(d, term, distance=1):
    return Candidate(term, distance, d.get(term))


def _row(d, term, token, context, schema=FeatureSchema(), distance=1):
    """The feature row of one candidate, scaled to the maxima of ``d``."""
    (row,) = extract_features([_candidate(d, term, distance)], token, context,
                              schema.scaled_to(d))
    return dict(zip(schema.feature_names(), row))


class TestExtractFeatures:
    def test_max_word_count_normalizes_to_one(self, context):
        d = _dict_with([("museum", 1000, 5, 5), ("cat", 10, 1, 1)])
        assert _row(d, "museum", "muzeum", context)["word_count"] == 1.0

    def test_zero_counters_and_forced_neutral_phonetic(self, schema):
        d = _dict_with([("chose", 0, 0, 0), ("autre", 9, 9, 9)])
        ctx = RequestContext("fr", "stock")
        row = _row(d, "chose", "choze", ctx, schema, distance=2)
        assert (row["word_count"], row["asset_frequency"], row["download_count"]) == (0, 0, 0)
        assert row["edit_distance"] == 1.0
        assert row["phonetic_similarity"] == 0.5
        assert (row["locale=en"], row["locale=fr"], row["locale=de"]) == (0.0, 1.0, 0.0)

    def test_log_scaling_midpoint(self, context):
        d = _dict_with([("word", 99, 0, 0), ("top", 9999, 0, 0)])
        value = _row(d, "word", "wrod", context)["word_count"]
        assert value == pytest.approx(math.log1p(99) / math.log1p(9999), abs=1e-12)
        assert value == pytest.approx(0.5, abs=1e-3)

    def test_unknown_locale_rejected(self, schema):
        d = _dict_with([("museum", 1, 1, 1)])
        with pytest.raises(ConfigError):
            _row(d, "museum", "museum", RequestContext("xx", "stock"), schema)

    def test_unknown_application_rejected(self, schema):
        d = _dict_with([("museum", 1, 1, 1)])
        with pytest.raises(ConfigError):
            _row(d, "museum", "museum", RequestContext("en", "nosuch"), schema)

    def test_dimension_matches_schema(self, context, schema):
        d = _dict_with([("museum", 1, 1, 1), ("music", 2, 2, 2)])
        cands = [_candidate(d, "museum"), _candidate(d, "music", 2)]
        assert extract_features(cands, "muzeum", context, schema).shape == \
            (2, schema.dimension)
        assert extract_features([], "muzeum", context, schema).shape == \
            (0, schema.dimension)

    def test_rows_follow_candidate_order(self, toy_dictionary, context, schema):
        scaled = schema.scaled_to(toy_dictionary)
        cands = [_candidate(toy_dictionary, t, 2) for t in ("museum", "mused", "medal")]
        X = extract_features(cands, "muzeem", context, scaled)
        for cand, row in zip(cands, X):
            assert (extract_features([cand], "muzeem", context, scaled)[0] == row).all()

    def test_scaling_comes_from_the_schema(self, context):
        d = _dict_with([("medal", 450, 0, 0), ("museum", 9000, 0, 0)])
        schema = FeatureSchema().scaled_to(d)
        assert schema.count_maxima == (9000, 0, 0)
        bigger = _dict_with([("medal", 450, 0, 0), ("museum", 109000, 0, 0)])
        (row,) = extract_features([_candidate(bigger, "medal")], "medl", context, schema)
        assert row[0] == math.log1p(450) / math.log1p(9000)
        # a count above the stored maximum reads 1, never more
        (row,) = extract_features([_candidate(bigger, "museum")], "musem", context, schema)
        assert row[0] == 1.0

    def test_empty_dictionary_scales_to_zero(self):
        assert FeatureSchema().scaled_to(FrequencyDictionary()).count_maxima == (0, 0, 0)

    @given(wc=st.integers(0, 10**9), af=st.integers(0, 10**9),
           dc=st.integers(0, 10**9), top=st.integers(0, 10**9),
           distance=st.integers(1, 2),
           locale=st.sampled_from(["en", "fr", "de"]),
           app=st.sampled_from(["stock", "express", "cchome"]))
    def test_vector_invariants(self, wc, af, dc, top, distance, locale, app):
        d = FrequencyDictionary()
        d.add("cand", word_count=wc, asset_frequency=af, download_count=dc)
        d.add("peak", word_count=top, asset_frequency=top, download_count=top)
        d.freeze()
        row = _row(d, "cand", "candx", RequestContext(locale, app), distance=distance)
        values = list(row.values())
        assert all(0.0 <= v <= 1.0 for v in values)
        assert sum(v for k, v in row.items() if k.startswith("locale=")) == 1.0
        assert sum(v for k, v in row.items() if k.startswith("application=")) == 1.0

    @given(low=st.integers(0, 1000), bump=st.integers(0, 1000))
    def test_word_count_monotonicity(self, low, bump):
        d1 = _dict_with([("term", low, 0, 0), ("cap", 5000, 0, 0)])
        d2 = _dict_with([("term", low + bump, 0, 0), ("cap", 5000, 0, 0)])
        ctx = RequestContext("en", "stock")
        a = _row(d1, "term", "termm", ctx)
        b = _row(d2, "term", "termm", ctx)
        assert b["word_count"] >= a["word_count"]


class TestPhoneticSimilarity:
    def test_sound_alike_is_perfect(self):
        assert phonetic_similarity("muzeem", "museum") == 1.0

    def test_orders_above_unrelated_term(self):
        assert phonetic_similarity("muzeem", "museum") >= \
            phonetic_similarity("market", "museum")

    def test_identical_strings(self):
        assert phonetic_similarity("abc", "abc") == 1.0

    def test_empty_vs_nonempty(self):
        assert phonetic_similarity("a", "") == 0.0

    def test_both_codeless(self):
        assert phonetic_similarity("祝", "福") == 1.0

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=10),
           st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=10))
    def test_symmetric_and_bounded(self, a, b):
        s = phonetic_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == phonetic_similarity(b, a)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=10))
    def test_self_similarity(self, word):
        assert phonetic_similarity(word, word) == 1.0
