import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from queryspell import (ArtifactSet, ArtifactStore, BoostConfig, BoostRule, Candidate,
                        ConfigError, FrequencyDictionary, LoadError, RequestContext,
                        build_delete_index, correct_query, extract_features,
                        refresh_behavioral_stats, tokenize)
from queryspell import dictionary as dictionary_module
from queryspell import pipeline as pipeline_module
from queryspell.pipeline import load_boost_config


class TestTokenize:
    def test_whitespace_collapse(self):
        assert tokenize("glacier  national park") == ["glacier", "national", "park"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t ") == []

    def test_case_preserved_in_tokens(self):
        assert tokenize("Atlantic Mackerel") == ["Atlantic", "Mackerel"]

    def test_nfc_normalization(self):
        (tok,) = tokenize("café")
        assert tok == "café"


class TestCorrectQuery:
    def test_all_correct_query_unchanged(self, toy_artifacts, context):
        result = correct_query("museum icon", context, toy_artifacts)
        assert result.corrected == "museum icon"
        assert all(not tc.changed for tc in result.tokens)
        assert all(tc.confidence == 1.0 for tc in result.tokens)

    def test_misspelled_token_corrected(self, toy_artifacts, context):
        result = correct_query(",edal icon", context, toy_artifacts)
        assert result.corrected == "medal icon"
        assert result.tokens[0].changed
        assert 0.5 <= result.tokens[0].confidence <= 1.0

    def test_mwe_then_dictionary_path(self, toy_artifacts, context):
        result = correct_query("creativecloud", context, toy_artifacts)
        assert result.corrected == "creative cloud"
        assert [tc.changed for tc in result.tokens] == [False, False]

    def test_unknown_token_passes_through(self, toy_artifacts, context):
        result = correct_query("xqzkjv", context, toy_artifacts)
        assert result.corrected == "xqzkjv"
        assert not result.tokens[0].changed

    def test_original_casing_kept_for_unchanged_tokens(self, toy_artifacts, context):
        result = correct_query("Museum Icon", context, toy_artifacts)
        assert result.corrected == "Museum Icon"

    def test_corrections_are_lowercase(self, toy_artifacts, context):
        result = correct_query("Muzeem", context, toy_artifacts)
        assert result.corrected == "museum"

    def test_idempotent_on_clean_output(self, toy_artifacts, context):
        once = correct_query("muzeem icon", context, toy_artifacts)
        twice = correct_query(once.corrected, context, toy_artifacts)
        assert twice.corrected == once.corrected
        assert all(not tc.changed for tc in twice.tokens)

    def test_candidates_reported_top_k(self, toy_artifacts, context):
        result = correct_query("caat", context, toy_artifacts)
        assert 0 < len(result.tokens[0].candidates) <= 5
        scores = [c.score for c in result.tokens[0].candidates]
        assert scores == sorted(scores, reverse=True)

    def test_elapsed_is_positive(self, toy_artifacts, context):
        assert correct_query("muzeem", context, toy_artifacts).elapsed > 0


class TestBoost:
    def test_uniform_boost_never_changes_argmax(self, toy_artifacts, context):
        base = correct_query("caat", context, toy_artifacts)
        for multiplier in (0.25, 0.5, 2.0, 10.0):
            boosted = ArtifactSet(
                toy_artifacts.dictionary, toy_artifacts.index, toy_artifacts.model,
                toy_artifacts.mwe_map,
                BoostConfig({"stock": [BoostRule("*", multiplier)]},
                            tau=0.0 if multiplier < 1 else 0.5))
            got = correct_query("caat", context, boosted)
            assert got.tokens[0].output == base.tokens[0].output

    def test_targeted_boost_changes_argmax(self, toy_artifacts, context):
        base = correct_query("caat", context, toy_artifacts)
        loser = next(c.term for c in base.tokens[0].candidates
                     if c.term != base.tokens[0].output)
        boosted = ArtifactSet(
            toy_artifacts.dictionary, toy_artifacts.index, toy_artifacts.model,
            toy_artifacts.mwe_map,
            BoostConfig({"stock": [BoostRule(loser, 1000.0)]}))
        got = correct_query("caat", context, boosted)
        assert got.tokens[0].output == loser
        assert got.tokens[0].confidence == 1.0  # clamped for reporting

    def test_no_acceptance_below_threshold(self, toy_artifacts, context):
        strict = ArtifactSet(toy_artifacts.dictionary, toy_artifacts.index,
                             toy_artifacts.model, toy_artifacts.mwe_map,
                             BoostConfig(tau=1.0))
        result = correct_query("muzeem caat ,edal", context, strict)
        assert result.corrected == "muzeem caat ,edal"
        assert all(not tc.changed for tc in result.tokens)
        assert all(tc.confidence < 1.0 for tc in result.tokens)

    def test_boost_applies_per_application(self, toy_artifacts, toy_model):
        config = BoostConfig({"express": [BoostRule("museum", 5.0)]})
        assert config.multiplier_for("express", "museum") == 5.0
        assert config.multiplier_for("stock", "museum") == 1.0
        assert config.multiplier_for("express", "cloud") == 1.0

    def test_glob_pattern_matching(self):
        config = BoostConfig({"stock": [BoostRule("photo*", 2.0)]})
        assert config.multiplier_for("stock", "photoshop") == 2.0
        assert config.multiplier_for("stock", "express") == 1.0

    def test_invalid_multiplier_rejected(self):
        with pytest.raises(ConfigError):
            BoostConfig({"stock": [BoostRule("x", 0.0)]})
        with pytest.raises(ConfigError):
            BoostConfig({"stock": [BoostRule("x", float("inf"))]})

    def test_invalid_tau_rejected(self):
        with pytest.raises(ConfigError):
            BoostConfig(tau=1.5)

    def test_load_boost_tsv(self, tmp_path):
        path = tmp_path / "boost.tsv"
        path.write_text("stock\tphotoshop\t2.5\ncchome\tacro*\t3\n", encoding="utf-8")
        config = load_boost_config(path)
        assert config.multiplier_for("stock", "photoshop") == 2.5
        assert config.multiplier_for("cchome", "acrobat") == 3.0

    def test_load_boost_rejects_bad_multiplier(self, tmp_path):
        path = tmp_path / "boost.tsv"
        path.write_text("stock\tx\tlots\n", encoding="utf-8")
        with pytest.raises(LoadError):
            load_boost_config(path)


class TestRefresh:
    def _write_log(self, tmp_path, lines):
        path = tmp_path / "queries.tsv"
        path.write_text("".join(f"{q}\t{c}\n" for q, c in lines), encoding="utf-8")
        return path

    def test_new_term_admitted_above_threshold(self, tmp_path, toy_dictionary, toy_index):
        log = self._write_log(tmp_path, [("blockchain", 1000)])
        new_dict, new_index = refresh_behavioral_stats(
            log, toy_dictionary, min_new_term_count=100, index=toy_index)
        assert new_dict.contains("blockchain")
        assert new_dict.get("blockchain").word_count == 1000
        assert not toy_dictionary.contains("blockchain")  # original untouched
        assert "blockchain" in new_index.terms

    def test_below_threshold_term_set_unchanged(self, tmp_path, toy_dictionary, toy_index):
        log = self._write_log(tmp_path, [("blockchain", 99)])
        new_dict, _ = refresh_behavioral_stats(
            log, toy_dictionary, min_new_term_count=100, index=toy_index)
        assert set(new_dict.terms()) == set(toy_dictionary.terms())

    def test_existing_term_accumulates_counts(self, tmp_path, toy_dictionary, toy_index):
        log = self._write_log(tmp_path, [("museum tickets", 5), ("museum", 7)])
        new_dict, _ = refresh_behavioral_stats(
            log, toy_dictionary, min_new_term_count=100, index=toy_index)
        assert new_dict.get("museum").word_count == \
            toy_dictionary.get("museum").word_count + 12

    def test_empty_log_is_identity(self, tmp_path, toy_dictionary, toy_index):
        log = self._write_log(tmp_path, [])
        new_dict, new_index = refresh_behavioral_stats(
            log, toy_dictionary, min_new_term_count=100, index=toy_index)
        assert {t: (e.word_count, e.asset_frequency, e.download_count)
                for t, e in zip(new_dict.terms(), new_dict.entries())} == \
               {t: (e.word_count, e.asset_frequency, e.download_count)
                for t, e in zip(toy_dictionary.terms(), toy_dictionary.entries())}
        assert new_index.variants == toy_index.variants
        assert new_index.terms == toy_index.terms

    def test_malformed_log_reports_line(self, tmp_path, toy_dictionary, toy_index):
        path = tmp_path / "queries.tsv"
        path.write_text("museum\t3\nbroken\n", encoding="utf-8")
        with pytest.raises(LoadError) as err:
            refresh_behavioral_stats(path, toy_dictionary, index=toy_index)
        assert err.value.line == 2

    @pytest.mark.parametrize("bad_row", ["museum\tmany\n", "museum\t-3\n"])
    def test_bad_log_count_reports_line(self, tmp_path, toy_dictionary, toy_index,
                                        bad_row):
        path = tmp_path / "queries.tsv"
        path.write_text("# log\nmuseum\t3\n" + bad_row, encoding="utf-8")
        with pytest.raises(LoadError) as err:
            refresh_behavioral_stats(path, toy_dictionary, toy_index)
        assert err.value.line == 3

    def test_refreshed_dictionary_is_frozen(self, tmp_path, toy_dictionary, toy_index):
        log = self._write_log(tmp_path, [("museum", 1)])
        new_dict, _ = refresh_behavioral_stats(log, toy_dictionary, index=toy_index)
        with pytest.raises(ConfigError):
            new_dict.add("nope")

    def test_old_artifacts_unchanged_and_untouched_parts_shared(
            self, tmp_path, toy_dictionary, toy_index):
        entries = dict(zip(toy_dictionary.terms(), toy_dictionary.entries()))
        counts = {t: (e.word_count, e.asset_frequency, e.download_count)
                  for t, e in entries.items()}
        terms = toy_index.terms
        buckets = dict(toy_index.variants)
        log = self._write_log(tmp_path, [("museum", 100000), ("blockchain", 1000)])
        new_dict, new_index = refresh_behavioral_stats(log, toy_dictionary, toy_index)

        assert new_dict.get("museum").word_count == 109000
        assert dict(zip(toy_dictionary.terms(), toy_dictionary.entries())) == entries
        assert all(toy_dictionary.get(t) is e for t, e in entries.items())
        assert {t: (e.word_count, e.asset_frequency, e.download_count)
                for t, e in entries.items()} == counts
        assert toy_index.terms == terms
        assert toy_index.variants.keys() == buckets.keys()
        assert all(toy_index.variants[k] is b for k, b in buckets.items())

        assert new_dict.get("museum") is not toy_dictionary.get("museum")
        assert all(new_dict.get(t) is e for t, e in entries.items() if t != "museum")
        blockchain = new_index.terms.index("blockchain")
        assert blockchain == len(terms)
        alone = FrequencyDictionary()
        alone.add("blockchain")
        blockchain_keys = set(build_delete_index(alone.freeze()).variants)
        for key, bucket in new_index.variants.items():
            if key in blockchain_keys:
                assert bucket == buckets.get(key, ()) + (blockchain,)
            else:
                assert bucket is buckets[key]

    def test_untouched_term_keeps_its_features_and_score(
            self, tmp_path, toy_dictionary, toy_index, toy_model, context):
        """The count scaling is the model's, not the dictionary's: a refresh
        that lifts museum far above every count seen in training leaves the
        feature row and the score of medal, which the log never names, bit
        for bit as they were."""
        def medal(dictionary, index):
            cand = Candidate("medal", 1, dictionary.get("medal"))
            row = extract_features([cand], "medl", context, toy_model.feature_schema)
            result = correct_query("medl", context, ArtifactSet(dictionary, index, toy_model))
            (score,) = [c.score for c in result.tokens[0].candidates if c.term == "medal"]
            return row.tobytes(), score

        before = medal(toy_dictionary, toy_index)
        log = self._write_log(tmp_path, [("museum", 100000)])
        new_dict, new_index = refresh_behavioral_stats(log, toy_dictionary, toy_index)
        assert new_dict.get("museum").word_count > max(toy_model.feature_schema.count_maxima)
        assert medal(new_dict, new_index) == before

    def test_refresh_does_not_rebuild_the_index(self, tmp_path, toy_dictionary,
                                                toy_index, monkeypatch):
        def full_rebuild(*args, **kwargs):
            raise AssertionError("refresh rebuilt the whole delete index")
        monkeypatch.setattr(dictionary_module, "build_delete_index", full_rebuild)
        monkeypatch.setattr(pipeline_module, "build_delete_index", full_rebuild,
                            raising=False)
        log = self._write_log(tmp_path, [("blockchain", 1000), ("museum", 5)])
        new_dict, new_index = refresh_behavioral_stats(log, toy_dictionary, toy_index)
        assert "blockchain" in new_index.terms and new_dict.contains("blockchain")

    def test_index_of_another_dictionary_rejected(self, tmp_path, toy_dictionary):
        log = self._write_log(tmp_path, [("museum", 5)])
        other = FrequencyDictionary()
        other.add("museum")
        with pytest.raises(ConfigError):
            refresh_behavioral_stats(log, toy_dictionary,
                                     build_delete_index(other.freeze()))


_words = st.text(alphabet="abcde", min_size=1, max_size=9)
_logs = st.lists(st.tuples(st.lists(_words, min_size=1, max_size=3).map(" ".join),
                           st.integers(min_value=0, max_value=120)), max_size=12)


def _counts(dictionary):
    return {e.term: (e.word_count, e.asset_frequency, e.download_count)
            for e in dictionary.entries()}


def _term_sets(index):
    return {key: {index.terms[tid] for tid in bucket}
            for key, bucket in index.variants.items()}


@given(terms=st.dictionaries(_words, st.integers(min_value=0, max_value=300),
                             min_size=1, max_size=25),
       logs=st.lists(_logs, min_size=1, max_size=2))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_refresh_matches_full_rebuild(tmp_path, terms, logs):
    """One refresh or two in a row give the dictionary that summing the logs
    into a fresh one gives, and an index that files the same terms under
    every key as a full rebuild of that dictionary."""
    dictionary = FrequencyDictionary()
    for term, count in terms.items():
        dictionary.add(term, word_count=count, asset_frequency=count // 3)
    dictionary.freeze()
    index = build_delete_index(dictionary)
    expected = {t: list(c) for t, c in _counts(dictionary).items()}
    for rows in logs:
        log = tmp_path / "queries.tsv"
        log.write_text("".join(f"{q}\t{c}\n" for q, c in rows), encoding="utf-8")
        occurrences = {}
        for query, count in rows:
            for token in query.split():
                occurrences[token] = occurrences.get(token, 0) + count
        for term, count in occurrences.items():
            if term in expected:
                expected[term][0] += count
            elif count >= 100:
                expected[term] = [count, 0, 0]

        new_dict, new_index = refresh_behavioral_stats(log, dictionary, index,
                                                       min_new_term_count=100)
        assert _counts(new_dict) == {t: tuple(c) for t, c in expected.items()}
        rebuilt = build_delete_index(new_dict)
        assert _term_sets(new_index) == _term_sets(rebuilt)
        assert all(list(b) == sorted(set(b)) for b in new_index.variants.values())
        assert new_index.terms[:len(index.terms)] == index.terms
        assert sorted(new_index.terms) == list(rebuilt.terms)
        dictionary, index = new_dict, new_index


class TestArtifactStore:
    def test_swap_is_visible_and_timestamp_increases(self, toy_artifacts):
        store = ArtifactStore(toy_artifacts)
        t0 = store.timestamp
        replacement = ArtifactSet(toy_artifacts.dictionary, toy_artifacts.index,
                                  toy_artifacts.model)
        store.swap(replacement)
        assert store.snapshot() is replacement
        assert store.timestamp > t0

    def test_concurrent_readers_see_consistent_snapshots(self, toy_artifacts, context):
        store = ArtifactStore(toy_artifacts)
        errors = []

        def reader():
            try:
                for _ in range(200):
                    snap = store.snapshot()
                    result = correct_query("muzeem", context, snap)
                    assert result.corrected == "museum"
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def swapper():
            for _ in range(50):
                store.swap(ArtifactSet(toy_artifacts.dictionary, toy_artifacts.index,
                                       toy_artifacts.model, toy_artifacts.mwe_map))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=swapper))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
