import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryspell import (ConfigError, DictionaryEntry, FrequencyDictionary,
                        LoadError, build_delete_index, generate_deletes,
                        load_dictionary, write_dictionary)
from queryspell.dictionary import load_dictionary_dir, write_dictionary_dir

from oracles import deletes_by_combinations, ref_damerau_levenshtein

terms_strategy = st.sets(st.text(alphabet="abcde", min_size=1, max_size=7),
                         min_size=1, max_size=80)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoading:
    def test_disjoint_union(self, tmp_path):
        lex = _write(tmp_path / "lex.tsv", "museum\t1000\n")
        vocab = _write(tmp_path / "vocab.tsv", "photoshop\t500\n")
        d = load_dictionary(lex, [vocab])
        assert len(d) == 2
        assert d.get("museum").word_count == 1000

    def test_collision_sums_counters(self, tmp_path):
        lex = _write(tmp_path / "lex.tsv", "cloud\t10\n")
        vocab = _write(tmp_path / "vocab.tsv", "cloud\t5\n")
        d = load_dictionary(lex, [vocab])
        assert len(d) == 1
        assert d.get("cloud").word_count == 15

    def test_stats_assignment(self, tmp_path):
        lex = _write(tmp_path / "lex.tsv", "museum\t1000\n")
        stats = _write(tmp_path / "stats.tsv", "museum\t42\t7\n")
        d = load_dictionary(lex, stats_file=stats)
        assert d.get("museum").asset_frequency == 42
        assert d.get("museum").download_count == 7

    def test_terms_are_nfc_lowercased(self, tmp_path):
        lex = _write(tmp_path / "lex.tsv", "Café\t3\n")  # NFD input
        d = load_dictionary(lex)
        assert d.contains("café")
        assert d.contains("CAFÉ")

    def test_comments_and_blanks_skipped(self, tmp_path):
        lex = _write(tmp_path / "lex.tsv", "# header\n\nmuseum\t1\n")
        assert len(load_dictionary(lex)) == 1

    def test_malformed_line_names_file_and_line(self, tmp_path):
        lex = _write(tmp_path / "lex.tsv", "museum\t1\nbroken-line\n")
        with pytest.raises(LoadError) as err:
            load_dictionary(lex)
        assert "lex.tsv" in str(err.value)
        assert err.value.line == 2

    def test_non_integer_count(self, tmp_path):
        lex = _write(tmp_path / "lex.tsv", "museum\tmany\n")
        with pytest.raises(LoadError):
            load_dictionary(lex)

    def test_empty_union_is_config_error(self, tmp_path):
        lex = _write(tmp_path / "lex.tsv", "# nothing here\n")
        with pytest.raises(ConfigError):
            load_dictionary(lex)


class TestArtifactDirectory:
    """dictionary.tsv + stats.tsv + manifest.json, whose manifest records
    the fixed index parameters and refuses any other."""

    def test_round_trip_keeps_index_parameters(self, tmp_path, toy_dictionary):
        index = build_delete_index(toy_dictionary)
        write_dictionary_dir(tmp_path, toy_dictionary, index)
        dictionary, loaded, manifest = load_dictionary_dir(tmp_path)
        assert (manifest["prefix_length"], manifest["max_edit_distance"]) == (7, 2)
        assert loaded.variants == index.variants
        assert manifest["terms"] == len(dictionary) == len(toy_dictionary)

    def test_manifest_as_written_by_earlier_builds(self, tmp_path, toy_dictionary):
        write_dictionary(toy_dictionary, tmp_path / "dictionary.tsv",
                         tmp_path / "stats.tsv")
        _write(tmp_path / "manifest.json", json.dumps({
            "locale": "de",
            "max_counts": {"asset_frequency": 29700, "download_count": 4950,
                           "word_count": 9900},
            "max_edit_distance": 2, "prefix_length": 7, "terms": 40,
            "variants": 1}, indent=1, sort_keys=True))
        dictionary, index, _ = load_dictionary_dir(tmp_path)
        assert dictionary.locale == "de"
        assert index.variants == build_delete_index(toy_dictionary).variants

    def test_no_manifest_uses_library_defaults(self, tmp_path, toy_dictionary):
        write_dictionary(toy_dictionary, tmp_path / "dictionary.tsv",
                         tmp_path / "stats.tsv")
        dictionary, index, manifest = load_dictionary_dir(tmp_path)
        assert manifest == {}
        assert dictionary.locale == "en"
        assert index.variants == build_delete_index(toy_dictionary).variants

    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2]",
        '{"locale": "en", "prefix_length": 0, "max_edit_distance": 2}',
        '{"locale": "en", "prefix_length": 7, "max_edit_distance": 3}',
        '{"locale": "en", "prefix_length": "7", "max_edit_distance": 2}',
        '{"locale": "", "prefix_length": 7, "max_edit_distance": 2}',
        '{"locale": "en", "max_edit_distance": 2}',
        '{"locale": "en", "prefix_length": 5, "max_edit_distance": 2}',
        '{"locale": "en", "prefix_length": 7, "max_edit_distance": 1}',
    ])
    def test_bad_manifest_is_load_error(self, tmp_path, toy_dictionary, text):
        write_dictionary(toy_dictionary, tmp_path / "dictionary.tsv",
                         tmp_path / "stats.tsv")
        _write(tmp_path / "manifest.json", text)
        with pytest.raises(LoadError) as err:
            load_dictionary_dir(tmp_path)
        assert "manifest.json" in str(err.value)

    def test_every_file_is_replaced_atomically(self, tmp_path, toy_dictionary,
                                               monkeypatch):
        import queryspell.dictionary as module
        replaced = []
        real_replace = module.os.replace

        def spy(src, dst):
            replaced.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(module.os, "replace", spy)
        write_dictionary_dir(tmp_path, toy_dictionary, build_delete_index(toy_dictionary))
        assert sorted(replaced) == ["dictionary.tsv", "manifest.json", "stats.tsv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(replaced)


class TestEntryInvariants:
    def test_rejects_whitespace_term(self):
        with pytest.raises(ValueError):
            DictionaryEntry("two words")

    def test_rejects_empty_term(self):
        with pytest.raises(ValueError):
            DictionaryEntry("")

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            DictionaryEntry("ok", word_count=-1)

    @pytest.mark.parametrize("field", ["word_count", "asset_frequency",
                                       "download_count"])
    def test_add_rejects_negative_counts_for_new_and_existing_terms(self, field):
        d = FrequencyDictionary()
        with pytest.raises(ValueError):
            d.add("fresh", **{field: -1})
        d.add("term", word_count=5, asset_frequency=5, download_count=5)
        with pytest.raises(ValueError):
            d.add("term", **{field: -1})
        assert d.get("term") == DictionaryEntry("term", 5, 5, 5)

    def test_entries_are_frozen_and_add_replaces_them(self):
        d = FrequencyDictionary()
        e = d.add("t", word_count=1)
        d.add("t", word_count=2)
        assert e.word_count == 1
        assert d.get("t").word_count == 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.word_count = 5

    def test_frozen_dictionary_rejects_mutation(self):
        d = FrequencyDictionary()
        d.add("term", word_count=1)
        d.freeze()
        with pytest.raises(ConfigError):
            d.add("another")

    def test_only_a_frozen_dictionary_shares_its_entries(self):
        d = FrequencyDictionary()
        d.add("term", word_count=1)
        with pytest.raises(ConfigError):
            d.with_word_counts({"term": 1})
        merged = d.freeze().with_word_counts({"Term": 2, "other": 3})
        assert merged.get("term").word_count == 3 and d.get("term").word_count == 1
        with pytest.raises(ConfigError):
            merged.add("another")


class TestContains:
    def test_membership(self, toy_dictionary):
        assert toy_dictionary.contains("museum")

    def test_case_folded_membership(self, toy_dictionary):
        assert toy_dictionary.contains("Museum")

    def test_absent_term(self, toy_dictionary):
        assert not toy_dictionary.contains("muzeem")


class TestGenerateDeletes:
    def test_depth_one(self):
        assert generate_deletes("abc", 1) == {"ab", "ac", "bc"}

    def test_depth_two(self):
        assert generate_deletes("abc", 2) == {"ab", "ac", "bc", "a", "b", "c"}

    def test_single_char_gives_empty_string(self):
        assert generate_deletes("a", 1) == {""}

    def test_depth_zero(self):
        assert generate_deletes("abc", 0) == set()

    @given(st.text(alphabet="abcdef", min_size=1, max_size=9),
           st.integers(min_value=0, max_value=2))
    def test_matches_combinations_oracle(self, term, depth):
        assert generate_deletes(term, depth) == deletes_by_combinations(term, depth)


def _dict_of(terms):
    d = FrequencyDictionary()
    for t in terms:
        d.add(t, word_count=1)
    return d.freeze()


class TestDeleteIndex:
    def test_single_term_depth_one(self):
        index = build_delete_index(_dict_of({"cat"}))
        depth_one = {"cat", "at", "ct", "ca"}
        depth_two = {"a", "c", "t"}
        assert index.variants == {key: (0,) for key in depth_one | depth_two}

    def test_shared_variant_accumulates(self):
        index = build_delete_index(_dict_of({"at", "cat"}))
        terms = index.terms
        hit = {terms[tid] for tid in index.variants["at"]}
        assert hit == {"at", "cat"}

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ConfigError):
            build_delete_index(FrequencyDictionary().freeze())

    def test_long_term_keeps_full_self_key(self):
        index = build_delete_index(_dict_of({"abcdefghij"}))
        assert index.variants.get("abcdefghij", ()) == (0,)
        assert index.variants.get("abcdefg", ()) == (0,)  # prefix, zero deletions

    @given(terms_strategy)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_every_term(self, terms):
        index = build_delete_index(_dict_of(terms))
        for tid, term in enumerate(index.terms):
            assert tid in index.variants.get(term, ())

    @given(terms_strategy, st.text(alphabet="abcde", min_size=1, max_size=9))
    @settings(max_examples=150, deadline=None)
    def test_completeness_within_distance(self, terms, token):
        """Any term within distance 2 of the token must be retrievable from
        the intersection of delete variants."""
        d = _dict_of(terms)
        index = build_delete_index(d)
        retrieved = {index.terms[tid] for tid in index.candidate_ids(token, 2)}
        for term in terms:
            if ref_damerau_levenshtein(token, term) <= 2:
                assert term in retrieved

    @given(terms_strategy)
    @settings(max_examples=25, deadline=None)
    def test_build_is_deterministic(self, terms):
        a = build_delete_index(_dict_of(terms))
        b = build_delete_index(_dict_of(terms))
        assert a.variants == b.variants
        assert a.terms == b.terms
