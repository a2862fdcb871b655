from hypothesis import given, settings
from hypothesis import strategies as st

from queryspell import FrequencyDictionary, build_delete_index, suggest

from oracles import brute_force_suggest, ref_damerau_levenshtein


def _build(terms):
    d = FrequencyDictionary()
    for t in terms:
        d.add(t, word_count=1)
    d.freeze()
    return d, build_delete_index(d)


def test_in_dictionary_token_yields_nothing(toy_dictionary, toy_index):
    assert suggest(toy_index, toy_dictionary, "museum") == []


def test_case_variant_of_dictionary_token_yields_nothing(toy_dictionary, toy_index):
    assert suggest(toy_index, toy_dictionary, "Museum") == []


def test_distance_one_candidates_suppress_distance_two():
    d, index = _build({"cat", "cart", "chat", "coat", "cut"})
    got = {(c.term, c.edit_distance) for c in suggest(index, d, "caat")}
    assert got == {("cat", 1), ("cart", 1), ("chat", 1), ("coat", 1)}


def test_escalates_to_distance_two_when_sparse():
    d, index = _build({"museum"})
    got = [(c.term, c.edit_distance) for c in suggest(index, d, "muzeem")]
    assert got == [("museum", 2)]


def test_no_candidates_returns_empty():
    d, index = _build({"museum"})
    assert suggest(index, d, "zzzzzz") == []


def test_digit_and_punctuation_tokens_correctable():
    d, index = _build({"park", "medal"})
    assert [c.term for c in suggest(index, d, "0ark")] == ["park"]
    assert [c.term for c in suggest(index, d, ",edal")] == ["medal"]


def test_candidates_carry_statistics_snapshot(toy_dictionary, toy_index):
    (cand,) = [c for c in suggest(toy_index, toy_dictionary, "muzeem")
               if c.term == "museum"]
    assert cand.entry is toy_dictionary.get("museum")  # frozen, so shared
    assert cand.score is None


dict_strategy = st.sets(st.text(alphabet="abcd", min_size=1, max_size=8),
                        min_size=1, max_size=60)


@given(dict_strategy, st.text(alphabet="abcde", min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_oracle_equivalence(terms, token):
    d, index = _build(terms)
    got = {(c.term, c.edit_distance) for c in suggest(index, d, token)}
    expected = set(brute_force_suggest(terms, token).items())
    assert got == expected


@given(dict_strategy, st.text(alphabet="abcd", min_size=1, max_size=9))
@settings(max_examples=100, deadline=None)
def test_output_invariants(terms, token):
    d, index = _build(terms)
    for cand in suggest(index, d, token):
        assert cand.edit_distance in (1, 2)
        assert d.contains(cand.term)
        assert ref_damerau_levenshtein(token, cand.term) == cand.edit_distance
