import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryspell import damerau_levenshtein

from oracles import edit_distances_by_composition, ref_damerau_levenshtein

short = st.text(alphabet="abcd", max_size=8)
words = st.text(alphabet="abcdefghië", max_size=12)


@pytest.mark.parametrize("a,b,expected", [
    ("change", "chnage", 1),
    ("check", "chekc", 1),
    ("fresh", "frash", 1),
    ("fresh", "freshh", 1),
    ("malleable", "mallable", 1),
    ("happiness", "hapiness", 1),
    ("français", "francais", 1),
    ("x", "x", 0),
    ("", "", 0),
    ("", "abc", 3),
    ("abc", "", 3),
    ("kitten", "sitting", 3),
    ("ca", "abc", 2),      # transpose + insert inside the pair
    ("muzeem", "museum", 2),
    ("park", "0ark", 1),
    ("medal", ",edal", 1),
])
def test_known_distances(a, b, expected):
    assert damerau_levenshtein(a, b) == expected
    assert ref_damerau_levenshtein(a, b) == expected


@given(words, words)
def test_matches_reference_dp(a, b):
    assert damerau_levenshtein(a, b) == ref_damerau_levenshtein(a, b)


@given(short, short)
def test_symmetric(a, b):
    assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)


@given(words, words)
def test_zero_iff_equal(a, b):
    assert (damerau_levenshtein(a, b) == 0) == (a == b)


@given(short, short, short)
def test_triangle_inequality(a, b, c):
    assert (damerau_levenshtein(a, c)
            <= damerau_levenshtein(a, b) + damerau_levenshtein(b, c))


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=5))
def test_agrees_with_edit_composition(word):
    """Distance <= 2 must coincide with reachability by <= 2 single edits."""
    reach = edit_distances_by_composition(word, "abc", 2)
    for other, ops in reach.items():
        assert damerau_levenshtein(word, other) == ops
    # and nothing outside the reachable set is within distance 2
    for other in _all_strings("abc", 5):
        if other not in reach:
            assert damerau_levenshtein(word, other) > 2


def _all_strings(alphabet, max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [s + ch for s in frontier for ch in alphabet]
        out.extend(frontier)
    return out


# -- the bounded form: exact up to k, k + 1 beyond ----------------------------

@st.composite
def near_pairs(draw):
    """A word and the result of 1-3 random single edits applied to it."""
    word = draw(words)
    other = list(word)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(("insert", "delete", "substitute", "transpose")))
        if op == "insert":
            pos = draw(st.integers(min_value=0, max_value=len(other)))
            other.insert(pos, draw(st.sampled_from("abcdefghië")))
        elif not other:
            continue
        elif op == "transpose" and len(other) > 1:
            pos = draw(st.integers(min_value=0, max_value=len(other) - 2))
            other[pos], other[pos + 1] = other[pos + 1], other[pos]
        else:
            pos = draw(st.integers(min_value=0, max_value=len(other) - 1))
            if op == "delete":
                del other[pos]
            else:
                other[pos] = draw(st.sampled_from("abcdefghië"))
    return word, "".join(other)


def _assert_bounded(a, b):
    exact = ref_damerau_levenshtein(a, b)
    for k in range(4):
        assert damerau_levenshtein(a, b, k) == min(exact, k + 1), (a, b, k)


@given(words, words)
def test_bounded_matches_reference(a, b):
    _assert_bounded(a, b)


@given(short, short)
def test_bounded_matches_reference_small_alphabet(a, b):
    _assert_bounded(a, b)


@settings(max_examples=300)
@given(near_pairs())
def test_bounded_matches_reference_near_neighbours(pair):
    _assert_bounded(*pair)


@pytest.mark.parametrize("a,b,k,expected", [
    ("ca", "abc", 1, 2),                 # exceeds k: k + 1, not the OSA 3
    ("ca", "abc", 2, 2),                 # transpose + insert inside the pair
    ("abc", "ca", 2, 2),
    ("kitten", "sitting", 2, 3),
    ("kitten", "sitting", 3, 3),
    ("abcd", "badc", 1, 2),              # two transpositions
    ("abcd", "badc", 2, 2),
    ("abcdef", "ab", 2, 3),              # length gap alone exceeds k
    ("abcdef", "abcd", 2, 2),
    ("abc", "xyz", 0, 1),
    ("abc", "abc", 0, 0),
    ("", "ab", 1, 2),
    ("", "ab", 2, 2),
    # long shared prefix: the band scan starts after it
    ("international" * 3 + "xyz", "international" * 3 + "zyx", 2, 2),
    ("international" * 3 + "xyzw", "international" * 3 + "wzyx", 2, 3),
    # every row exceeds k well before the end: the scan stops early
    ("qwertyuiop" + "a" * 20, "poiuytrewq" + "a" * 20, 2, 3),
    ("qwertyuiop" * 3, "asdfghjklz" * 3, 2, 3),
])
def test_bounded_known_distances(a, b, k, expected):
    assert damerau_levenshtein(a, b, k) == expected
    assert damerau_levenshtein(b, a, k) == expected
    assert min(ref_damerau_levenshtein(a, b), k + 1) == expected
