import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryspell import LoadError, MweMap, apply_mwe, load_mwe_map


@pytest.fixture()
def compound_map():
    return MweMap({
        "creativecloud": "creative cloud",
        "photo shop express": "photoshop express",
        "photo shop": "photoshop",
    })


def test_compound_split(compound_map):
    assert apply_mwe("creativecloud", compound_map) == "creative cloud"


def test_decompounding(compound_map):
    assert apply_mwe("photo shop express", compound_map) == "photoshop express"


def test_no_match_is_identity(compound_map):
    assert apply_mwe("mountain sunrise", compound_map) == "mountain sunrise"


def test_longest_match_wins(compound_map):
    # the three-token key fires, not the embedded two-token one
    assert apply_mwe("photo shop express icons", compound_map) == \
        "photoshop express icons"
    assert apply_mwe("photo shop icons", compound_map) == "photoshop icons"


def test_single_pass_no_rematch():
    m = MweMap({"a b": "c", "c": "d"})
    # replacement "c" is itself a key but must not be rewritten again
    assert apply_mwe("a b", m) == "c"


def test_matching_is_case_insensitive(compound_map):
    assert apply_mwe("CreativeCloud", compound_map) == "creative cloud"


def test_unmatched_tokens_keep_original_form(compound_map):
    assert apply_mwe("Sunrise creativecloud", compound_map) == \
        "Sunrise creative cloud"


def test_none_map_is_identity():
    assert apply_mwe("anything at all", None) == "anything at all"


def test_key_equal_to_value_rejected():
    with pytest.raises(LoadError):
        MweMap({"same": "same"})


def test_load_from_tsv(tmp_path):
    path = tmp_path / "mwe.tsv"
    path.write_text("# rewrites\ncreativecloud\tcreative cloud\n", encoding="utf-8")
    m = load_mwe_map(path)
    assert apply_mwe("creativecloud", m) == "creative cloud"


def test_load_rejects_conflicting_duplicate(tmp_path):
    path = tmp_path / "mwe.tsv"
    path.write_text("a b\tc\na b\td\n", encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_mwe_map(path)
    assert err.value.line == 2


def test_load_rejects_identity_rule_with_line(tmp_path):
    path = tmp_path / "mwe.tsv"
    path.write_text("a b\tc\nPhoto Shop\tphoto  shop\n", encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_mwe_map(path)
    assert err.value.line == 2
    assert "mwe.tsv" in str(err.value)


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "mwe.tsv"
    path.write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(LoadError):
        load_mwe_map(path)


phrases = st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                   min_size=1, max_size=3).map(" ".join)


@given(st.dictionaries(phrases, st.just("zz"), max_size=6),
       st.lists(st.text(alphabet="abcd", min_size=1, max_size=4),
                max_size=8).map(" ".join))
@settings(max_examples=150)
def test_single_pass_terminates_and_is_idempotent(entries, query):
    entries = {k: v for k, v in entries.items() if k != v}
    m = MweMap(entries)
    once = apply_mwe(query, m)
    # replacement token "zz" never appears in any key, so a second pass
    # must be a no-op
    assert apply_mwe(once, m) == once
    assert len(once) <= len(query) + sum(len(v) + 1 for v in entries.values())
