import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryspell import (ERROR_WEIGHTS, ErrorType, LoadError, apply_error,
                        damerau_levenshtein, inject_errors)
from queryspell.datagen import (KEYBOARD_LAYOUTS, load_dataset,
                                resolve_error_type, write_dataset)

wordish = st.text(alphabet="abcdefghilmnorstué", min_size=2, max_size=10)


class TestApplyError:
    def test_accent_fold_example(self):
        outputs = {apply_error("wörter", ErrorType.ACCENT_FOLD, random.Random(s))
                   for s in range(30)}
        assert "worter" in outputs
        assert outputs <= {"worter", "wôrter"}

    def test_double_collapse_example(self):
        outputs = {apply_error("happiness", ErrorType.DOUBLE_ADD_REMOVE,
                               random.Random(s)) for s in range(60)}
        assert "hapiness" in outputs

    def test_letter_order_example(self):
        outputs = {apply_error("check", ErrorType.LETTER_ORDER, random.Random(s))
                   for s in range(60)}
        assert "chekc" in outputs
        assert all(sorted(o) == sorted("check") for o in outputs)

    def test_letter_change_uses_keyboard_neighbors(self):
        rng = random.Random(4)
        for _ in range(50):
            out = apply_error("park", ErrorType.LETTER_CHANGE, rng)
            (i,) = [k for k, (a, b) in enumerate(zip("park", out)) if a != b]
            assert out[i] in KEYBOARD_LAYOUTS["en"]["park"[i]]

    def test_accent_free_token_falls_back(self):
        rng = random.Random(0)
        out = apply_error("fresh", ErrorType.ACCENT_FOLD, rng)
        assert sorted(out) == sorted("fresh")  # letter-order fallback

    def test_length_one_token_falls_back_to_insertion(self):
        rng = random.Random(0)
        for kind in ErrorType:
            out = apply_error("a", kind, rng)
            assert len(out) == 2

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            apply_error("", ErrorType.LETTER_ORDER, random.Random(0))

    @given(wordish, st.sampled_from(list(ErrorType)), st.integers(0, 2**20))
    @settings(max_examples=400)
    def test_always_changes_token(self, token, kind, seed):
        assert apply_error(token, kind, random.Random(seed)) != token

    @given(st.text(alphabet="abcdefgh", min_size=2, max_size=10),
           st.sampled_from([ErrorType.LETTER_ORDER, ErrorType.LETTER_CHANGE,
                            ErrorType.DOUBLE_ADD_REMOVE]),
           st.integers(0, 2**20))
    @settings(max_examples=300)
    def test_single_application_is_distance_one(self, token, kind, seed):
        resolved = resolve_error_type(token, kind)
        out = apply_error(token, resolved, random.Random(seed))
        if resolved is kind:
            assert damerau_levenshtein(token, out) == 1


class TestInjectErrors:
    def test_forced_minimum_one_error(self):
        eq = inject_errors("museum", random.Random(0), per_token_error_prob=1e-9)
        assert len(eq.applied) == 1
        assert eq.corrupted_tokens[0] != "museum"

    def test_every_selected_token_differs(self):
        rng = random.Random(3)
        eq = inject_errors("glacier national park and hike", rng, 0.9)
        for i, kind in eq.applied:
            assert eq.corrupted_tokens[i] != eq.original.split()[i]
            assert isinstance(kind, ErrorType)

    def test_untouched_tokens_survive(self):
        rng = random.Random(1)
        eq = inject_errors("medal icon", rng, 0.5)
        touched = {i for i, _ in eq.applied}
        for i, tok in enumerate(eq.original.split()):
            if i not in touched:
                assert eq.corrupted_tokens[i] == tok

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            inject_errors("   ", random.Random(0))

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            inject_errors("museum", random.Random(0), per_token_error_prob=0.0)

    def test_deterministic_given_seed(self):
        a = inject_errors("burgundy background", random.Random(42), 0.5)
        b = inject_errors("burgundy background", random.Random(42), 0.5)
        assert a == b

    def test_weighted_distribution_smoke(self):
        # full-scale distribution check lives in the acceptance suite
        rng = random.Random(9)
        counts = Counter()
        n = 30000
        for _ in range(n):
            eq = inject_errors("wörter", rng, 1.0)
            counts[eq.applied[0][1]] += 1
        total_weight = sum(ERROR_WEIGHTS.values())
        for kind, weight in ERROR_WEIGHTS.items():
            assert counts[kind] / n == pytest.approx(weight / total_weight, abs=0.02)


class TestCorpusIO:
    def test_comments_only_file_is_empty(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("# a\n# b\n", encoding="utf-8")
        assert load_dataset(path) == []

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("medl\tmedal\tLETTER_ADD_REMOVE\nnot-a-row\n", encoding="utf-8")
        with pytest.raises(LoadError) as err:
            load_dataset(path)
        assert err.value.line == 2

    def test_dataset_roundtrip(self, tmp_path):
        rng = random.Random(5)
        errored = [inject_errors(q, rng, 0.7)
                   for q in ("medal icon", "burgundy background", "museum")]
        out = tmp_path / "train.tsv"
        write_dataset(out, errored)
        rows = load_dataset(out)
        assert [(r[0], r[1]) for r in rows] == \
            [(e.corrupted, e.original) for e in errored]
        assert rows[0][2] == [t.value for _, t in errored[0].applied]

    def test_failed_write_leaves_old_file(self, tmp_path, monkeypatch):
        rng = random.Random(5)
        out = tmp_path / "train.tsv"
        write_dataset(out, [inject_errors("medal icon", rng, 0.7)])
        old = out.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_dataset(out, [inject_errors("museum", rng, 0.7)])
        assert out.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["train.tsv"]


def test_keyboard_adjacency_includes_digits_and_punctuation():
    qwerty = KEYBOARD_LAYOUTS["en"]
    assert "," in qwerty["m"]    # "medal" -> ",edal"
    assert "0" in qwerty["p"]    # "park" -> "0ark"
    assert "ö" in KEYBOARD_LAYOUTS["de"]["l"]
