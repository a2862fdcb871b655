"""The benchmark's own tests: tiny-size smoke runs of every workload, and
one test per output check showing that it rejects a wrong output.

    python3 -m pytest qsbench/tests -q
"""

import json
import random
from pathlib import Path

import pytest

import corpus
import service_refresh
import train_offline
import typo_queries
from checks import (BruteForce, CheckFailure, check_changed_token,
                    check_reported_candidates, check_term_count, terms_added_by_refresh)
from common import END_TO_END, PER_LAYER, Result
from oracles import brute_force_suggest

MODULES = {"typo_queries": typo_queries, "service_refresh": service_refresh,
           "train_offline": train_offline}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Shrink every workload and keep its files in a temporary directory."""
    patch = pytest.MonkeyPatch()
    patch.setattr(corpus, "WORK", tmp_path_factory.mktemp("work"))
    patch.setattr(corpus, "ARTIFACT_TERMS", 3000)
    patch.setattr(corpus, "MODEL_TRAIN_QUERIES", 1500)
    patch.setattr(train_offline, "VOCAB_TERMS", 3000)
    patch.setattr(train_offline, "TRAIN_QUERIES", 600)
    patch.setattr(train_offline, "HELDOUT_QUERIES", 200)
    patch.setattr(service_refresh, "REFRESH_INTERVAL", 3.0)
    patch.setattr(service_refresh, "DRAIN_S", 1.0)
    yield
    patch.undo()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(MODULES))
def test_smoke(tiny, workload, trace):
    result = MODULES[workload].run(7, 1.0, trace)
    assert result.correct, result.errors
    # One negative Content-Length probe per round of the service stream.
    expected_failed = result.notes["rounds"] if workload == "service_refresh" else 0
    assert result.failed == expected_failed
    assert result.attempted > result.failed
    not_run = MODULES[workload].LAYERS_NOT_RUN if trace else set()
    assert not set(result.metrics) & not_run
    result.layers_not_run(not_run)
    assert result.missing(trace) == []
    assert all(m["value"] > 0 for k, m in result.metrics.items() if k not in not_run), \
        {k: m for k, m in result.metrics.items() if not m["value"] > 0}


def test_metrics_match_manifest():
    manifest = json.loads((Path(corpus.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER
    assert {w["name"] for w in manifest["workloads"]} == set(MODULES)


def test_same_seed_same_inputs():
    vocab = corpus.make_vocabulary(2000, 3)
    vocab_set = {w for w, _ in vocab}
    mixes = []
    for _ in range(2):
        rng = random.Random(5)
        mwe = service_refresh.mwe_rules(vocab, vocab_set, rng)
        mix = service_refresh.RequestMix(vocab, vocab_set, rng, mwe)
        mixes.append((mwe, service_refresh.refresh_log(vocab, vocab_set, rng),
                      mix.round(0) + mix.round(1)))
    assert mixes[0] == mixes[1]


def test_rejects_correction_outside_dictionary():
    terms = {"museum", "medal"}
    check_changed_token("muzeum", "museum", 0.9, terms, 0.5)
    with pytest.raises(CheckFailure, match="not a dictionary term"):
        check_changed_token("muzeum", "muzeam", 0.9, terms, 0.5)


def test_rejects_correction_at_distance_three():
    terms = {"abcdef"}
    check_changed_token("abcdxy", "abcdef", 0.9, terms, 0.5)
    with pytest.raises(CheckFailure, match="distance 3"):
        check_changed_token("abcxyz", "abcdef", 0.9, terms, 0.5)


def test_rejects_confidence_below_tau():
    with pytest.raises(CheckFailure, match="below tau"):
        check_changed_token("muzeum", "museum", 0.49, {"museum"}, 0.5)


def test_rejects_reported_candidate_not_from_brute_force():
    oracle = BruteForce({"museum", "musium", "medal"})
    want = oracle.suggest("muzeum")
    assert want == {"museum": 1, "musium": 2}
    check_reported_candidates("muzeum", {"museum": 1}, want, {"museum"})
    with pytest.raises(CheckFailure, match="does not give"):
        check_reported_candidates("muzeum", {"museum": 2}, want, {"museum"})
    with pytest.raises(CheckFailure, match="does not give"):
        check_reported_candidates("muzeum", {"medal": 3}, want, {"museum"})
    with pytest.raises(CheckFailure, match="no candidates"):
        check_reported_candidates("muzeum", {}, want, {"museum"})


def test_rejects_wrong_term_count_after_refresh():
    base = {"museum", "icon"}
    rows = [("museum newterm", 60), ("newterm", 50), ("rare", 99), ("Museum", 5)]
    added = terms_added_by_refresh(base, rows, 100)
    assert added == {"newterm"}  # 60 + 50; "rare" stays below the threshold
    expected = len(base) + len(added)
    check_term_count(3, expected)
    with pytest.raises(CheckFailure, match="expected 3"):
        check_term_count(4, expected)


def test_failed_check_marks_run_incorrect():
    result = Result()
    result.check(check_term_count, 2, 3)
    assert not result.correct and result.line()["correct"] is False


def test_brute_force_filter_drops_only_far_terms():
    rng = random.Random(1)
    alphabet = "abcde"
    terms = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
             for _ in range(400)}
    oracle = BruteForce(terms)
    for _ in range(200):
        token = "".join(rng.choice(alphabet + "x") for _ in range(rng.randint(1, 9)))
        assert oracle.suggest(token) == brute_force_suggest(terms, token)
