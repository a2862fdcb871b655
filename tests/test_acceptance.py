"""Acceptance suite: one test per release criterion, full-scale.

Each criterion prints a single PASS/FAIL line (run with -s to watch).  The
heavyweight learning run takes a couple of minutes; everything else is
seconds.
"""

import json
import random
import threading
import urllib.request
from collections import Counter

import numpy as np
import pytest

from queryspell import (ERROR_WEIGHTS, ArtifactSet, EvalRecord, FeatureSchema,
                        RequestContext, build_delete_index, build_training_set,
                        correct_query, evaluate, inject_errors,
                        load_model, save_model, suggest, train)
from queryspell.cli import cli_main
from queryspell.ranker import (Hyperparams, backward_batch, bce_loss,
                               forward_batch, forward_train, init_model)
from queryspell.service import ServiceConfig, SpellerServer, SpellerService

from oracles import edit_distances_by_composition
from synthetic_corpus import build_dictionary, make_queries, make_vocabulary

pytestmark = pytest.mark.acceptance


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# -- 1. suggester oracle equivalence -----------------------------------------

def _random_dictionaries(rng: random.Random):
    """50 dictionaries (<= 5k terms): many small over tiny alphabets to force
    collisions, a few large ones; term lengths straddle the index prefix."""
    plans = [(rng.randint(100, 400), rng.randint(4, 6)) for _ in range(35)]
    plans += [(rng.randint(700, 1200), rng.randint(5, 8)) for _ in range(10)]
    plans += [(rng.randint(3000, 5000), rng.randint(6, 10)) for _ in range(5)]
    for size, sigma in plans:
        alphabet = "abcdefghij"[:sigma]
        terms = set()
        while len(terms) < size:
            terms.add("".join(rng.choice(alphabet)
                              for _ in range(rng.randint(1, 9))))
        yield alphabet, terms


def _probe_tokens(rng, alphabet, terms, count=200):
    """Half random strings, half mutated dictionary terms (denser hits)."""
    pool = sorted(terms)
    tokens = []
    for i in range(count):
        if i % 2:
            token = "".join(rng.choice(alphabet)
                            for _ in range(rng.randint(1, 9)))
        else:
            token = rng.choice(pool)
            for _ in range(rng.randint(0, 2)):
                edits = sorted(edit_distances_by_composition(token, alphabet, 1))
                token = rng.choice(edits) if edits else token
            token = token or rng.choice(pool)
        tokens.append(token)
    return tokens


def test_criterion_1_suggester_oracle_equivalence():
    from queryspell import FrequencyDictionary

    rng = random.Random(20240517)
    mismatches = 0
    probes = 0
    for alphabet, terms in _random_dictionaries(rng):
        d = FrequencyDictionary()
        for t in terms:
            d.add(t, word_count=1)
        d.freeze()
        index = build_delete_index(d, 2, 7)
        for token in _probe_tokens(rng, alphabet, terms):
            probes += 1
            got = {(c.term, c.edit_distance) for c in suggest(index, d, token)}
            reach = edit_distances_by_composition(
                token, alphabet + "".join(set(token)), 2)
            if token in terms:
                expected = set()
            else:
                ones = {(t, 1) for t in terms if reach.get(t) == 1}
                if len(ones) >= 3:
                    expected = ones
                else:
                    expected = ones | {(t, 2) for t in terms if reach.get(t) == 2}
            mismatches += got != expected
    _verdict(1, "suggester oracle equivalence", mismatches == 0,
             f"{probes} probes over 50 dictionaries, {mismatches} mismatches")


# -- shared large-scale corpus -------------------------------------------------

@pytest.fixture(scope="module")
def desk_corpus():
    """22k-term dictionary + 55k corrupted queries: the learning workload."""
    vocab = make_vocabulary(22000, seed=42)
    dictionary = build_dictionary(vocab, seed=7)
    index = build_delete_index(dictionary)
    queries = make_queries(vocab, 55000, seed=123)
    rng = random.Random(9)
    errored = [inject_errors(q, rng, 0.5) for q in queries]
    return dictionary, index, errored


# -- 2. end-to-end latency ----------------------------------------------------

def test_criterion_2_latency_100k():
    vocab = make_vocabulary(100000, seed=5)
    dictionary = build_dictionary(vocab, seed=6)
    index = build_delete_index(dictionary)
    schema = FeatureSchema()
    context = RequestContext("en", "stock")

    # small genuinely trained model so the scoring path is the real one
    rng = random.Random(31)
    sample_queries = make_queries(vocab, 1500, seed=32)
    rows = [(e.corrupted, e.original)
            for e in (inject_errors(q, rng, 0.6) for q in sample_queries)]
    X, labels, schema = build_training_set(rows, dictionary, index, context, schema)
    model = train(X, labels, schema, Hyperparams(epochs=3, batch_size=256, seed=2))
    artifacts = ArtifactSet(dictionary, index, model)

    qrng = random.Random(77)
    crng = random.Random(88)
    queries = []
    for i, q in enumerate(make_queries(vocab, 10000, seed=78,
                                       length_weights=(40, 40, 20))):
        queries.append(inject_errors(q, crng, 0.5).corrupted if i % 2 else q)
    qrng.shuffle(queries)

    for q in queries[:300]:  # warm caches before measuring
        correct_query(q, context, artifacts)
    lat = sorted(correct_query(q, context, artifacts).elapsed * 1000
                 for q in queries)
    n = len(lat)
    p50, p90, p99 = lat[n // 2], lat[int(n * 0.9)], lat[int(n * 0.99)]

    # mean suggest() time, measured on the hard case (misspelled tokens only)
    import time
    misspelled = [t for q in queries for t in q.split()
                  if not dictionary.contains(t)][:4000]
    start = time.perf_counter()
    for token in misspelled:
        suggest(index, dictionary, token)
    suggest_mean = (time.perf_counter() - start) / len(misspelled) * 1000

    detail = (f"{n} queries over {len(dictionary)} terms: p50={p50:.3f}ms "
              f"p90={p90:.3f}ms p99={p99:.3f}ms max={lat[-1]:.3f}ms "
              f"mean={sum(lat) / n:.3f}ms; suggest() mean on "
              f"{len(misspelled)} misspelled tokens={suggest_mean:.3f}ms")
    _verdict(2, "end-to-end latency",
             p50 < 1.0 and p99 < 10.0 and suggest_mean < 1.0, detail)


# -- 3. error-injection distribution -------------------------------------------

def test_criterion_3_error_distribution():
    tokens = ["wörter", "français", "café", "crème", "début", "pâte",
              "fenêtre", "straße", "gemüse", "médaille"]
    rng = random.Random(404)
    counts = Counter()
    n = 100_000
    for i in range(n):
        errored = inject_errors(tokens[i % len(tokens)], rng, 1.0)
        counts[errored.applied[0][1]] += 1
    total_weight = sum(ERROR_WEIGHTS.values())
    worst = max(abs(counts[kind] / n - weight / total_weight)
                for kind, weight in ERROR_WEIGHTS.items())
    shares = {k.value: round(counts[k] / n, 4) for k in ERROR_WEIGHTS}
    _verdict(3, "error-injection distribution", worst <= 0.02,
             f"{n} injections, worst |share - target| = {worst:.4f}; {shares}")


# -- 4. gradient correctness ----------------------------------------------------

def test_criterion_4_gradient_check():
    schema = FeatureSchema(("en",), ("stock",))
    worst_overall = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = init_model(schema.dimension, schema,
                           np.random.default_rng(1000 + seed), 0.0, (8, 8, 8, 8))
        X = rng.normal(0.0, 1.0, size=(12, schema.dimension))
        y = rng.integers(0, 2, size=12).astype(np.float64)
        probs, cache = forward_train(model, X, None)
        grads = backward_batch(model, cache, probs, y)

        def loss_now():
            p, c = forward_train(model, X, None)
            return bce_loss(p, c["z_out"], y)

        h = 1e-5
        for kind, i, tensor in model.parameters():
            g = grads[kind][i].reshape(-1)
            flat = tensor.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                up = loss_now()
                flat[k] = keep - h
                down = loss_now()
                flat[k] = keep
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(g[k]), 1e-6)
                worst_overall = max(worst_overall, abs(numeric - g[k]) / denom)
    _verdict(4, "gradient correctness", worst_overall < 1e-4,
             f"20 models, worst relative error {worst_overall:.2e}")


# -- 5. determinism of the artifact-producing commands ---------------------------

def test_criterion_5_command_determinism(tmp_path):
    vocab = make_vocabulary(4000, seed=77)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("".join(f"{w}\t{c}\n" for w, c in vocab), encoding="utf-8")
    queries = tmp_path / "queries.txt"
    queries.write_text("".join(q + "\n" for q in make_queries(vocab, 2000, 3)),
                       encoding="utf-8")

    blobs = {}
    for run in ("one", "two"):
        base = tmp_path / run
        arts = base / "arts"
        assert cli_main(["build-index", "--lexicon", str(lexicon),
                         "--out-dir", str(arts)]) == 0
        data = base / "train.tsv"
        assert cli_main(["gen-data", "--in", str(queries), "--out", str(data),
                         "--seed", "11", "--error-prob", "0.5"]) == 0
        model = base / "model.json"
        assert cli_main(["train", "--data", str(data), "--dict", str(arts),
                         "--out", str(model), "--seed", "4",
                         "--epochs", "3"]) == 0
        blobs[run] = {
            "build-index": (arts / "dictionary.tsv").read_bytes()
            + (arts / "stats.tsv").read_bytes()
            + (arts / "manifest.json").read_bytes(),
            "gen-data": data.read_bytes(),
            "train": model.read_bytes(),
        }
    stable = {name for name in blobs["one"]
              if blobs["one"][name] == blobs["two"][name]}
    ok = stable == {"build-index", "gen-data", "train"}
    _verdict(5, "command determinism", ok,
             f"byte-identical outputs across two runs: {sorted(stable)}")


# -- 6. evaluation fixture ---------------------------------------------------------

def test_criterion_6_eval_fixture():
    records = [
        EvalRecord("muzeem", "museum", "museum"),
        EvalRecord("crative cloud", "creative cloud", "creative cloud"),
        EvalRecord("photoshp", "photoshop", "photoshop"),
        EvalRecord("glaicer park", "glacier park", "glacier park"),
        EvalRecord(",edal icon", "medal icon", "medal icon"),
        EvalRecord("frsh flowers", "fresh flowers", "frsh flowers"),
        EvalRecord("museum", "museum", "museum"),
        EvalRecord("creative cloud", "creative cloud", "creative cloud"),
        EvalRecord("icon", "icon", "icon"),
        EvalRecord("express", "express", "espresso"),
    ]
    report = evaluate(records)
    ok = (report.accuracy == 0.8 and report.precision == 5 / 6
          and report.recall == 5 / 6)
    _verdict(6, "evaluation fixture", ok,
             f"accuracy={report.accuracy} precision={report.precision} "
             f"recall={report.recall}")


# -- 7. end-to-end learning sanity ---------------------------------------------------

def test_criterion_7_learning_beats_baseline(desk_corpus):
    dictionary, index, errored = desk_corpus
    schema = FeatureSchema()
    context = RequestContext("en", "stock")
    train_rows = [(e.corrupted, e.original) for e in errored[:50000]]
    heldout = errored[50000:]

    X, labels, schema = build_training_set(train_rows, dictionary, index, context, schema)
    model = train(X, labels, schema, Hyperparams(epochs=20, batch_size=256, seed=0))
    artifacts = ArtifactSet(dictionary, index, model)

    pipeline_hits = 0
    baseline_hits = 0
    for errq in heldout:
        result = correct_query(errq.corrupted, context, artifacts)
        pipeline_hits += result.corrected == errq.original
        outputs = []
        for token in errq.corrupted_tokens:
            if dictionary.contains(token):
                outputs.append(token)
                continue
            candidates = suggest(index, dictionary, token)
            if not candidates:
                outputs.append(token)
            else:  # no-ranker baseline: highest word count wins, always accepted
                best = max(candidates, key=lambda c: (c.entry.word_count, c.term))
                outputs.append(best.term)
        baseline_hits += " ".join(outputs) == errq.original
    n = len(heldout)
    pipeline_acc = pipeline_hits / n
    baseline_acc = baseline_hits / n
    ok = pipeline_acc >= 0.70 and pipeline_acc > baseline_acc
    _verdict(7, "learning sanity", ok,
             f"{len(labels)} training examples; held-out {n}: "
             f"pipeline={pipeline_acc:.4f} (>=0.70), "
             f"baseline={baseline_acc:.4f} (must be beaten)")


# -- 8. multi-word expressions through the service -------------------------------------

def test_criterion_8_mwe_through_service(artifact_dir):
    config = ServiceConfig(artifact_dir=artifact_dir, listen="127.0.0.1:0")
    server = SpellerServer(SpellerService(config))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        results = {}
        for query in ("creativecloud", "photo shop express"):
            req = urllib.request.Request(
                base + "/v1/correct",
                data=json.dumps({"query": query}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=10) as resp:
                results[query] = json.loads(resp.read())["corrected"]
    finally:
        server.shutdown()
        server.server_close()
    ok = (results["creativecloud"] == "creative cloud"
          and results["photo shop express"] == "photoshop express")
    _verdict(8, "MWE via service", ok, f"{results}")


# -- 9. model round trip ------------------------------------------------------------------

def test_criterion_9_model_round_trip(tmp_path, toy_model):
    path = tmp_path / "model.json"
    save_model(toy_model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(12)
    X = rng.random((100, toy_model.feature_schema.dimension))
    same = (forward_batch(toy_model, X) == forward_batch(loaded, X)).all()
    spot = forward_batch(loaded, X[:1])[0]
    _verdict(9, "model round trip", bool(same and 0 < spot < 1),
             "100 random vectors score bit-identically after save/load")
