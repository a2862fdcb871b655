"""Workload ``train_offline``: the operator path through ``cli_main``.

Set-up is everything before the program can correct a query: over a fixed
20k-term vocabulary, ``build-index``, ``gen-data`` for seeded training and
held-out queries, and ``train``; it runs twice and ``setup_s`` is the
median.  Then rounds of ``eval --artifacts``, each over the next chunk of
2000 held-out queries, until the run's seconds are spent, so that the
latencies come from distinct queries.  An operation is one held-out query
corrected by ``eval``: ``op_p50_ms`` and ``op_p99_ms`` are the latency of
its ``correct_query`` call (timed by a span around that one function in an
untraced run), ``ops_per_s`` the held-out queries per second of ``eval``
wall time, artifact load included.  It is the only workload that runs
``datagen``, ``build_training_set`` and ``train``; suggest and features run
here in bulk, and each command rebuilds the delete index.
"""

from __future__ import annotations

import json
import random
import os
import re
import shutil
import time

import corpus
from checks import (BruteForce, check_accuracy, check_candidates,
                    check_changed_token, expect, frequency_baseline, normalize)
from common import (SERVICE_LAYERS, SETUP_REPEATS, Result, layer_means_us, load_layers,
                    median, peak_rss_mb, percentile, repeat_share, run_traced,
                    suggest_layers)
from tracer import Tracer

VOCAB_TERMS = 20_000
VOCAB_SEED = 42            # fixed, so runs differ only in their queries
TRAIN_QUERIES = 2500
HELDOUT_QUERIES = 2000     # per eval round; each round takes the next chunk
HELDOUT_CHUNKS = 4
EPOCHS = 4
ORACLE_SAMPLE = 20
LAYERS_NOT_RUN = SERVICE_LAYERS


def run(seed: int, seconds: float, trace: bool) -> Result:
    return run_traced("train_offline", measure, seed, seconds, trace)


def measure(seed: int, seconds: float, tracer) -> Result:
    result = Result()
    rng = random.Random(seed)
    work = corpus.WORK / "runs" / f"train_offline-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    vocab = corpus.make_vocabulary(VOCAB_TERMS, VOCAB_SEED)
    lexicon, stats = corpus.write_sources(vocab, VOCAB_SEED + 1, work / "src")
    sampler = corpus.WordSampler(vocab)
    train_q = work / "train-queries.txt"
    held_q = work / "heldout-queries.txt"
    train_q.write_text("".join(" ".join(sampler.query(rng)) + "\n"
                               for _ in range(TRAIN_QUERIES)), encoding="utf-8")
    held_q.write_text("".join(" ".join(sampler.query(rng)) + "\n"
                              for _ in range(HELDOUT_QUERIES * HELDOUT_CHUNKS)),
                      encoding="utf-8")
    arts = work / "artifacts"
    train_tsv = work / "train.tsv"
    held_tsv = work / "heldout.tsv"

    def command(argv) -> tuple[float, str]:
        start = time.perf_counter()
        code, out = corpus.cli(argv)
        elapsed = time.perf_counter() - start
        result.attempted += 1
        if code != 0:
            result.failed += 1
            result.errors.append(f"speller {argv[0]} exited {code}")
        return elapsed, out

    setup, train_s, models = [], [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(arts, ignore_errors=True)
        start = time.perf_counter()
        command(["build-index", "--lexicon", lexicon, "--stats", stats, "--out-dir", arts])
        command(["gen-data", "--in", train_q, "--out", train_tsv, "--seed", seed,
                 "--error-prob", 0.5])
        command(["gen-data", "--in", held_q, "--out", held_tsv, "--seed", seed + 1,
                 "--error-prob", 0.5])
        elapsed, out = command(["train", "--data", train_tsv, "--dict", arts,
                                "--out", arts / "model.json", "--seed", seed,
                                "--epochs", EPOCHS, "--batch-size", 256])
        setup.append(time.perf_counter() - start)
        train_s.append(elapsed)
        examples = int(re.search(r"trained on (\d+) examples", out).group(1))
        models.append((arts / "model.json").read_bytes())
    rows = [line.split("\t")[:2] for line in
            held_tsv.read_text(encoding="utf-8").splitlines()]
    chunks = [rows[k * HELDOUT_QUERIES:(k + 1) * HELDOUT_QUERIES]
              for k in range(HELDOUT_CHUNKS)]
    for k, chunk in enumerate(chunks):
        (work / f"eval-{k}.tsv").write_text(
            "".join(f"{bad}\t{gold}\n" for bad, gold in chunk), encoding="utf-8")

    # The spans of correct_query time each held-out query eval corrects.
    timer = tracer or Tracer({"pipeline.correct_query"}).install()
    setup_mark = timer.mark()
    reports = []
    rounds = 0
    busy = 0.0
    try:
        while busy < seconds:
            k = rounds % HELDOUT_CHUNKS
            elapsed, _ = command(["eval", "--data", work / f"eval-{k}.tsv", "--artifacts",
                                  arts, "--tau", corpus.TAU, "--json", work / "report.json"])
            reports.append((k, json.loads((work / "report.json").read_text(encoding="utf-8"))))
            busy += elapsed
            rounds += 1
    finally:
        if tracer is None:
            timer.uninstall()
    eval_mark = timer.mark()
    rss = peak_rss_mb()
    ms = [(end - start) / 1e6 for _, _, name, start, end, _ in timer.spans[setup_mark:]
          if name == "pipeline.correct_query"]

    result.check(expect, len(set(models)) == 1,
                 "train wrote different models from the same data and seed")
    check_outputs(result, seed, vocab, arts, train_q, train_tsv, chunks[0],
                  [r for k, r in reports if k == 0])
    result.check(expect, all(r == reports[k][1] for k, r in reports),
                 "eval reports differ between rounds of the same inputs")
    terms = {normalize(w) for w, _ in vocab}
    bad_tokens = [normalize(t) for bad, _ in rows for t in bad.split()]
    result.notes.update(
        query_repeat_share=round(repeat_share(
            train_q.read_text(encoding="utf-8").splitlines()), 4),
        typo_repeat_share=round(repeat_share(
            t for t in bad_tokens if t not in terms), 4),
        rounds=rounds, examples=examples, accuracy=reports[0][1]["accuracy"],
        eval_queries=len(ms), train_examples_per_s=round(examples / median(train_s), 1))
    result.end_to_end(tracer is not None, {
        "setup_s": median(setup),
        "rss_mb": rss,
        "op_p50_ms": percentile(ms, 50),
        "op_p99_ms": percentile(ms, 99),
        "ops_per_s": rounds * HELDOUT_QUERIES / busy,
    })
    if tracer is not None:
        record_layers(result, tracer.spans[:setup_mark], tracer.spans[setup_mark:eval_mark],
                      rounds)
    shutil.rmtree(work, ignore_errors=True)
    return result


def record_layers(result: Result, setup_spans, eval_spans, rounds: int) -> None:
    from tracer import self_times, sizes

    load_layers(result, setup_spans, SETUP_REPEATS)
    # Index builds along one build-index, train, eval path.
    builds = (len(sizes(setup_spans, "dictionary.build_delete_index")) / SETUP_REPEATS
              + len(sizes(eval_spans, "dictionary.build_delete_index")) / rounds)
    result.metric("dictionary.index_builds", builds)
    spans = setup_spans + eval_spans
    self_ns = self_times(spans)
    for name, us in layer_means_us(self_ns, (
            "datagen.inject_errors", "dictionary.candidate_ids", "suggest.suggest",
            "suggest.distance", "features.extract", "features.phonetic",
            "ranker.forward_batch", "ranker.rank", "pipeline.correct_query",
            "mwe.apply", "dictionary.contains", "pipeline.multiplier_for")).items():
        result.metric(f"{name}_us", us)
    for name in ("ranker.build_training_set", "ranker.train", "ranker.load_model",
                 "service.load_artifacts"):
        if self_ns.get(name):
            result.metric(f"{name}_s", median(self_ns[name]) / 1e9)
    suggest_layers(result, spans)


def check_outputs(result: Result, seed, vocab, arts, train_q, train_tsv, heldout,
                  reports) -> None:
    """Artifacts, generated data and corrections, checked apart from the
    program (after the timed rounds, so none of this is measured)."""
    from queryspell import pipeline, service
    from queryspell.features import RequestContext
    from queryspell.suggest import suggest

    counts = {normalize(w): c for w, c in vocab}
    written = corpus.read_lexicon(arts / "dictionary.tsv")
    result.check(expect, written == counts,
                 "build-index wrote a dictionary that differs from its lexicon")
    manifest = json.loads((arts / "manifest.json").read_text(encoding="utf-8"))
    result.check(expect, manifest.get("terms") == len(counts),
                 f"manifest counts {manifest.get('terms')} terms, not {len(counts)}")
    queries = train_q.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in train_tsv.read_text(encoding="utf-8").splitlines()]
    result.check(expect, len(rows) == len(queries) and all(
        r[1] == q and r[0] != q for r, q in zip(rows, queries)),
        "gen-data rows do not pair each query with a corrupted copy")

    config = service.ServiceConfig(artifact_dir=arts, tau=corpus.TAU)
    artifacts = service.load_artifacts(config)
    context = RequestContext("en", "stock")
    hits = base_hits = 0
    candidates_of = lambda tok: [c.term for c in suggest(artifacts.index,
                                                        artifacts.dictionary, tok)]
    for bad, gold in heldout:
        res = pipeline.correct_query(bad, context, artifacts)
        hits += normalize(res.corrected) == normalize(gold)
        for tc in res.tokens:
            if tc.changed:
                result.check(check_changed_token, tc.input, tc.output, tc.confidence,
                             counts, corpus.TAU)
        guess = frequency_baseline(bad.split(), counts, candidates_of)
        base_hits += normalize(" ".join(guess)) == normalize(gold)
    accuracy = hits / len(heldout)
    result.check(expect, abs(accuracy - reports[-1]["accuracy"]) < 1e-12,
                 f"eval reported accuracy {reports[-1]['accuracy']}, "
                 f"the same corrections score {accuracy}")
    result.check(check_accuracy, accuracy, base_hits / len(heldout))
    result.notes["baseline"] = round(base_hits / len(heldout), 4)

    oracle = BruteForce(counts)
    misspelled = sorted({normalize(t) for bad, _ in heldout for t in bad.split()}
                        - set(counts))
    for token in random.Random(seed + 2).sample(misspelled,
                                                min(ORACLE_SAMPLE, len(misspelled))):
        got = {c.term: c.edit_distance
               for c in suggest(artifacts.index, artifacts.dictionary, token)}
        result.check(check_candidates, token, got, oracle)
