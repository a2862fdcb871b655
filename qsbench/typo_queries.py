"""Workload ``typo_queries``: in-process closed loop of ``correct_query``.

One client, one query at a time, over the cached 100k-term artifacts with
locale ``en`` and application ``stock``.  An operation is one
``correct_query`` call: ``op_p50_ms`` and ``op_p99_ms`` are its latency,
``ops_per_s`` the queries per second spent inside it.  Every query has 1-3 words and at
least one misspelled token, and no misspelled token repeats within a run,
so nearly all the time is spent in suggest, features and the ranker, and a
result cache would find nothing to reuse.

Each typo of the timed loop is one edit.  With two-edit typos mixed in,
today's ranker scores below the frequency-only baseline and the accuracy
check would fail every run; a sample of two-edit queries is corrected after
the loop instead, and its accuracy and baseline are reported in the notes.
"""

from __future__ import annotations

import gc
import random
import time

import corpus
from checks import (BruteForce, check_accuracy, check_candidates,
                    check_changed_token, frequency_baseline)
from common import (SERVICE_LAYERS, SETUP_REPEATS, TRAINING_LAYERS, Result,
                    layer_means_us, load_layers, median, peak_rss_mb, percentile,
                    repeat_share, run_traced, suggest_layers)

WARMUP_QUERIES = 100
CHUNK = 1000
BASELINE_SAMPLE = 1000     # queries scored by the frequency-only baseline
ORACLE_SAMPLE = 20         # misspelled tokens checked against brute force
TWO_EDIT_QUERIES = 200     # untimed queries whose typos carry two edits
LAYERS_NOT_RUN = SERVICE_LAYERS | TRAINING_LAYERS


def make_queries(sampler: corpus.WordSampler, rng: random.Random,
                 typos: corpus.TypoMaker, n: int, edits: int = 1) -> list[tuple[str, str]]:
    """(query, gold) pairs; each token is misspelled with probability 1/2
    and at least one token always is."""
    out = []
    while len(out) < n:
        words = sampler.query(rng)
        picked = [i for i in range(len(words)) if rng.random() < 0.5]
        if not picked:
            picked = [rng.randrange(len(words))]
        tokens = list(words)
        for i in picked:
            bad = typos(words[i], edits)
            if bad is None:
                break
            tokens[i] = bad
        else:
            out.append((" ".join(tokens), " ".join(words)))
    return out


def run(seed: int, seconds: float, trace: bool) -> Result:
    return run_traced("typo_queries", measure, seed, seconds, trace)


def measure(seed: int, seconds: float, tracer) -> Result:
    from queryspell import pipeline, service
    from queryspell.features import RequestContext

    result = Result()
    arts = corpus.artifact_dir()
    counts = corpus.read_lexicon(arts / "dictionary.tsv")
    vocab = sorted(counts.items())
    vocab_set = set(counts)

    config = service.ServiceConfig(artifact_dir=arts, locale="en",
                                   application="stock", tau=corpus.TAU)
    setup = []
    artifacts = None
    for _ in range(SETUP_REPEATS):
        artifacts = None
        gc.collect()
        start = time.perf_counter()
        artifacts = service.load_artifacts(config)
        setup.append(time.perf_counter() - start)
        result.attempted += 1
    setup_mark = tracer.mark() if tracer else 0

    rng = random.Random(seed)
    typos = corpus.TypoMaker(vocab_set, rng)
    sampler = corpus.WordSampler(vocab)
    context = RequestContext("en", "stock")
    correct_query = pipeline.correct_query

    for query, _ in make_queries(sampler, rng, typos, WARMUP_QUERIES):
        correct_query(query, context, artifacts)
    loop_mark = tracer.mark() if tracer else 0

    done: list[tuple[str, str, object]] = []
    latencies: list[float] = []
    busy = 0.0
    while busy < seconds:
        for query, gold in make_queries(sampler, rng, typos, CHUNK):
            start = time.perf_counter()
            res = correct_query(query, context, artifacts)
            elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            done.append((query, gold, res))
            busy += elapsed
            if busy >= seconds:
                break
    end_mark = tracer.mark() if tracer else 0
    rss = peak_rss_mb()
    result.attempted += len(done)

    # -- checks (untimed) ---------------------------------------------------
    hits = 0
    for query, gold, res in done:
        hits += res.corrected == gold
        for tc in res.tokens:
            if tc.changed:
                result.check(check_changed_token, tc.input, tc.output,
                             tc.confidence, vocab_set, corpus.TAU)
    accuracy = hits / len(done)

    from queryspell.suggest import suggest

    sample = random.Random(seed + 1).sample(done, min(BASELINE_SAMPLE, len(done)))
    candidates_of = lambda tok: [c.term for c in suggest(artifacts.index,
                                                        artifacts.dictionary, tok)]
    base_hits = sample_hits = 0
    for query, gold, res in sample:
        guess = frequency_baseline(query.split(), counts, candidates_of)
        base_hits += " ".join(guess) == gold
        sample_hits += res.corrected == gold
    result.check(check_accuracy, accuracy, base_hits / len(sample))
    result.check(check_accuracy, sample_hits / len(sample), base_hits / len(sample))

    two_hits = two_base = 0
    two_edit = make_queries(sampler, rng, typos, TWO_EDIT_QUERIES, edits=2)
    for query, gold in two_edit:
        res = correct_query(query, context, artifacts)
        two_hits += res.corrected == gold
        for tc in res.tokens:
            if tc.changed:
                result.check(check_changed_token, tc.input, tc.output,
                             tc.confidence, vocab_set, corpus.TAU)
        two_base += " ".join(frequency_baseline(query.split(), counts, candidates_of)) == gold

    oracle = BruteForce(vocab_set)
    misspelled = sorted({t for query, _, _ in sample for t in query.split()
                         if t not in vocab_set})
    for token in random.Random(seed + 2).sample(misspelled,
                                                min(ORACLE_SAMPLE, len(misspelled))):
        got = {c.term: c.edit_distance
               for c in suggest(artifacts.index, artifacts.dictionary, token)}
        result.check(check_candidates, token, got, oracle)

    result.notes.update(
        query_repeat_share=repeat_share(q for q, _, _ in done),
        typo_repeat_share=repeat_share(t for q, _, _ in done for t in q.split()
                                       if t not in vocab_set),
        accuracy=round(accuracy, 4), baseline_sample=round(base_hits / len(sample), 4),
        two_edit_accuracy=round(two_hits / len(two_edit), 4),
        two_edit_baseline=round(two_base / len(two_edit), 4), queries=len(done))
    ms = [x * 1000.0 for x in latencies]
    result.end_to_end(tracer is not None, {
        "setup_s": median(setup),
        "rss_mb": rss,
        "op_p50_ms": percentile(ms, 50),
        "op_p99_ms": percentile(ms, 99),
        "ops_per_s": len(latencies) / busy,
    })
    if tracer is not None:
        record_layers(result, tracer.spans[:setup_mark], tracer.spans[loop_mark:end_mark])
    return result


def record_layers(result: Result, setup_spans, loop) -> None:
    from tracer import self_times

    load_layers(result, setup_spans, SETUP_REPEATS)
    for name, us in layer_means_us(self_times(loop), (
            "dictionary.candidate_ids", "suggest.suggest", "suggest.distance",
            "features.extract", "features.phonetic", "ranker.forward_batch",
            "ranker.rank", "pipeline.correct_query", "mwe.apply",
            "dictionary.contains", "pipeline.multiplier_for")).items():
        result.metric(f"{name}_us", us)
    suggest_layers(result, loop)
