"""Workload ``service_refresh``: ``speller serve`` under an open loop while
``SpellerService.refresh`` folds a query log in.

The server runs as a subprocess (``serve.py``) over a copy of the cached
100k-term artifacts plus seeded ``mwe.tsv`` and ``boost.tsv``.  Two sender
threads send requests at fixed due times, one connection each; latency
runs from when a request was due, so a stall also counts against the
requests queued behind it.  Queries are drawn by a Zipf law from a pool,
so they repeat; about one in twenty carries a typo, locales and
applications are mixed, and a small share is invalid and must get a 400.

The server's own periodic refresh starts REFRESH_INTERVAL seconds after
start-up.  The stream is sent in whole rounds (ROUND_REQUESTS requests and
a health poll) until it has run for ``--seconds``, a poll has seen the
refreshed snapshot and DRAIN_S more seconds have passed, so the whole first
refresh runs beside the reads and any backlog it leaves is served before
the stream ends.

An operation is one timed request: ``op_p50_ms`` and ``op_p99_ms`` are its
latency from when it was due (the p99 falls in the refresh), ``ops_per_s``
the requests answered per second from the start of the stream to the last
answer.  The refresh's own wall time is the per-layer ``service.refresh_s``.

A request with a negative Content-Length makes the server block in
``rfile.read(-1)`` until the client closes.  After the stream, one such
probe per round goes on its own connection with a short deadline and
counts as failed when no 400 arrives in time, so failures are the same
share of the operations in every run.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus
from checks import (BruteForce, check_changed_token, check_reported_candidates,
                    check_term_count, expect, normalize, terms_added_by_refresh)
from common import (SETUP_REPEATS, TRAINING_LAYERS, Result, mean, median, percentile,
                    repeat_share)

HERE = Path(__file__).resolve().parent
# Requests per second: half the capacity measured while a refresh runs
# (capacity.py).  Two senders sending back to back got 45-48 answers/s
# during the first refresh of a 100k-term server, and 1020-1330/s before
# it, on a 2-vCPU Xeon; above that rate a refresh leaves a backlog that
# grows for as long as the rebuild runs.
RATE = 24.0
SENDERS = 2                 # sender threads; never more than the machine's cores
# The first refresh starts this long after start-up, the next this long
# after the first ends: so exactly one refresh overlaps the stream, and
# most requests fall outside it (op_p50_ms is ordinary serving, and
# op_p99_ms the refresh).
REFRESH_INTERVAL = 20.0
DRAIN_S = 5.0               # the stream runs on this long after the swap is seen
MIN_NEW_TERM_COUNT = 100
ROUND_REQUESTS = 24
PROBE_DEADLINE = 0.1
REQUEST_TIMEOUT = 60.0
READY_TIMEOUT = 60.0
MAX_EXTRA_S = 90.0          # the longest the stream runs past --seconds
ORACLE_SAMPLE = 20          # misspelled tokens checked against brute force
POOL_QUERIES = 3000
LAYERS_NOT_RUN = TRAINING_LAYERS
POOL_TYPOS = 300
ZIPF_S = 1.0
LOCALES = (("en", 6), ("fr", 2), ("de", 2))
APPLICATIONS = (("stock", 5), ("express", 3), ("cchome", 2))
INVALID = (
    b"[1, 2]",
    b'{"locale": "en"}',
    b'{"query": "   "}',
    json.dumps({"query": "a" * 513}).encode(),
    b'{"query": "museum", "locale": "xx"}',
    b'{"query": "museum", "application": "nope"}',
    b'{"query": ',
)
NEGATIVE_LENGTH = (b"POST /v1/correct HTTP/1.1\r\nHost: qsbench\r\n"
                   b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n"
                   b'{"query": "probe"}')


# -- inputs ----------------------------------------------------------------

def mwe_rules(vocab, vocab_set, rng: random.Random, n: int = 20) -> dict[str, str]:
    """Compound splits ("ab" -> "a b") and joins ("w1 w2" -> "w"), with
    every key token outside the dictionary and every value a dictionary
    phrase, so a correct request never holds a key."""
    words = [w for w, _ in vocab[:20000] if w.isascii()]
    rules: dict[str, str] = {}
    while len(rules) < n:
        a, b = rng.sample(words, 2)
        if a + b not in vocab_set:
            rules[a + b] = f"{a} {b}"
        w = rng.choice([w for w in words if len(w) >= 8])
        k = rng.randrange(3, len(w) - 2)
        if w[:k] not in vocab_set and w[k:] not in vocab_set:
            rules[f"{w[:k]} {w[k:]}"] = w
    return rules


def boost_rules(vocab, rng: random.Random) -> list[tuple[str, str, float]]:
    """Exact-term and glob rules for each application."""
    words = [w for w, _ in vocab[:5000]]
    rules = []
    for app, _ in APPLICATIONS:
        for term in rng.sample(words, 3):
            rules.append((app, term, round(rng.uniform(1.1, 1.6), 2)))
        a, b = rng.sample("bcdfghjklmnprstvz", 2)
        rules.append((app, f"{a}a*", round(rng.uniform(1.05, 1.3), 2)))
        rules.append((app, f"*{b}o", round(rng.uniform(0.7, 0.95), 2)))
        rules.append((app, f"[{a}{b}]e*", round(rng.uniform(1.05, 1.2), 2)))
    return rules


def refresh_log(vocab, vocab_set, rng: random.Random) -> list[tuple[str, int]]:
    """Known-word queries plus 60 new terms: a third of them over the
    threshold in one row, a third over it only summed across rows, a third
    below it."""
    sampler = corpus.WordSampler(vocab)
    rows = [(" ".join(sampler.query(rng)), rng.randint(1, 400)) for _ in range(1500)]
    fresh = [w for w, _ in corpus.make_vocabulary(2000, 10_000 + rng.randrange(10**6))
             if w not in vocab_set and w.isascii()][:60]
    for i, term in enumerate(fresh):
        if i % 3 == 0:
            rows.append((term, MIN_NEW_TERM_COUNT + rng.randint(0, 500)))
        elif i % 3 == 1:
            half = MIN_NEW_TERM_COUNT // 2 + rng.randint(0, 20)
            rows.append((f"{term} {rng.choice(sampler.words)}", half))
            rows.append((term, half))
        else:
            rows.append((term, rng.randint(1, MIN_NEW_TERM_COUNT - 1)))
    rng.shuffle(rows)
    return rows


class RequestMix:
    """The timed stream, made round by round from the run's generator: each
    round is ROUND_REQUESTS requests at the fixed rate, then a health poll."""

    def __init__(self, vocab, vocab_set, rng: random.Random, mwe: dict[str, str]):
        self.rng = rng
        self.mwe = mwe
        self.keys = sorted(mwe)
        sampler = corpus.WordSampler(vocab)
        self.pool = [" ".join(sampler.query(rng)) for _ in range(POOL_QUERIES)]
        typos = corpus.TypoMaker(vocab_set, rng, unique=False)
        self.typo_pool = []
        while len(self.typo_pool) < POOL_TYPOS:
            words = rng.choice(self.pool).split()
            i = rng.randrange(len(words))
            bad = typos(words[i])
            if bad is not None:
                self.typo_pool.append(" ".join(words[:i] + [bad] + words[i + 1:]))
        self.zipf = list(itertools.accumulate(
            1.0 / r ** ZIPF_S for r in range(1, POOL_QUERIES + 1)))
        self.count = 0

    def request(self) -> dict:
        rng = self.rng
        u = rng.random()
        locale = rng.choices(*zip(*LOCALES))[0]
        app = rng.choices(*zip(*APPLICATIONS))[0]
        self.count += 1
        if u < 0.02:
            return {"kind": "invalid", "body": INVALID[self.count % len(INVALID)]}
        if u < 0.06:
            key = rng.choice(self.keys)
            left = rng.choice(self.pool).split()[:1] if rng.random() < 0.5 else []
            query, expect = " ".join(left + [key]), " ".join(left + [self.mwe[key]])
            app = "stock"   # the application whose map the server loaded
            kind = "mwe"
        elif u < 0.11:
            query = rng.choices(self.typo_pool, cum_weights=self.zipf[:POOL_TYPOS])[0]
            expect, kind = None, "typo"
        else:
            query = rng.choices(self.pool, cum_weights=self.zipf)[0]
            expect, kind = query, "correct"
        body = json.dumps({"query": query, "locale": locale, "application": app}).encode()
        return {"kind": kind, "body": body, "query": query, "expect": expect}

    def round(self, k: int) -> list[dict]:
        start = k * ROUND_REQUESTS
        ops = [dict(self.request(), due=(start + i) / RATE) for i in range(ROUND_REQUESTS)]
        ops.append({"kind": "health", "due": (start + ROUND_REQUESTS - 0.5) / RATE})
        return ops


# -- server process ----------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    def __init__(self, run_dir: Path, config: Path, trace: bool, tag: str):
        self.stats = run_dir / f"server-{tag}.json"
        self.spans = run_dir / f"server-{tag}.tsv"
        self.log = open(run_dir / f"server-{tag}.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), str(self.stats), str(self.spans),
             "1" if trace else "0", "--", "serve", "--config", str(config)],
            stdout=self.log, stderr=subprocess.STDOUT, cwd=str(corpus.ROOT))

    def wait_ready(self, port: int) -> float:
        """Seconds from launch to the first 200 from /v1/health."""
        deadline = self.started + READY_TIMEOUT
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("speller serve exited during start-up")
            try:
                status, _ = get_health(port, timeout=2.0)
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("speller serve did not become ready")

    def stop(self) -> dict:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        try:
            return json.loads(self.stats.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}


def get_health(port: int, timeout: float) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", "/v1/health")
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def post(port: int, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        conn.request("POST", "/v1/correct", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def negative_length_probe(port: int) -> bool:
    """True when the server answers a negative Content-Length with a 400
    before the deadline."""
    with socket.create_connection(("127.0.0.1", port), timeout=PROBE_DEADLINE) as sock:
        sock.sendall(NEGATIVE_LENGTH)
        try:
            head = sock.recv(64)
        except socket.timeout:
            return False
    return head.startswith(b"HTTP/1.") and head[9:12] == b"400"


# -- the run -------------------------------------------------------------------

def open_loop(port: int, mix: RequestMix, start: float, seconds: float,
              base_ts: float) -> list[dict]:
    """Send whole rounds from SENDERS threads, each op at its due time, until
    the schedule covers ``seconds`` and DRAIN_S past the first health poll
    that saw the refresh swap in (or MAX_EXTRA_S more have passed).  Returns
    the ops with their send and completion times."""
    lock = threading.Lock()
    ops: list[dict] = []
    state = {"next": 0, "rounds": 0, "swap_due": None}
    max_rounds = int((seconds + MAX_EXTRA_S) * RATE / ROUND_REQUESTS)

    def take():
        with lock:
            if state["next"] == len(ops):
                swap_due = state["swap_due"]
                scheduled = state["rounds"] * ROUND_REQUESTS / RATE
                done = swap_due is not None and scheduled >= max(seconds, swap_due + DRAIN_S)
                if done or state["rounds"] >= max_rounds:
                    return None
                ops.extend(mix.round(state["rounds"]))
                state["rounds"] += 1
            state["next"] += 1
            return ops[state["next"] - 1]

    def sender():
        while (op := take()) is not None:
            due = start + op["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            op["sent"] = time.perf_counter()
            try:
                if op["kind"] == "health":
                    status, doc = get_health(port, REQUEST_TIMEOUT)
                    op["health"] = (doc["snapshot_timestamp"],
                                    doc["artifacts"]["dictionary"]["terms"])
                    with lock:
                        if op["health"][0] != base_ts and state["swap_due"] is None:
                            state["swap_due"] = op["due"]
                else:
                    status, op["reply"] = post(port, op["body"])
                op["status"] = status
            except Exception as exc:  # counted as a failed operation
                op["error"] = repr(exc)
            op["done"] = time.perf_counter()
            op["due_abs"] = due

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return ops


def prepare(seed: int, run_dir: Path):
    """Write a copy of the cached artifacts with seeded MWE and boost rules,
    a seeded refresh log and the server's config under ``run_dir``.
    Returns the base terms, the terms the refresh adds, the request mix,
    the config file and the port."""
    arts = corpus.artifact_dir()
    counts = corpus.read_lexicon(arts / "dictionary.tsv")
    vocab = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab_set = set(counts)
    rng = random.Random(seed)

    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "arts").mkdir(parents=True)
    for path in arts.iterdir():
        shutil.copyfile(path, run_dir / "arts" / path.name)
    mwe = mwe_rules(vocab, vocab_set, rng)
    (run_dir / "arts" / "mwe.tsv").write_text(
        "".join(f"{k}\t{v}\n" for k, v in mwe.items()), encoding="utf-8")
    (run_dir / "arts" / "boost.tsv").write_text(
        "".join(f"{a}\t{p}\t{m}\n" for a, p, m in boost_rules(vocab, rng)), encoding="utf-8")
    log_rows = refresh_log(vocab, vocab_set, rng)
    (run_dir / "querylog.tsv").write_text(
        "".join(f"{q}\t{c}\n" for q, c in log_rows), encoding="utf-8")
    added = terms_added_by_refresh(vocab_set, log_rows, MIN_NEW_TERM_COUNT)
    mix = RequestMix(vocab, vocab_set, rng, mwe)

    port = free_port()
    config = run_dir / "speller.conf"
    config.write_text(
        f"artifacts = {run_dir / 'arts'}\nlisten = 127.0.0.1:{port}\n"
        f"tau = {corpus.TAU}\nrefresh_log = {run_dir / 'querylog.tsv'}\n"
        f"refresh_interval = {REFRESH_INTERVAL}\n"
        f"min_new_term_count = {MIN_NEW_TERM_COUNT}\n", encoding="utf-8")
    return vocab_set, added, mix, config, port


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    run_dir = corpus.WORK / "runs" / f"service_refresh-{os.getpid()}"
    vocab_set, added, mix, config, port = prepare(seed, run_dir)
    expected_terms = len(vocab_set) + len(added)

    setup, setup_stats = [], []
    server = None
    try:
        for k in range(SETUP_REPEATS):
            server = Server(run_dir, config, trace, str(k))
            setup.append(server.wait_ready(port))
            if k < SETUP_REPEATS - 1:
                setup_stats.append((server.stop(), server.spans))
                server = None
        _, doc = get_health(port, 10.0)
        base_ts = doc["snapshot_timestamp"]
        base_terms = doc["artifacts"]["dictionary"]["terms"]
        start = time.perf_counter()
        ops = open_loop(port, mix, start, seconds, base_ts)
        loop_end = time.perf_counter()
        rounds = len(ops) // (ROUND_REQUESTS + 1)
        failed_probes = 0
        for _ in range(rounds):
            try:
                ok = negative_length_probe(port)
            except OSError:
                ok = False
            failed_probes += not ok
        stats = server.stop()
        serving_spans = server.spans
        server = None
    finally:
        if server is not None:
            server.stop()

    result.attempted += len(ops) + rounds
    result.failed += failed_probes + sum(1 for op in ops if "error" in op)

    # -- checks ------------------------------------------------------------------
    result.check(check_term_count, base_terms, len(vocab_set))
    swapped = [op["health"] for op in ops if "health" in op and op["health"][0] != base_ts]
    result.check(expect, bool(swapped), "no refresh completed within the run")
    for _, terms in swapped:
        result.check(check_term_count, terms, expected_terms)
    terms_now = vocab_set | added
    reported: dict[str, dict[str, int]] = {}
    for op in ops:
        if "status" not in op or op["kind"] == "health":
            continue
        check_reply(result, op, terms_now, reported)
    # Replies carry only the top-k candidates: each must be a brute-force
    # candidate at the same distance, and a token with brute-force
    # candidates among the terms served before the refresh must get some.
    oracle = BruteForce(terms_now)
    for token in random.Random(seed + 2).sample(sorted(reported),
                                                min(ORACLE_SAMPLE, len(reported))):
        result.check(check_reported_candidates, token, reported[token],
                     oracle.suggest(token), vocab_set)

    timed = [op for op in ops if op["kind"] != "health" and "done" in op]
    latency = [(op["done"] - op["due_abs"]) * 1000.0 for op in timed]
    refreshes = [(a / 1e9, b / 1e9) for a, b in stats.get("refresh", [])]
    asked = [op["query"] for op in timed if "query" in op]
    result.notes.update(
        query_repeat_share=round(repeat_share(asked), 4),
        typo_repeat_share=round(repeat_share(
            t for op in timed if op["kind"] == "typo"
            for t in op["query"].split() if t not in vocab_set), 4),
        requests=len(timed), refreshes=len(refreshes), rounds=rounds,
        stream_s=round(loop_end - start, 3), probes_failed=failed_probes)
    if refreshes:
        result.notes["refresh_s"] = round(median([b - a for a, b in refreshes]), 3)
    result.end_to_end(trace, {
        "setup_s": median(setup),
        "rss_mb": stats.get("rss_mb", 0.0),
        "op_p50_ms": percentile(latency, 50),
        "op_p99_ms": percentile(latency, 99),
        "ops_per_s": len(timed) / (max(op["done"] for op in timed) - start),
    })
    if trace:
        record_layers(result, timed, refreshes, setup_stats, serving_spans)
        kept = corpus.trace_path("service_refresh", seed)
        kept.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(serving_spans, kept)
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def check_reply(result: Result, op: dict, terms, reported: dict) -> None:
    """Check one reply; collect the candidates reported for each misspelled
    token of a typo request into ``reported``."""
    status = op["status"]
    if op["kind"] == "invalid":
        result.check(expect, status == 400, f"invalid request got {status}, not 400")
        return
    if status != 200:
        result.check(expect, False, f"{op['kind']} request {op['query']!r} got {status}")
        return
    doc = json.loads(op["reply"])
    if op["expect"] is not None:
        result.check(expect, doc["corrected"] == op["expect"],
                     f"{op['kind']} request {op['query']!r} -> {doc['corrected']!r}, "
                     f"expected {op['expect']!r}")
    for token in doc["tokens"]:
        if token["changed"]:
            result.check(check_changed_token, token["input"], token["output"],
                         token["confidence"], terms, corpus.TAU)
        lookup = normalize(token["input"])
        if op["kind"] == "typo" and lookup not in terms:
            reported.setdefault(lookup, {c["term"]: c["edit_distance"]
                                         for c in token["candidates"]})


def record_layers(result: Result, timed, refreshes, setup_stats, serving_spans) -> None:
    from common import layer_means_us, load_layers, suggest_layers
    from tracer import load_spans, self_times

    # Span ids restart in every server process; offset them to keep the
    # launches apart.
    setup_spans = []
    for k, (_, path) in enumerate(setup_stats, start=1):
        off = k << 40
        setup_spans += [(s + off, p and p + off, *rest) for s, p, *rest in load_spans(path)]
    spans = load_spans(serving_spans)
    ready = [s for s in spans if s[2] != "service.refresh"]
    # Start-up spans: everything that finished before the first request.
    first_sent = min(op["sent"] for op in timed) * 1e9
    setup_spans += [s for s in ready if s[4] < first_sent]
    load_layers(result, setup_spans, SETUP_REPEATS)

    parent = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}

    def root(sid):
        while parent.get(sid):
            sid = parent[sid]
        return name_of.get(sid)

    request_spans = [s for s in spans if root(s[0]) == "service.handle_correct"]
    for name, us in layer_means_us(self_times(request_spans), (
            "mwe.apply", "dictionary.contains", "pipeline.multiplier_for",
            "service.handle_correct", "pipeline.correct_query", "dictionary.candidate_ids",
            "suggest.suggest", "suggest.distance", "features.extract", "features.phonetic",
            "ranker.forward_batch", "ranker.rank")).items():
        result.metric(f"{name}_us", us)
    suggest_layers(result, request_spans)
    handler = [s[4] - s[3] for s in spans if s[2] == "service.handle_correct"]
    valid = [op for op in timed if op.get("status") == 200]
    if handler and valid:
        client = mean([op["done"] - op["sent"] for op in valid]) * 1e6
        result.metric("service.http_overhead_us", client - mean(handler) / 1000.0)
    result.metric("loadgen.lag_p99_ms",
                  percentile([(op["sent"] - op["due_abs"]) * 1000.0 for op in timed], 99))
    if refreshes:
        result.metric("service.refresh_s", median([b - a for a, b in refreshes]))
    refresh_self = self_times(spans).get("pipeline.refresh_behavioral_stats")
    if refresh_self:
        result.metric("pipeline.refresh_behavioral_stats_s", median(refresh_self) / 1e9)
    overlap = [(op["done"] - op["due_abs"]) * 1000.0 for op in timed
               if any(op["due_abs"] < b and op["done"] > a for a, b in refreshes)]
    if overlap:
        result.metric("service.refresh_overlap_p99_ms", percentile(overlap, 99))
