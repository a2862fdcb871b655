"""Small helpers shared by the workloads: statistics and the result line."""

from __future__ import annotations

import math
import resource
import sys
from pathlib import Path
from statistics import fmean as mean, median  # noqa: F401  (shared by the workloads)

ROOT = Path(__file__).resolve().parent.parent

# Set-ups per run; setup_s reports their median.  Two, not more, because a
# 100k-term set-up costs about 10 s and every run must fit the time budget.
SETUP_REPEATS = 2

# Every workload prints these, each with its own kind of operation (see the
# workload's module): the end-to-end metrics with --trace 0 ...
END_TO_END = {"setup_s": "s", "rss_mb": "MB", "op_p50_ms": "ms", "op_p99_ms": "ms",
              "ops_per_s": "1/s"}
# ... and the per-layer metrics with --trace 1.  A layer that a workload never
# calls reads 0 there (each workload lists them in LAYERS_NOT_RUN).
PER_LAYER = {
    "dictionary.load_dictionary_s": "s",
    "dictionary.build_delete_index_s": "s",
    "dictionary.index_keys": "count",
    "dictionary.index_builds": "count",
    "ranker.load_model_s": "s",
    "service.load_artifacts_s": "s",
    "dictionary.candidate_ids_us": "us",
    "dictionary.ids_per_token": "count",
    "suggest.suggest_us": "us",
    "suggest.distance_calls_per_token": "count",
    "suggest.distance_us": "us",
    "suggest.kept_per_verified": "ratio",
    "suggest.escalated_share": "ratio",
    "suggest.candidates_per_token": "count",
    "features.extract_us": "us",
    "features.phonetic_us": "us",
    "ranker.forward_batch_us": "us",
    "ranker.rank_us": "us",
    "pipeline.correct_query_us": "us",
    "mwe.apply_us": "us",
    "dictionary.contains_us": "us",
    "pipeline.multiplier_for_us": "us",
    "service.handle_correct_us": "us",
    "service.http_overhead_us": "us",
    "loadgen.lag_p99_ms": "ms",
    "service.refresh_s": "s",
    "pipeline.refresh_behavioral_stats_s": "s",
    "service.refresh_overlap_p99_ms": "ms",
    "datagen.inject_errors_us": "us",
    "ranker.build_training_set_s": "s",
    "ranker.train_s": "s",
}
SERVICE_LAYERS = frozenset({
    "service.handle_correct_us", "service.http_overhead_us", "loadgen.lag_p99_ms",
    "service.refresh_s", "pipeline.refresh_behavioral_stats_s",
    "service.refresh_overlap_p99_ms"})
TRAINING_LAYERS = frozenset({"datagen.inject_errors_us", "ranker.build_training_set_s",
                             "ranker.train_s"})


def use_repo_sources() -> None:
    """Import queryspell from ``src`` and the test oracles from ``tests``."""
    for sub in ("tests", "src"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def repeat_share(items) -> float:
    """Share of items equal to an earlier item."""
    items = list(items)
    return 1.0 - len(set(items)) / len(items) if items else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """Counts, correctness and metrics of one run."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: dict = {}

    def metric(self, name: str, value: float) -> None:
        unit = END_TO_END.get(name) or PER_LAYER[name]
        self.metrics[name] = {"value": float(value), "unit": unit}

    def end_to_end(self, traced: bool, values: dict[str, float]) -> None:
        """Report the end-to-end metrics; a traced run keeps them as notes
        only, to show the tracing overhead."""
        if traced:
            self.notes["traced_end_to_end"] = {k: round(v, 4) for k, v in values.items()}
        else:
            for name, value in values.items():
                self.metric(name, value)

    def layers_not_run(self, names) -> None:
        """Per-layer metrics of layers this workload never calls: 0."""
        for name in names:
            self.metric(name, 0.0)

    def missing(self, traced: bool) -> list[str]:
        """Metrics of the manifest that this run did not report."""
        return sorted(set(PER_LAYER if traced else END_TO_END) - set(self.metrics))

    def check(self, fn, *args) -> None:
        """Run one output check; a failure marks the run incorrect."""
        from checks import CheckFailure

        try:
            fn(*args)
        except CheckFailure as exc:
            if len(self.errors) < 20:
                self.errors.append(str(exc))
            self.notes["check_failures"] = self.notes.get("check_failures", 0) + 1

    @property
    def correct(self) -> bool:
        return not self.notes.get("check_failures")

    def line(self) -> dict:
        order = [*END_TO_END, *PER_LAYER]
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": dict(sorted(self.metrics.items(), key=lambda kv: order.index(kv[0])))}


def run_traced(workload: str, measure, seed: int, seconds: float, trace: bool) -> Result:
    """``measure(seed, seconds, tracer)`` with every layer traced when
    ``trace`` is set (tracer None otherwise); the spans are kept under
    ``traces/``."""
    import corpus
    from tracer import Tracer, write_spans

    if not trace:
        return measure(seed, seconds, None)
    tracer = Tracer().install()
    try:
        result = measure(seed, seconds, tracer)
    finally:
        tracer.uninstall()
    write_spans(corpus.trace_path(workload, seed), tracer.spans)
    return result


def layer_means_us(self_ns: dict, names) -> dict[str, float]:
    """Mean self time per call in microseconds, for the names that ran."""
    return {name: mean(self_ns[name]) / 1000.0 for name in names if self_ns.get(name)}


def suggest_layers(result: Result, spans) -> None:
    """Work done by retrieval and verification, per misspelled token."""
    from tracer import children_per_parent, sizes

    kept = sizes(spans, "suggest.suggest")
    if not kept:
        return
    tokens = len(kept)
    ids_calls = children_per_parent(spans, "suggest.suggest", "dictionary.candidate_ids")
    distances = sum(children_per_parent(spans, "suggest.suggest", "suggest.distance"))
    result.metric("dictionary.ids_per_token",
                  sum(sizes(spans, "dictionary.candidate_ids")) / tokens)
    result.metric("suggest.distance_calls_per_token", distances / tokens)
    if distances:
        result.metric("suggest.kept_per_verified", sum(kept) / distances)
    result.metric("suggest.escalated_share",
                  sum(1 for n in ids_calls if n > 1) / tokens)
    result.metric("suggest.candidates_per_token", sum(kept) / tokens)


def load_layers(result: Result, spans, setups: int) -> None:
    """Artifact-load layers: median self time per call and work counts."""
    from tracer import self_times, sizes

    self_ns = self_times(spans)
    for name in ("dictionary.load_dictionary", "dictionary.build_delete_index",
                 "ranker.load_model", "service.load_artifacts"):
        if self_ns.get(name):
            result.metric(f"{name}_s", median(self_ns[name]) / 1e9)
    keys = sizes(spans, "dictionary.build_delete_index")
    if keys:
        result.metric("dictionary.index_keys", median(keys))
        result.metric("dictionary.index_builds", len(keys) / setups)
