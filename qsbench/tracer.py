"""In-memory spans around calls into queryspell's public functions.

The benchmark installs wrappers on module attributes (and on a few methods)
so that every call into a layer records one span: an id, the id of the
span that caused it, the layer name, and monotonic start and end times in
nanoseconds.  Nothing inside ``src/queryspell`` is edited; the wrappers live
here and are removed again by ``Tracer.uninstall``.

``time.perf_counter_ns`` is CLOCK_MONOTONIC on Linux, so spans recorded in
the server subprocess line up with the load generator's clock.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute or Class.method, span name, namespaces to patch).
# ``None`` as namespaces means every queryspell module that holds the same
# function object under that name (the ``from .x import f`` copies).
TARGETS = (
    ("queryspell.mwe", "apply_mwe", "mwe.apply", None),
    ("queryspell.dictionary", "FrequencyDictionary.contains", "dictionary.contains", None),
    ("queryspell.dictionary", "DeleteIndex.candidate_ids", "dictionary.candidate_ids", None),
    ("queryspell.dictionary", "load_dictionary", "dictionary.load_dictionary", None),
    ("queryspell.dictionary", "build_delete_index", "dictionary.build_delete_index", None),
    ("queryspell.suggest", "suggest", "suggest.suggest", None),
    # Only suggest()'s own lookups: features reuses the distance on
    # metaphone codes, which belongs to the phonetic span.
    ("queryspell.suggest", "damerau_levenshtein", "suggest.distance", ("queryspell.suggest",)),
    ("queryspell.features", "extract_features", "features.extract", None),
    ("queryspell.features", "phonetic_similarity", "features.phonetic", None),
    ("queryspell.ranker", "forward_batch", "ranker.forward_batch", None),
    ("queryspell.ranker", "rank", "ranker.rank", None),
    ("queryspell.ranker", "load_model", "ranker.load_model", None),
    ("queryspell.ranker", "build_training_set", "ranker.build_training_set", None),
    ("queryspell.ranker", "train", "ranker.train", None),
    ("queryspell.datagen", "inject_errors", "datagen.inject_errors", None),
    ("queryspell.pipeline", "correct_query", "pipeline.correct_query", None),
    ("queryspell.pipeline", "BoostConfig.multiplier_for", "pipeline.multiplier_for", None),
    ("queryspell.pipeline", "refresh_behavioral_stats", "pipeline.refresh_behavioral_stats", None),
    ("queryspell.service", "load_artifacts", "service.load_artifacts", None),
    ("queryspell.service", "SpellerService.handle_correct", "service.handle_correct", None),
    ("queryspell.service", "SpellerService.refresh", "service.refresh", None),
)

MODULES = ("queryspell.cli", "queryspell.datagen", "queryspell.dictionary",
           "queryspell.evaluate", "queryspell.features", "queryspell.mwe",
           "queryspell.pipeline", "queryspell.ranker", "queryspell.service",
           "queryspell.suggest", "queryspell")


# Layers whose span also records the size of the returned collection:
# candidate ids retrieved, candidates kept, index keys built.
SIZED = frozenset({"dictionary.candidate_ids", "suggest.suggest",
                   "dictionary.build_delete_index"})


class Tracer:
    """Span recorder; thread-safe for appends under the interpreter lock."""

    def __init__(self, names=None):
        self.names = None if names is None else set(names)
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        sized = name in SIZED
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            size = -1
            try:
                result = fn(*args, **kwargs)
                if sized:
                    size = len(result)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, size))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> "Tracer":
        """Patch every target (or only those named in ``names``)."""
        for module_name, attr, name, namespaces in TARGETS:
            if self.names is not None and name not in self.names:
                continue
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for ns_name in namespaces or MODULES:
                ns = importlib.import_module(ns_name)
                if ns.__dict__.get(attr) is original:
                    self._undo.append((ns, attr, original))
                    setattr(ns, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def mark(self) -> int:
        """Position in the span list, to summarise a phase of the run."""
        return len(self.spans)


def write_spans(path, spans) -> None:
    """Write the spans, one tab-separated line each."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join("\t".join(map(str, span)) + "\n" for span in spans))


def load_spans(path) -> list[tuple[int, int, str, int, int, int]]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s, p, n, a, b, size = line.rstrip("\n").split("\t")
            spans.append((int(s), int(p), n, int(a), int(b), int(size)))
    return spans


def self_times(spans) -> dict[str, list[int]]:
    """Per layer name, the self time (ns) of each span: its duration minus
    the durations of the spans it directly caused."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end, _ in spans:
        if parent:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = defaultdict(list)
    for sid, _, name, start, end, _ in spans:
        out[name].append(end - start - child_ns.get(sid, 0))
    return out


def sizes(spans, name: str) -> list[int]:
    """The recorded result sizes of every span called ``name``."""
    return [span[5] for span in spans if span[2] == name]


def children_per_parent(spans, parent_name: str, child_name: str) -> list[int]:
    """For each span called ``parent_name``, how many ``child_name`` spans it
    caused directly."""
    per = {span[0]: 0 for span in spans if span[2] == parent_name}
    for _, parent, name, *_ in spans:
        if name == child_name and parent in per:
            per[parent] += 1
    return list(per.values())
