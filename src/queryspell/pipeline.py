"""End-to-end query correction and behavioral statistics refresh.

Request flow: MWE rewrite -> tokenize -> per-token dictionary check /
suggest / rank -> postprocessor boost -> threshold acceptance -> assembly.
The request path is read-only over an immutable artifact snapshot; refresh
derives a new dictionary + index that share every entry and index bucket
the query log leaves untouched, and the caller publishes them with an
atomic swap.
"""

from __future__ import annotations

import fnmatch
import math
import threading
import time
import unicodedata
from dataclasses import dataclass, field

from .dictionary import (DeleteIndex, FrequencyDictionary, iter_tsv, normalize_term,
                         parse_count)
from .errors import ConfigError, LoadError
from .features import RequestContext
from .mwe import MweMap, apply_mwe
from .ranker import MlpModel, rank
from .suggest import Candidate, suggest

DEFAULT_TAU = 0.5
DEFAULT_MIN_NEW_TERM_COUNT = 100
DEFAULT_TOP_K = 5


@dataclass(frozen=True)
class BoostRule:
    pattern: str            # exact term, or glob pattern when it contains */?/[
    multiplier: float

    def matches(self, term: str) -> bool:
        if any(ch in self.pattern for ch in "*?["):
            return fnmatch.fnmatchcase(term, self.pattern)
        return term == self.pattern


class BoostConfig:
    """Per-application confidence boosting plus the acceptance threshold."""

    def __init__(self, rules: dict[str, list[BoostRule]] | None = None,
                 tau: float = DEFAULT_TAU):
        if not 0.0 <= tau <= 1.0:
            raise ConfigError(f"acceptance threshold must be in [0, 1], got {tau}")
        self.rules = {app: tuple(rs) for app, rs in (rules or {}).items()}
        for app, rs in self.rules.items():
            for rule in rs:
                if not (math.isfinite(rule.multiplier) and rule.multiplier > 0):
                    raise ConfigError(
                        f"boost multiplier must be finite and positive "
                        f"({app}: {rule.pattern!r})")
        self.tau = tau

    def multiplier_for(self, application: str, term: str) -> float:
        factor = 1.0
        for rule in self.rules.get(application, ()):
            if rule.matches(term):
                factor *= rule.multiplier
        return factor


def load_boost_config(path, tau: float = DEFAULT_TAU) -> BoostConfig:
    """Boost TSV: ``application<TAB>term-or-pattern<TAB>multiplier``."""
    rules: dict[str, list[BoostRule]] = {}
    for line_no, (app, pattern, raw) in iter_tsv(path, "application", "pattern",
                                                 "multiplier"):
        try:
            multiplier = float(raw)
        except ValueError:
            raise LoadError(f"bad multiplier {raw!r}", path, line_no) from None
        rules.setdefault(app.strip(), []).append(
            BoostRule(normalize_term(pattern.strip()), multiplier))
    return BoostConfig(rules, tau)


@dataclass(frozen=True)
class TokenCorrection:
    input: str
    output: str
    changed: bool
    confidence: float
    candidates: tuple[Candidate, ...] = ()


@dataclass
class CorrectionResult:
    original: str
    corrected: str
    tokens: list[TokenCorrection]
    elapsed: float  # seconds, pipeline wall time only


@dataclass(frozen=True)
class ArtifactSet:
    """The immutable tuple served atomically to request handlers."""

    dictionary: FrequencyDictionary
    index: DeleteIndex
    model: MlpModel
    mwe_map: MweMap | None = None
    boost: BoostConfig = field(default_factory=BoostConfig)
    manifest: dict = field(default_factory=dict)


class ArtifactStore:
    """Atomic snapshot holder: readers always see a consistent artifact set."""

    def __init__(self, artifacts: ArtifactSet):
        self._lock = threading.Lock()
        self._snapshot = artifacts
        self._timestamp = time.time()

    def snapshot(self) -> ArtifactSet:
        return self._snapshot  # attribute read is atomic in CPython

    @property
    def timestamp(self) -> float:
        return self._timestamp

    def swap(self, artifacts: ArtifactSet) -> None:
        with self._lock:
            self._snapshot = artifacts
            # strictly increasing even when swaps land within clock resolution
            self._timestamp = max(time.time(), self._timestamp + 1e-6)


def tokenize(query: str) -> list[str]:
    """NFC-normalize and split on Unicode whitespace, dropping empties.
    Original casing survives; lookups lowercase separately."""
    return unicodedata.normalize("NFC", query).split()


def correct_query(query: str, context: RequestContext,
                  artifacts: ArtifactSet) -> CorrectionResult:
    """Correct a query against a loaded artifact snapshot.

    Per token: in-dictionary tokens pass through untouched; for the rest the
    suggester candidates are ranked, boosted per application, and the top
    candidate is accepted only when its confidence reaches the threshold.
    Never fails on query content.
    """
    start = time.perf_counter()
    rewritten = apply_mwe(query, artifacts.mwe_map)
    dictionary = artifacts.dictionary
    tau = artifacts.boost.tau
    results: list[TokenCorrection] = []
    for token in tokenize(rewritten):
        lookup = normalize_term(token)
        if dictionary.contains(lookup):
            results.append(TokenCorrection(token, token, False, 1.0))
            continue
        candidates = suggest(artifacts.index, dictionary, lookup)
        if not candidates:
            results.append(TokenCorrection(token, token, False, 0.0))
            continue
        ranked = rank(artifacts.model, candidates, context, lookup, artifacts.boost)
        top = ranked[0]
        reported = tuple(ranked[:DEFAULT_TOP_K])
        if top.score >= tau:
            results.append(TokenCorrection(token, top.term, True, top.score, reported))
        else:
            results.append(TokenCorrection(token, token, False, top.score, reported))
    corrected = " ".join(tc.output for tc in results)
    return CorrectionResult(query, corrected, results, time.perf_counter() - start)


def refresh_behavioral_stats(query_log, dictionary: FrequencyDictionary,
                             index: DeleteIndex,
                             min_new_term_count: int = DEFAULT_MIN_NEW_TERM_COUNT,
                             ) -> tuple[FrequencyDictionary, DeleteIndex]:
    """Fold recent query-log frequencies into a new dictionary + index.

    Log format: ``query<TAB>count``.  Existing terms accumulate the observed
    occurrences into word_count; unseen terms enter the dictionary only when
    they clear ``min_new_term_count`` (so stray misspellings stay out).
    ``index`` must be the delete index of ``dictionary``.  The new index is
    ``index`` with the variants of the admitted terms merged in, so a
    refresh costs what the log touches, not what the dictionary holds.  The
    input artifacts are untouched; the caller swaps in the returned pair.
    """
    if len(index.terms) != len(dictionary):
        raise ConfigError(f"index holds {len(index.terms)} terms, "
                          f"dictionary {len(dictionary)}")
    occurrences: dict[str, int] = {}
    for line_no, (query, raw) in iter_tsv(query_log, "query", "count"):
        count = parse_count(raw, query_log, line_no, "count")
        for token in tokenize(query):
            term = normalize_term(token)
            occurrences[term] = occurrences.get(term, 0) + count

    admitted = {term: count for term, count in occurrences.items()
                if count >= min_new_term_count or dictionary.contains(term)}
    new_terms = [term for term in admitted if not dictionary.contains(term)]
    return dictionary.with_word_counts(admitted), index.with_terms(new_terms)
