"""Candidate feature extraction for the neural ranker.

Each candidate becomes one row of a fixed-order numeric matrix, all
components in [0, 1]: log-scaled behavioral counters, normalized edit
distance, one-hot locale and application blocks, and a phonetic-similarity
score (English only; neutral 0.5 elsewhere so the ranker cannot read
"non-English" as "phonetically dissimilar").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dictionary import FrequencyDictionary
from .errors import ConfigError
from .metaphone import primary_code
from .suggest import Candidate, damerau_levenshtein

DEFAULT_LOCALES = ("en", "fr", "de")
DEFAULT_APPLICATIONS = ("stock", "express", "cchome")

MAX_EDIT_DISTANCE = 2


@dataclass(frozen=True)
class RequestContext:
    """Where a query came from: language locale and application scope."""

    locale: str
    application: str


@dataclass(frozen=True)
class FeatureSchema:
    """Feature order, one-hot set sizes and the count maxima the count
    features are scaled by.  It travels with the model artifact, so training
    and serving cannot disagree on the layout or the scaling."""

    locales: tuple[str, ...] = DEFAULT_LOCALES
    applications: tuple[str, ...] = DEFAULT_APPLICATIONS
    # largest word_count, asset_frequency and download_count of the
    # training dictionary; (0, 0, 0) leaves every count feature at 0
    count_maxima: tuple[int, int, int] = (0, 0, 0)

    @property
    def dimension(self) -> int:
        return 4 + len(self.locales) + len(self.applications) + 1

    def feature_names(self) -> list[str]:
        names = ["word_count", "asset_frequency", "download_count", "edit_distance"]
        names += [f"locale={tag}" for tag in self.locales]
        names += [f"application={tag}" for tag in self.applications]
        names.append("phonetic_similarity")
        return names

    def scaled_to(self, dictionary: FrequencyDictionary) -> "FeatureSchema":
        """This layout with the count maxima of ``dictionary``, the one the
        ranker is trained over."""
        entries = dictionary.entries()
        return replace(self, count_maxima=(
            max((e.word_count for e in entries), default=0),
            max((e.asset_frequency for e in entries), default=0),
            max((e.download_count for e in entries), default=0)))

    def validate_context(self, context: RequestContext) -> None:
        if context.locale not in self.locales:
            raise ConfigError(f"unknown locale {context.locale!r}; "
                              f"configured: {', '.join(self.locales)}")
        if context.application not in self.applications:
            raise ConfigError(f"unknown application {context.application!r}; "
                              f"configured: {', '.join(self.applications)}")


def _log_norm(value: int, maximum: int) -> float:
    """log1p(value) / log1p(max), clamped to [0, 1]; 0 when the field has no
    signal anywhere (max == 0)."""
    if maximum <= 0:
        return 0.0
    return min(1.0, math.log1p(value) / math.log1p(maximum))


def phonetic_similarity(a: str, b: str) -> float:
    """Similarity of the primary Double Metaphone codes, in [0, 1].

    1.0 for identical codes (also when both are empty); 0.0 when exactly one
    code is empty; otherwise 1 - edit_distance / max(code lengths).
    """
    code_a = primary_code(a)
    code_b = primary_code(b)
    if code_a == code_b:
        return 1.0
    if not code_a or not code_b:
        return 0.0
    longest = max(len(code_a), len(code_b))
    return 1.0 - damerau_levenshtein(code_a, code_b) / longest


def extract_features(candidates: Sequence[Candidate], token: str,
                     context: RequestContext, schema: FeatureSchema) -> np.ndarray:
    """The ``(len(candidates), schema.dimension)`` feature matrix of one
    token's candidates in one request context, one row per candidate in
    ``schema.feature_names()`` order.

    Counts are scaled by ``schema.count_maxima``, fixed when the model was
    trained, so a refresh of the dictionary leaves the rows of the terms it
    does not touch as they were.
    """
    schema.validate_context(context)
    max_words, max_assets, max_downloads = schema.count_maxima
    onehots = (tuple(1.0 if tag == context.locale else 0.0 for tag in schema.locales)
               + tuple(1.0 if tag == context.application else 0.0
                       for tag in schema.applications))
    english = context.locale == "en"  # the phonetic signal is English-only
    rows = []
    for cand in candidates:
        entry = cand.entry
        rows.append((_log_norm(entry.word_count, max_words),
                     _log_norm(entry.asset_frequency, max_assets),
                     _log_norm(entry.download_count, max_downloads),
                     cand.edit_distance / MAX_EDIT_DISTANCE)
                    + onehots
                    + (phonetic_similarity(token, cand.term) if english else 0.5,))
    return np.array(rows, dtype=np.float64).reshape(len(rows), schema.dimension)
