"""Multi-word-expression rewriting: task-specific compound fixes.

A key-value map rewrites known multi-word errors before the
token-level speller runs: "creativecloud" -> "creative cloud" (compound
split), "photo shop express" -> "photoshop express" (decompounding).
Matching is greedy longest-match, left to right, in a single pass; replaced
text is never re-matched.
"""

from __future__ import annotations

from .dictionary import iter_tsv, normalize_term
from .errors import LoadError


def _normalize_phrase(text: str) -> str:
    return " ".join(normalize_term(tok) for tok in text.split())


def _add_entry(entries: dict[str, str], key: str, value: str) -> None:
    """Normalize one rewrite rule into ``entries``, rejecting empty phrases,
    identity rules and a second, different replacement for a key."""
    key_n = _normalize_phrase(key)
    value_n = _normalize_phrase(value)
    if not key_n or not value_n:
        raise LoadError(f"empty phrase in MWE entry {key!r} -> {value!r}")
    if key_n == value_n:
        raise LoadError(f"MWE key maps to itself: {key_n!r}")
    if entries.setdefault(key_n, value_n) != value_n:
        raise LoadError(f"conflicting replacements for MWE key {key_n!r}")


class MweMap:
    """Frozen phrase-rewrite map, applied to every request."""

    def __init__(self, entries: dict[str, str]):
        self.entries: dict[str, str] = {}
        for key, value in entries.items():
            _add_entry(self.entries, key, value)
        by_first: dict[str, list[tuple[tuple[str, ...], tuple[str, ...]]]] = {}
        for key_n, value_n in self.entries.items():
            key_tokens = tuple(key_n.split())
            by_first.setdefault(key_tokens[0], []).append(
                (key_tokens, tuple(value_n.split())))
        # longest key first so greedy matching prefers the longer phrase
        self._by_first = {
            first: sorted(rules, key=lambda r: -len(r[0]))
            for first, rules in by_first.items()
        }

    def __len__(self) -> int:
        return len(self.entries)


def load_mwe_map(path) -> MweMap:
    """MWE TSV: ``wrong phrase<TAB>replacement phrase``, '#' comments."""
    entries: dict[str, str] = {}
    for line_no, (key, value) in iter_tsv(path, "wrong phrase", "replacement phrase"):
        try:
            _add_entry(entries, key, value)
        except LoadError as exc:
            raise LoadError(str(exc), path, line_no) from None
    return MweMap(entries)


def apply_mwe(query: str, mwe: MweMap | None) -> str:
    """Rewrite the query through the map; unmatched tokens pass through
    unchanged (original form).  Idempotent as long as replacements do not
    themselves introduce map keys."""
    if mwe is None or not mwe.entries:
        return query
    tokens = query.split()
    norm = [normalize_term(t) for t in tokens]
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        rules = mwe._by_first.get(norm[i])
        matched = False
        if rules:
            for key_tokens, repl_tokens in rules:
                k = len(key_tokens)
                if i + k <= n and tuple(norm[i:i + k]) == key_tokens:
                    out.extend(repl_tokens)
                    i += k
                    matched = True
                    break
        if not matched:
            out.append(tokens[i])
            i += 1
    return " ".join(out)
