"""Output checks, computed apart from the program.

Distances come from ``tests/oracles.py::ref_damerau_levenshtein`` and
candidate sets from ``tests/oracles.py::brute_force_suggest``.  A brute-force
scan of 100k terms per token is too slow for a run, so ``BruteForce`` first
drops terms that cannot be within distance 2: each edit changes the length
by at most one and the character multiset (L1 norm of the count vectors) by
at most two, so a term at distance <= 2 differs by <= 2 in length and <= 4
in L1.  The filter only removes terms the oracle would reject anyway.
"""

from __future__ import annotations

import unicodedata

import numpy as np

from oracles import brute_force_suggest, ref_damerau_levenshtein


def normalize(text: str) -> str:
    return unicodedata.normalize("NFC", text).lower()


class CheckFailure(AssertionError):
    """A program output that violates a property the benchmark checks."""


class BruteForce:
    def __init__(self, terms):
        self.terms = sorted(terms)
        chars = sorted({ch for t in self.terms for ch in t})
        self.column = {ch: i for i, ch in enumerate(chars)}
        counts = np.zeros((len(self.terms), len(chars)), dtype=np.int16)
        for row, term in enumerate(self.terms):
            for ch in term:
                counts[row, self.column[ch]] += 1
        self.counts = counts
        self.lengths = np.array([len(t) for t in self.terms], dtype=np.int16)

    def near(self, token: str) -> list[str]:
        """Every term within distance 2 of the token, plus some further."""
        vec = np.zeros(self.counts.shape[1], dtype=np.int16)
        foreign = 0
        for ch in token:
            col = self.column.get(ch)
            if col is None:
                foreign += 1
            else:
                vec[col] += 1
        l1 = np.abs(self.counts - vec).sum(axis=1) + foreign
        keep = (l1 <= 4) & (np.abs(self.lengths - len(token)) <= 2)
        return [self.terms[i] for i in np.flatnonzero(keep)]

    def suggest(self, token: str) -> dict[str, int]:
        return brute_force_suggest(self.near(token), token)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def check_changed_token(token_in: str, token_out: str, confidence: float,
                        terms, tau: float) -> None:
    """A changed token must become a dictionary term at distance 1 or 2 with
    a confidence of at least tau."""
    lookup = normalize(token_in)
    if token_out not in terms:
        raise CheckFailure(f"{token_in!r} -> {token_out!r}: not a dictionary term")
    dist = ref_damerau_levenshtein(lookup, token_out)
    if dist not in (1, 2):
        raise CheckFailure(f"{token_in!r} -> {token_out!r}: distance {dist}")
    if not confidence >= tau:
        raise CheckFailure(f"{token_in!r} -> {token_out!r}: confidence "
                           f"{confidence} below tau {tau}")


def check_candidates(token: str, got: dict[str, int], oracle: BruteForce) -> None:
    """The program's candidate set (term -> distance) equals brute force."""
    want = oracle.suggest(token)
    if got != want:
        missing = sorted(set(want.items()) - set(got.items()))[:5]
        extra = sorted(set(got.items()) - set(want.items()))[:5]
        raise CheckFailure(f"candidates for {token!r} differ from brute force: "
                           f"missing {missing}, extra {extra}")


def check_reported_candidates(token: str, reported: dict[str, int], want: dict[str, int],
                              base_terms) -> None:
    """The top-k candidates a reply reports (term -> distance) are brute-force
    candidates at the same distance, and none are missing when brute force
    finds some among ``base_terms``, the terms served all along."""
    wrong = sorted(set(reported.items()) - set(want.items()))[:5]
    if wrong:
        raise CheckFailure(f"reported candidates for {token!r} that brute force "
                           f"does not give: {wrong}")
    if not reported and any(t in base_terms for t in want):
        raise CheckFailure(f"no candidates reported for {token!r}; brute force "
                           f"gives {sorted(want.items())[:5]}")


def check_accuracy(accuracy: float, baseline: float, floor: float = 0.70) -> None:
    if not (accuracy >= floor and accuracy > baseline):
        raise CheckFailure(f"exact-match accuracy {accuracy:.4f} must be >= {floor} "
                           f"and above the frequency baseline {baseline:.4f}")


def terms_added_by_refresh(base_terms, log_rows, min_new_term_count: int) -> set[str]:
    """Terms a refresh adds when it folds a ``query<TAB>count`` log: unseen
    tokens whose summed count reaches the threshold."""
    totals: dict[str, int] = {}
    for query, count in log_rows:
        for token in normalize(query).split():
            totals[token] = totals.get(token, 0) + count
    return {t for t, c in totals.items()
            if t not in base_terms and c >= min_new_term_count}


def check_term_count(observed: int, expected: int) -> None:
    if observed != expected:
        raise CheckFailure(f"dictionary holds {observed} terms after refresh, "
                           f"expected {expected}")


def frequency_baseline(tokens, counts, candidates_of) -> list[str]:
    """No-ranker correction: known tokens stay, others take the candidate
    with the highest word count (ties to the later term, as criterion 7 of
    the acceptance suite does)."""
    out = []
    for token in tokens:
        lookup = normalize(token)
        if lookup in counts:
            out.append(token)
            continue
        cands = candidates_of(lookup)
        out.append(max(cands, key=lambda t: (counts[t], t)) if cands else token)
    return out
