"""Candidate generation: verified corrections for a misspelled token.

Lookup retrieves terms whose delete variants intersect the token's delete
variants, verifies each with full-string Damerau-Levenshtein distance bounded
at 2 (a longer distance is never needed, so its DP is cut short), and
applies the escalation policy: distance-1 candidates first, distance-2 only
when fewer than ``min_candidates`` exist at distance 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dictionary import DeleteIndex, DictionaryEntry, FrequencyDictionary, normalize_term

DEFAULT_MIN_CANDIDATES = 3


def damerau_levenshtein(a: str, b: str, max_distance: int | None = None) -> int:
    """Minimal number of insertions, deletions, substitutions and adjacent
    transpositions transforming a into b (unrestricted edit sequences, so
    e.g. an insertion inside a transposed pair is allowed).

    With ``max_distance`` k the result is exact when it is at most k and
    k + 1 otherwise, and the scan touches only the few cells near the
    diagonal that can still lead to a distance of at most k.

    >>> damerau_levenshtein("change", "chnage")
    1
    >>> damerau_levenshtein("ca", "abc")
    2
    >>> damerau_levenshtein("kitten", "sitting", max_distance=2)
    3
    >>> damerau_levenshtein("kitten", "sitting", max_distance=3)
    3
    >>> damerau_levenshtein("ca", "abc", max_distance=1)
    2
    """
    if a == b:
        return 0
    # Strip shared affixes first; candidates usually differ in a small window.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a = a[lo:hi_a]
    b = b[lo:hi_b]
    la, lb = len(a), len(b)
    # Unbounded, k = max(la, lb) is a bound the distance never exceeds.
    k = max(la, lb) if max_distance is None else max_distance
    gap = lb - la
    if abs(gap) > k:
        return k + 1
    if la == 0 or lb == 0:
        return la + lb

    # Lowrance-Wagner matrix D with per-character last-match bookkeeping,
    # cut off at k (Ukkonen 1985).  Every edit step costs at least the
    # distance it moves between diagonals, so a cell D(i, j) on diagonal
    # j - i lies on a path of cost at least D(i, j) + |j - i - gap|, and at
    # least |j - i| + |j - i - gap| since D(i, j) >= |j - i|.  Only the
    # diagonals where that sum is <= k are computed; ``cap`` = k + 1 fills
    # every other cell.  Each computed cell is exact wherever its path bound
    # is <= k, and above k otherwise.  Rows are allocated as the scan
    # reaches them.
    cap = k + 1
    d_lo = -((k - gap) // 2)
    d_hi = (k + gap) // 2
    width = lb + 1
    first = [cap] * width
    reach = d_hi if d_hi < lb else lb
    first[:reach + 1] = range(reach + 1)
    score = [first]
    last_row: dict[str, int] = {}
    for i in range(1, la + 1):
        ch_a = a[i - 1]
        prev = score[i - 1]
        row = [cap] * width
        score.append(row)
        off = i + gap              # column of row i on the final diagonal
        if i > -d_lo:
            j_lo = i + d_lo
            left = bound = cap
            # Last column left of the band where b matches ch_a.
            last_col = b.rfind(ch_a, 0, j_lo - 1) + 1
        else:
            j_lo = 1
            row[0] = left = i
            bound = i + (off if off > 0 else -off)
            last_col = 0
        j_hi = i + d_hi if i + d_hi < lb else lb
        diag = prev[j_lo - 1]
        for j in range(j_lo, j_hi + 1):
            up = prev[j]
            ch_b = b[j - 1]
            if ch_a == ch_b:
                d = diag                   # a match is never beaten
                last_col = j
            else:
                d = diag if diag < up else up
                if left < d:
                    d = left
                d += 1                     # substitute, delete or insert
                if last_col:
                    r = last_row.get(ch_b, 0)
                    if r:                  # transpose, edits between allowed
                        t = score[r - 1][last_col - 1] + i - r + j - last_col - 1
                        if t < d:
                            d = t
            row[j] = left = d
            d += j - off if j > off else off - j
            if d < bound:
                bound = d
            diag = up
        # The least path bound of a row never decreases from one row to the
        # next (a transposition out of row r - 1 is matched by D(i - 1, j - 1)
        # on its own diagonal), so once it exceeds k the distance does too.
        if bound > k:
            return cap
        last_row[ch_a] = i
    d = score[la][lb]
    return d if d < cap else cap


@dataclass
class Candidate:
    """A proposed replacement for a misspelled token.

    ``score`` stays None until the ranker assigns a probability in [0, 1].
    """

    term: str
    edit_distance: int
    entry: DictionaryEntry
    score: float | None = field(default=None, compare=False)

    @property
    def word_count(self) -> int:
        return self.entry.word_count


def suggest(index: DeleteIndex, dictionary: FrequencyDictionary, token: str,
            min_candidates: int = DEFAULT_MIN_CANDIDATES) -> list[Candidate]:
    """Verified correction candidates for a token.

    Returns [] when the token is already a dictionary term.  Otherwise all
    terms at Damerau-Levenshtein distance exactly 1; if fewer than
    ``min_candidates`` exist, the distance-2 terms are added.  Order is
    deterministic (distance, then term) but carries no ranking meaning.
    """
    token = normalize_term(token)
    if not token or dictionary.contains(token):
        return []

    token_len = len(token)
    lengths = index.term_lengths
    terms = index.terms

    # Distance-1 pass over depth-1 variants only: complete for distance 1,
    # cheap because the fat depth-2 buckets are never touched.
    near_ids = index.candidate_ids(token, depth=1)
    ones: list[int] = []
    twos: list[int] = []
    for tid in near_ids:
        if abs(lengths[tid] - token_len) > 2:
            continue
        dist = damerau_levenshtein(token, terms[tid], 2)
        if dist == 1:
            ones.append(tid)
        elif dist == 2:
            twos.append(tid)

    if len(ones) >= min_candidates:
        twos = []
    else:
        # Escalate: retrieve at full depth and verify the ids not yet seen.
        # The depth-1 pass already found every distance-1 term, so this only
        # ever adds distance-2 candidates.
        for tid in index.candidate_ids(token, depth=index.max_edit_distance):
            if tid in near_ids:
                continue
            if abs(lengths[tid] - token_len) > 2:
                continue
            if damerau_levenshtein(token, terms[tid], 2) == 2:
                twos.append(tid)

    picks = [(1, tid) for tid in ones] + [(2, tid) for tid in twos]
    picks.sort(key=lambda p: (p[0], terms[p[1]]))
    return [
        Candidate(terms[tid], dist, dictionary.get(terms[tid]))
        for dist, tid in picks
    ]
