"""Training-data generation: probability-weighted artificial spelling errors.

Six error classes patterned on real-life errors, applied to correctly
spelled queries at a fixed 7:5:4:2:7:2 weighting.  All randomness flows
through an explicit ``random.Random`` so generation is reproducible; callers
parallelize by handing out independent seeds.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass
from enum import Enum

from .dictionary import iter_tsv, write_atomic


class ErrorType(Enum):
    LETTER_ORDER = "LETTER_ORDER"            # swap two adjacent characters
    VOWEL_ADD_REMOVE = "VOWEL_ADD_REMOVE"    # drop a vowel or add a likely companion
    LETTER_ADD_REMOVE = "LETTER_ADD_REMOVE"  # insert (adjacent/duplicate) or drop a char
    LETTER_CHANGE = "LETTER_CHANGE"          # replace with a keyboard neighbor
    ACCENT_FOLD = "ACCENT_FOLD"              # swap within an accent class
    DOUBLE_ADD_REMOVE = "DOUBLE_ADD_REMOVE"  # collapse or create a double letter


ERROR_WEIGHTS: dict[ErrorType, int] = {
    ErrorType.LETTER_ORDER: 7,
    ErrorType.VOWEL_ADD_REMOVE: 5,
    ErrorType.LETTER_ADD_REMOVE: 4,
    ErrorType.LETTER_CHANGE: 2,
    ErrorType.ACCENT_FOLD: 7,
    ErrorType.DOUBLE_ADD_REMOVE: 2,
}

_ERROR_TYPES = tuple(ERROR_WEIGHTS)
_WEIGHTS = tuple(ERROR_WEIGHTS.values())

# For vowel additions, only vowels that usually follow one another: each vowel
# carries a weighted list of likely companions ('e' strongly prefers 'i' over
# 'u').
VOWEL_COMPANIONS: dict[str, tuple[tuple[str, int], ...]] = {
    "a": (("i", 4), ("u", 3), ("e", 2), ("o", 1)),
    "e": (("i", 5), ("a", 3), ("e", 2), ("u", 1)),
    "i": (("e", 4), ("a", 3), ("o", 2), ("u", 1)),
    "o": (("u", 4), ("o", 2), ("i", 2), ("a", 1)),
    "u": (("e", 4), ("i", 2), ("a", 2), ("o", 1)),
}

ACCENT_CLASSES: tuple[tuple[str, ...], ...] = (
    ("a", "à", "â", "ä"),
    ("e", "é", "è", "ê", "ë"),
    ("i", "î", "ï"),
    ("o", "ô", "ö"),
    ("u", "ù", "û", "ü"),
    ("c", "ç"),
    ("s", "ß", "ss"),
)

_ACCENTED = {ch: cls for cls in ACCENT_CLASSES for ch in cls[1:] if len(ch) == 1}
_VOWEL_CHARS = set("aeiou") | {ch for cls in ACCENT_CLASSES[:5] for ch in cls}


def _keyboard_adjacency(rows: tuple[str, ...], offsets: tuple[float, ...]) -> dict[str, str]:
    """Neighbor map from staggered key rows; two keys are adjacent when their
    horizontal centers are within one key width on the same or next row."""
    coords = {}
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            coords.setdefault(ch, (r, c + offsets[r]))
    adjacency: dict[str, set[str]] = {ch: set() for ch in coords}
    for ch, (r, x) in coords.items():
        for other, (r2, x2) in coords.items():
            if other == ch:
                continue
            if abs(r - r2) <= 1 and abs(x - x2) <= 1.0:
                adjacency[ch].add(other)
    return {ch: "".join(sorted(near)) for ch, near in adjacency.items()}


_QWERTY = _keyboard_adjacency(
    ("1234567890-", "qwertyuiop", "asdfghjkl;", "zxcvbnm,./"),
    (0.0, 0.5, 0.75, 1.25),
)
_AZERTY = _keyboard_adjacency(
    ("1234567890-", "azertyuiop", "qsdfghjklmù", "wxcvbn,;:!"),
    (0.0, 0.5, 0.75, 1.25),
)
_QWERTZ = _keyboard_adjacency(
    ("1234567890ß", "qwertzuiopü", "asdfghjklöä", "yxcvbnm,.-"),
    (0.0, 0.5, 0.75, 1.25),
)

KEYBOARD_LAYOUTS: dict[str, dict[str, str]] = {
    "en": _QWERTY,
    "fr": _AZERTY,
    "de": _QWERTZ,
}

# Union of all layouts: fallback when a character is not on the locale's own
# keyboard (e.g. "ö" typed under an en locale).
_ANY_LAYOUT: dict[str, str] = {}
for _layout in (_QWERTY, _AZERTY, _QWERTZ):
    for _ch, _near in _layout.items():
        _ANY_LAYOUT[_ch] = "".join(sorted(set(_ANY_LAYOUT.get(_ch, "")) | set(_near)))


@dataclass
class ErroredQuery:
    """A query with one or more injected spelling errors."""

    original: str
    corrupted_tokens: list[str]
    applied: list[tuple[int, ErrorType]]

    @property
    def corrupted(self) -> str:
        return " ".join(self.corrupted_tokens)


def _weighted_char(rng: random.Random, table: tuple[tuple[str, int], ...]) -> str:
    chars = [c for c, _ in table]
    weights = [w for _, w in table]
    return rng.choices(chars, weights=weights, k=1)[0]


def _strip_accent(ch: str) -> str:
    decomposed = unicodedata.normalize("NFD", ch)
    return "".join(c for c in decomposed if not unicodedata.combining(c))


def _letter_order(token: str, rng: random.Random) -> str:
    spots = [i for i in range(len(token) - 1) if token[i] != token[i + 1]]
    i = rng.choice(spots)
    return token[:i] + token[i + 1] + token[i] + token[i + 2:]


def _vowel_positions(token: str) -> list[int]:
    return [i for i, ch in enumerate(token) if ch in _VOWEL_CHARS]


def _vowel_add_remove(token: str, rng: random.Random) -> str:
    positions = _vowel_positions(token)
    can_remove = len(token) >= 2
    if can_remove and rng.random() < 0.5:
        i = rng.choice(positions)
        return token[:i] + token[i + 1:]
    i = rng.choice(positions)
    base = _strip_accent(token[i])
    table = VOWEL_COMPANIONS.get(base, (("e", 1),))
    return token[:i + 1] + _weighted_char(rng, table) + token[i + 1:]


def _letter_add(token: str, rng: random.Random, layout: dict[str, str]) -> str:
    i = rng.randrange(len(token))
    neighbors = layout.get(token[i], "")
    if neighbors and rng.random() < 0.5:
        extra = rng.choice(neighbors)
    else:
        extra = token[i]  # duplicate the key that was struck
    at = i + 1 if rng.random() < 0.5 else i
    return token[:at] + extra + token[at:]


def _letter_add_remove(token: str, rng: random.Random, layout: dict[str, str]) -> str:
    if len(token) >= 2 and rng.random() < 0.5:
        i = rng.randrange(len(token))
        return token[:i] + token[i + 1:]
    return _letter_add(token, rng, layout)


def _letter_change(token: str, rng: random.Random, layout: dict[str, str]) -> str:
    spots = [i for i, ch in enumerate(token) if layout.get(ch)]
    if not spots:
        layout = _ANY_LAYOUT
        spots = [i for i, ch in enumerate(token) if layout.get(ch)]
    i = rng.choice(spots)
    return token[:i] + rng.choice(layout[token[i]]) + token[i + 1:]


def _accent_fold(token: str, rng: random.Random) -> str:
    spots = [i for i, ch in enumerate(token) if ch in _ACCENTED]
    i = rng.choice(spots)
    cls = _ACCENTED[token[i]]
    replacement = rng.choice([m for m in cls if m != token[i]])
    return token[:i] + replacement + token[i + 1:]


def _double_positions(token: str) -> list[int]:
    return [i for i in range(len(token) - 1) if token[i] == token[i + 1]]


def _double_add_remove(token: str, rng: random.Random) -> str:
    doubles = _double_positions(token)
    if doubles and rng.random() < 0.5:
        i = rng.choice(doubles)
        return token[:i] + token[i + 1:]
    i = rng.randrange(len(token))
    return token[:i + 1] + token[i] + token[i + 1:]


def resolve_error_type(token: str, requested: ErrorType) -> ErrorType:
    """The error type that will actually apply to this token.

    Inapplicable types fall back to LETTER_ORDER; length-1 tokens (and
    tokens LETTER_ORDER cannot change, e.g. "aa") fall back to
    LETTER_ADD_REMOVE insertion.
    """
    if len(token) < 2:
        return ErrorType.LETTER_ADD_REMOVE
    applicable = {
        ErrorType.LETTER_ORDER: any(token[i] != token[i + 1]
                                    for i in range(len(token) - 1)),
        ErrorType.VOWEL_ADD_REMOVE: any(ch in _VOWEL_CHARS for ch in token),
        ErrorType.LETTER_ADD_REMOVE: True,
        ErrorType.LETTER_CHANGE: any(ch in _ANY_LAYOUT for ch in token),
        ErrorType.ACCENT_FOLD: any(ch in _ACCENTED for ch in token),
        ErrorType.DOUBLE_ADD_REMOVE: True,
    }
    if applicable[requested]:
        return requested
    if applicable[ErrorType.LETTER_ORDER]:
        return ErrorType.LETTER_ORDER
    return ErrorType.LETTER_ADD_REMOVE


def apply_error(token: str, error_type: ErrorType, rng: random.Random,
                locale: str = "en") -> str:
    """Corrupt a token with one application of the given error class.

    Falls back per resolve_error_type when the class cannot apply; the
    result always differs from the input.
    """
    if not token:
        raise ValueError("cannot corrupt an empty token")
    layout = KEYBOARD_LAYOUTS.get(locale, _QWERTY)
    resolved = resolve_error_type(token, error_type)
    if resolved is ErrorType.LETTER_ORDER:
        return _letter_order(token, rng)
    if resolved is ErrorType.VOWEL_ADD_REMOVE:
        return _vowel_add_remove(token, rng)
    if resolved is ErrorType.LETTER_ADD_REMOVE:
        return _letter_add_remove(token, rng, layout)
    if resolved is ErrorType.LETTER_CHANGE:
        return _letter_change(token, rng, layout)
    if resolved is ErrorType.ACCENT_FOLD:
        return _accent_fold(token, rng)
    return _double_add_remove(token, rng)


def inject_errors(query: str, rng: random.Random,
                  per_token_error_prob: float = 0.5,
                  locale: str = "en") -> ErroredQuery:
    """Corrupt each token independently with the given probability; if no
    token is selected, one uniformly chosen token is corrupted so every
    output carries at least one error.  Error classes are drawn at the
    7:5:4:2:7:2 weighting.  Deterministic given the rng state.
    """
    tokens = query.split()
    if not tokens:
        raise ValueError("query must contain at least one token")
    if not 0 < per_token_error_prob <= 1:
        raise ValueError("per_token_error_prob must be in (0, 1]")
    selected = [i for i in range(len(tokens)) if rng.random() < per_token_error_prob]
    if not selected:
        selected = [rng.randrange(len(tokens))]
    corrupted = list(tokens)
    applied: list[tuple[int, ErrorType]] = []
    for i in selected:
        drawn = rng.choices(_ERROR_TYPES, weights=_WEIGHTS, k=1)[0]
        resolved = resolve_error_type(tokens[i], drawn)
        corrupted[i] = apply_error(tokens[i], resolved, rng, locale=locale)
        applied.append((i, resolved))
    return ErroredQuery(query, corrupted, applied)


def write_dataset(path, errored: list[ErroredQuery]) -> None:
    """Generated-dataset TSV: corrupted, original, comma-joined error types.
    The file is replaced atomically."""
    lines = []
    for eq in errored:
        kinds = ",".join(t.value for _, t in eq.applied)
        lines.append(f"{eq.corrupted}\t{eq.original}\t{kinds}\n")
    write_atomic(path, "".join(lines))


def load_dataset(path) -> list[tuple[str, str, list[str]]]:
    """Read the generated-dataset TSV back as (corrupted, original, types)."""
    return [(corrupted, original, kinds.split(",") if kinds else [])
            for _, (corrupted, original, kinds)
            in iter_tsv(path, "corrupted", "original", "error types")]
