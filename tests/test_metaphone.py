import hashlib
import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from queryspell.datagen import ACCENT_CLASSES
from queryspell.metaphone import primary_code

# Primary codes frozen from an independent reference implementation.
REFERENCE_CODES = {
    "museum": "MSM", "muzeem": "MSM", "market": "MRKT", "photoshop": "FTXP",
    "express": "AKSPRS", "creative": "KRTF", "cloud": "KLT",
    "background": "PKKRNT", "burgundy": "PRKNT", "glacier": "KLS",
    "national": "NXNL", "park": "PRK", "medal": "MTL", "icon": "AKN",
    "atlantic": "ATLNTK", "mackerel": "MKRL", "check": "XK", "change": "XNJ",
    "fresh": "FRX", "happiness": "HPNS", "smith": "SM0", "schmidt": "XMT",
    "knight": "NT", "night": "NT", "wright": "RT", "right": "RT", "phone": "FN",
    "fone": "FN", "xavier": "SF", "jose": "HS", "caesar": "SSR",
    "chianti": "KNT", "michael": "MKL", "thomas": "TMS", "judge": "JJ",
    "edge": "AJ", "ghost": "KST", "rough": "RF", "school": "SKL",
    "island": "ALNT", "sugar": "XKR", "pizza": "PS", "filipowicz": "FLPTS",
    "acrobat": "AKRPT", "illustrator": "ALSTRTR", "lightroom": "LTRM",
    "premiere": "PRMR", "vector": "FKTR", "template": "TMPLT", "banner": "PNR",
    "poster": "PSTR", "flyer": "FLR", "logo": "LK", "mockup": "MKP",
    "texture": "TKSTR", "gradient": "KRTNT", "abstract": "APSTRKT",
}

ALPHABET = (string.ascii_lowercase + " "
            + "".join(ch for cls in ACCENT_CLASSES for ch in cls
                      if len(ch) == 1 and not ch.isascii()))
# Spellings whose rules uniform random letters would almost never reach,
# such as the initial "SAN " and "VAN " of the J, CH and G rules.
PATTERNS = ("san ", "van ", "von ", "sch", "jose", "wicz", "witz", "ewski",
            "cia", "cio", "illo", "alle", "sugar", "caesar", "mc", "gh", "gn",
            "tion", "ier", "zh")
# sha256 of the newline-joined primary codes of _pinned_words(), computed
# with the full Double Metaphone encoder (primary and secondary codes)
# that this module's primary-only encoder replaced.
PINNED_SHA256 = "c183e396c801210f679ae32bc2254eb3f39e74d2de3e40ba98b22f06cc1dbf33"


def _pinned_words(n=20_000, seed=12):
    """Seeded strings of length 1-14: random letters, accented letters and
    spaces, with one of the PATTERNS spliced in at a 15 % rate."""
    rng = random.Random(seed)
    words = []
    for _ in range(n):
        size = rng.randint(1, 14)
        word = ""
        while len(word) < size:
            word += rng.choice(PATTERNS) if rng.random() < 0.15 else rng.choice(ALPHABET)
        words.append(word[:size])
    return words


# Explicit ids keep each case's test name, <word>-expected<n>, stable.
@pytest.mark.parametrize("word,expected", sorted(REFERENCE_CODES.items()),
                         ids=[f"{word}-expected{i}"
                              for i, word in enumerate(sorted(REFERENCE_CODES))])
def test_reference_codes(word, expected):
    assert primary_code(word) == expected


def test_pinned_codes_of_seeded_strings():
    words = _pinned_words()
    assert sum(w.startswith(("san ", "van ")) for w in words) > 100
    codes = "\n".join(primary_code(w) for w in words)
    assert hashlib.sha256(codes.encode()).hexdigest() == PINNED_SHA256


def test_sound_alike_misspelling_shares_primary_code():
    assert primary_code("muzeem") == primary_code("museum")


def test_case_insensitive():
    assert primary_code("Museum") == primary_code("museum")


def test_characters_outside_repertoire_are_skipped():
    # the digit is ignored but still occupies the initial position
    assert primary_code("0ark") == "RK"
    assert primary_code("祝福") == ""


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=14))
def test_code_alphabet(word):
    code = primary_code(word)
    assert isinstance(code, str)
    assert set(code) <= set("AFHJKLMNPRSTX0")


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=14))
def test_deterministic(word):
    assert primary_code(word) == primary_code(word)
