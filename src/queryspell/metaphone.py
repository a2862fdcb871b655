"""Primary Double Metaphone code (Lawrence Philips' 1999 algorithm).

Encodes a word into the primary phonetic key of Double Metaphone so that
sound-alike misspellings ("muzeem" / "museum") map to the same code.  The
algorithm's secondary (alternate pronunciation) key is not computed.
Characters outside the algorithm's repertoire (digits, punctuation,
accented letters) are skipped, mirroring the canonical implementations.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = frozenset("AEIOUY")
_SILENT_STARTS = ("GN", "KN", "PN", "WR", "PS")


def _any_at(text: str, start: int, *options: str) -> bool:
    for opt in options:
        if text[start:start + len(opt)] == opt:
            return True
    return False


@lru_cache(maxsize=65536)
def primary_code(word: str) -> str:
    """The primary Double Metaphone code of a word, cached for the hot
    ranking path.

    >>> primary_code("museum")
    'MSM'
    >>> primary_code("smith")
    'SM0'
    """
    raw = word.upper()
    slavo_germanic = ("W" in raw or "K" in raw or "CZ" in raw or "WITZ" in raw)
    first = 2
    st = "-" * first + raw + " " * 5
    last = first + len(raw) - 1
    pos = first
    code = ""

    if st[first:first + 2] in _SILENT_STARTS:
        pos += 1
    if st[first] == "X":  # initial X sounds like Z, mapped to S
        code = "S"
        pos += 1

    while pos <= last:
        ch = st[pos]
        nxt: tuple[str | None, int] = (None, 1)  # (code to add, advance)

        if ch in _VOWELS:
            if pos == first:
                nxt = ("A", 1)

        elif ch == "B":
            nxt = ("P", 2) if st[pos + 1] == "B" else ("P", 1)

        elif ch == "C":
            if (pos > first + 1 and st[pos - 2] not in _VOWELS
                    and st[pos - 1:pos + 2] == "ACH"
                    and (st[pos + 2] not in ("I", "E")
                         or st[pos - 2:pos + 4] in ("BACHER", "MACHER"))):
                nxt = ("K", 2)
            elif pos == first and st[first:first + 6] == "CAESAR":
                nxt = ("S", 2)
            elif st[pos:pos + 4] == "CHIA":
                nxt = ("K", 2)
            elif st[pos:pos + 2] == "CH":
                if pos > first and st[pos:pos + 4] == "CHAE":
                    nxt = ("K", 2)
                elif (pos == first
                      and (_any_at(st, pos + 1, "HARAC", "HARIS")
                           or _any_at(st, pos + 1, "HOR", "HYM", "HIA", "HEM"))
                      and st[first:first + 5] != "CHORE"):
                    nxt = ("K", 2)
                elif (_any_at(st, first, "VAN ", "VON ") or st[first:first + 3] == "SCH"
                      or _any_at(st, pos - 2, "ORCHES", "ARCHIT", "ORCHID")
                      or st[pos + 2] in ("T", "S")
                      or ((st[pos - 1] in ("A", "O", "U", "E") or pos == first)
                          and st[pos + 2] in ("L", "R", "N", "M", "B", "H", "F", "V", "W", " "))):
                    nxt = ("K", 1)
                elif pos > first:
                    nxt = ("K", 2) if st[first:first + 2] == "MC" else ("X", 2)
                else:
                    nxt = ("X", 2)
            elif st[pos:pos + 2] == "CZ" and st[pos - 2:pos + 2] != "WICZ":
                nxt = ("S", 2)
            elif st[pos + 1:pos + 4] == "CIA":
                nxt = ("X", 3)
            elif st[pos:pos + 2] == "CC" and not (pos == first + 1 and st[first] == "M"):
                if st[pos + 2] in ("I", "E", "H") and st[pos + 2:pos + 4] != "HU":
                    if ((pos == first + 1 and st[first] == "A")
                            or _any_at(st, pos - 1, "UCCEE", "UCCES")):
                        nxt = ("KS", 3)
                    else:
                        nxt = ("X", 3)
                else:
                    nxt = ("K", 2)
            elif st[pos:pos + 2] in ("CK", "CG", "CQ"):
                nxt = ("K", 2)
            elif st[pos:pos + 2] in ("CI", "CE", "CY"):
                nxt = ("S", 2)
            elif st[pos + 1:pos + 3] in (" C", " Q", " G"):
                nxt = ("K", 3)
            elif st[pos + 1] in ("C", "K", "Q") and st[pos + 1:pos + 3] not in ("CE", "CI"):
                nxt = ("K", 2)
            else:
                nxt = ("K", 1)

        elif ch == "D":
            if st[pos:pos + 2] == "DG":
                nxt = ("J", 3) if st[pos + 2] in ("I", "E", "Y") else ("TK", 2)
            elif st[pos:pos + 2] in ("DT", "DD"):
                nxt = ("T", 2)
            else:
                nxt = ("T", 1)

        elif ch == "F":
            nxt = ("F", 2) if st[pos + 1] == "F" else ("F", 1)

        elif ch == "G":
            if st[pos + 1] == "H":
                if pos > first and st[pos - 1] not in _VOWELS:
                    nxt = ("K", 2)
                elif pos < first + 3:
                    if pos == first:
                        nxt = ("J", 2) if st[pos + 2] == "I" else ("K", 2)
                elif ((pos > first + 1 and st[pos - 2] in ("B", "H", "D"))
                      or (pos > first + 2 and st[pos - 3] in ("B", "H", "D"))
                      or (pos > first + 3 and st[pos - 4] in ("B", "H"))):
                    nxt = (None, 2)
                elif (pos > first + 2 and st[pos - 1] == "U"
                      and st[pos - 3] in ("C", "G", "L", "R", "T")):
                    nxt = ("F", 2)
                elif pos > first and st[pos - 1] != "I":
                    nxt = ("K", 2)
            elif st[pos + 1] == "N":
                if pos == first + 1 and st[first] in _VOWELS and not slavo_germanic:
                    nxt = ("KN", 2)
                elif st[pos + 2:pos + 4] != "EY" and st[pos + 1] != "Y" and not slavo_germanic:
                    nxt = ("N", 2)
                else:
                    nxt = ("KN", 2)
            elif st[pos + 1:pos + 3] == "LI" and not slavo_germanic:
                nxt = ("KL", 2)
            elif pos == first and (st[pos + 1] == "Y"
                                   or _any_at(st, pos + 1, "ES", "EP", "EB", "EL", "EY",
                                              "IB", "IL", "IN", "IE", "EI", "ER")):
                nxt = ("K", 2)
            elif ((st[pos + 1:pos + 3] == "ER" or st[pos + 1] == "Y")
                  and not _any_at(st, first, "DANGER", "RANGER", "MANGER")
                  and st[pos - 1] not in ("E", "I")
                  and st[pos - 1:pos + 2] not in ("RGY", "OGY")):
                nxt = ("K", 2)
            elif st[pos + 1] in ("E", "I", "Y") or st[pos - 1:pos + 3] in ("AGGI", "OGGI"):
                if (_any_at(st, first, "VON ", "VAN ") or st[first:first + 3] == "SCH"
                        or st[pos + 1:pos + 3] == "ET"):
                    nxt = ("K", 2)
                else:
                    nxt = ("J", 2)
            elif st[pos + 1] == "G":
                nxt = ("K", 2)
            else:
                nxt = ("K", 1)

        elif ch == "H":
            if (pos == first or st[pos - 1] in _VOWELS) and st[pos + 1] in _VOWELS:
                nxt = ("H", 2)
            else:
                nxt = (None, 1)

        elif ch == "J":
            if st[first:first + 4] == "SAN " or (pos == first and st[pos:pos + 5] == "JOSE "):
                add = "H"
            elif (pos == first or pos == last or st[pos:pos + 4] == "JOSE"
                  or (st[pos + 1] not in ("L", "T", "K", "S", "N", "M", "B", "Z")
                      and st[pos - 1] not in ("S", "K", "L"))):
                add = "J"
            else:
                add = None
            nxt = (add, 2 if st[pos + 1] == "J" else 1)

        elif ch == "K":
            nxt = ("K", 2) if st[pos + 1] == "K" else ("K", 1)

        elif ch == "L":
            nxt = ("L", 2) if st[pos + 1] == "L" else ("L", 1)

        elif ch == "M":
            if ((st[pos + 1:pos + 4] == "UMB"
                 and (pos + 1 == last or st[pos + 2:pos + 4] == "ER"))
                    or st[pos + 1] == "M"):
                nxt = ("M", 2)
            else:
                nxt = ("M", 1)

        elif ch == "N":
            nxt = ("N", 2) if st[pos + 1] == "N" else ("N", 1)

        elif ch == "P":
            if st[pos + 1] == "H":
                nxt = ("F", 2)
            elif st[pos + 1] in ("P", "B"):
                nxt = ("P", 2)
            else:
                nxt = ("P", 1)

        elif ch == "Q":
            nxt = ("K", 2) if st[pos + 1] == "Q" else ("K", 1)

        elif ch == "R":
            if (pos == last and not slavo_germanic
                    and st[pos - 2:pos] == "IE" and st[pos - 4:pos - 2] not in ("ME", "MA")):
                add = None
            else:
                add = "R"
            nxt = (add, 2 if st[pos + 1] == "R" else 1)

        elif ch == "S":
            if st[pos - 1:pos + 2] in ("ISL", "YSL"):
                nxt = (None, 1)
            elif pos == first and st[first:first + 5] == "SUGAR":
                nxt = ("X", 1)
            elif st[pos:pos + 2] == "SH":
                if _any_at(st, pos + 1, "HEIM", "HOEK", "HOLM", "HOLZ"):
                    nxt = ("S", 2)
                else:
                    nxt = ("X", 2)
            elif st[pos:pos + 3] in ("SIO", "SIA") or st[pos:pos + 4] == "SIAN":
                nxt = ("S", 3)
            elif ((pos == first and st[pos + 1] in ("M", "N", "L", "W"))
                  or st[pos + 1] == "Z"):
                nxt = ("S", 2 if st[pos + 1] == "Z" else 1)
            elif st[pos:pos + 2] == "SC":
                if st[pos + 2] == "H":
                    nxt = (("SK", 3) if _any_at(st, pos + 3, "OO", "UY", "ED", "EM")
                           else ("X", 3))
                elif st[pos + 2] in ("I", "E", "Y"):
                    nxt = ("S", 3)
                else:
                    nxt = ("SK", 3)
            elif pos == last and st[pos - 2:pos] in ("AI", "OI"):
                nxt = (None, 1)
            else:
                nxt = ("S", 2 if st[pos + 1] in ("S", "Z") else 1)

        elif ch == "T":
            if st[pos:pos + 4] == "TION":
                nxt = ("X", 3)
            elif st[pos:pos + 3] in ("TIA", "TCH"):
                nxt = ("X", 3)
            elif st[pos:pos + 2] == "TH" or st[pos:pos + 3] == "TTH":
                if (st[pos + 2:pos + 4] in ("OM", "AM")
                        or _any_at(st, first, "VON ", "VAN ")
                        or st[first:first + 3] == "SCH"):
                    nxt = ("T", 2)
                else:
                    nxt = ("0", 2)
            elif st[pos + 1] in ("T", "D"):
                nxt = ("T", 2)
            else:
                nxt = ("T", 1)

        elif ch == "V":
            nxt = ("F", 2) if st[pos + 1] == "V" else ("F", 1)

        elif ch == "W":
            if st[pos:pos + 2] == "WR":
                nxt = ("R", 2)
            elif pos == first and (st[pos + 1] in _VOWELS or st[pos:pos + 2] == "WH"):
                nxt = ("A", 1)
            # After an initial SCH a W adds nothing, even before ICZ/ITZ.
            elif st[pos:pos + 4] in ("WICZ", "WITZ") and st[first:first + 3] != "SCH":
                nxt = ("TS", 4)

        elif ch == "X":
            if (pos == last and (st[pos - 3:pos] in ("IAU", "EAU")
                                 or st[pos - 2:pos] in ("AU", "OU"))):
                add = None
            else:
                add = "KS"
            nxt = (add, 2 if st[pos + 1] in ("C", "X") else 1)

        elif ch == "Z":
            nxt = ("J" if st[pos + 1] == "H" else "S", 2 if st[pos + 1] == "Z" else 1)

        if nxt[0]:
            code += nxt[0]
        pos += nxt[1]

    return code
