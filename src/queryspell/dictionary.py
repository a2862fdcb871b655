"""Frequency dictionary and its symmetric-delete permutation index.

The dictionary is the universe of "correct" terms, each carrying behavioral
statistics (query occurrences, associated assets, downloads).  The delete
index maps every string reachable from a term's prefix by up to two
character deletions back to the originating terms, so that runtime
candidate lookup only has to generate deletes of the input token instead of
the full insert/replace/transpose neighborhood.
"""

from __future__ import annotations

import json
import os
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigError, LoadError

# The candidate set: terms within two edits, retrieved through the deletes
# of their first seven characters.  Fixed, so training, serving and every
# artifact agree on it.
MAX_EDIT_DISTANCE = 2
PREFIX_LENGTH = 7
DEFAULT_LOCALE = "en"
MANIFEST_FILE = "manifest.json"


def normalize_term(text: str) -> str:
    """NFC-normalize and lowercase. Applied to every term and lookup token."""
    return unicodedata.normalize("NFC", text).lower()


@dataclass(frozen=True, slots=True)
class DictionaryEntry:
    """Per-term statistics: occurrences in query logs, associated assets,
    downloads over first-page results.  Immutable, so a dictionary hands
    out its own entries and shares them with the dictionaries derived from
    it."""

    term: str
    word_count: int = 0
    asset_frequency: int = 0
    download_count: int = 0

    def __post_init__(self):
        if not self.term:
            raise ValueError("dictionary term must be non-empty")
        if any(ch.isspace() for ch in self.term):
            raise ValueError(f"dictionary term contains whitespace: {self.term!r}")
        if self.term != normalize_term(self.term):
            raise ValueError(f"dictionary term is not NFC-lowercase: {self.term!r}")
        _check_counts(self.word_count, self.asset_frequency, self.download_count)


def _check_counts(word_count: int, asset_frequency: int, download_count: int) -> None:
    if word_count < 0 or asset_frequency < 0 or download_count < 0:
        raise ValueError("word_count, asset_frequency and download_count must be >= 0, "
                         f"got {word_count}, {asset_frequency}, {download_count}")


class FrequencyDictionary:
    """Map of term -> DictionaryEntry.

    Built single-threaded, then frozen; a frozen instance is safe for
    concurrent reads.  Updates happen by building a new instance
    (``with_word_counts``) and swapping it in wholesale.
    """

    def __init__(self, locale: str = DEFAULT_LOCALE):
        self.locale = locale
        self._entries: dict[str, DictionaryEntry] = {}
        self._frozen = False

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def terms(self) -> Iterable[str]:
        return self._entries.keys()

    def entries(self) -> Iterable[DictionaryEntry]:
        return self._entries.values()

    def freeze(self) -> "FrequencyDictionary":
        self._frozen = True
        return self

    def add(self, term: str, word_count: int = 0, asset_frequency: int = 0,
            download_count: int = 0) -> DictionaryEntry:
        """Insert a term or, on collision, replace its entry with one whose
        counters are the sums (multiple sources are frequency evidence, not
        authorities)."""
        if self._frozen:
            raise ConfigError("dictionary is frozen; rebuild instead of mutating")
        term = normalize_term(term)
        old = self._entries.get(term)
        if old is not None:
            _check_counts(word_count, asset_frequency, download_count)
            word_count += old.word_count
            asset_frequency += old.asset_frequency
            download_count += old.download_count
        entry = DictionaryEntry(term, word_count, asset_frequency, download_count)
        self._entries[term] = entry
        return entry

    def get(self, term: str) -> DictionaryEntry | None:
        return self._entries.get(normalize_term(term))

    def contains(self, token: str) -> bool:
        """True iff the NFC-lowercased token is a stored term."""
        return normalize_term(token) in self._entries

    def with_word_counts(self, added: dict[str, int]) -> "FrequencyDictionary":
        """A frozen dictionary in which each term of ``added`` has its count
        summed into ``word_count``, a term not yet here entering with that
        count.  Only those terms get new entries; every other entry is
        shared with this dictionary, which is left as it was; entries are
        immutable, so sharing them is safe."""
        if not self._frozen:
            raise ConfigError("only a frozen dictionary can share its entries")
        dup = FrequencyDictionary(self.locale)
        dup._entries = dict(self._entries)
        for term, count in added.items():
            term = normalize_term(term)
            old = dup._entries.get(term)
            entry = (DictionaryEntry(term, count) if old is None else
                     DictionaryEntry(term, old.word_count + count,
                                     old.asset_frequency, old.download_count))
            dup._entries[term] = entry
        return dup.freeze()


def generate_deletes(term: str, max_edit_distance: int) -> set[str]:
    """Every string reachable from term by 1..max_edit_distance single
    character deletions.  The empty string is permitted; term itself is not
    in the result.

    >>> sorted(generate_deletes("abc", 1))
    ['ab', 'ac', 'bc']
    """
    if not term:
        raise ValueError("term must be non-empty")
    if not 0 <= max_edit_distance <= 2:
        raise ValueError("max_edit_distance must be in 0..2")
    out: set[str] = set()
    frontier = {term}
    for _ in range(max_edit_distance):
        nxt: set[str] = set()
        for word in frontier:
            for i in range(len(word)):
                nxt.add(word[:i] + word[i + 1:])
        nxt -= out
        out |= nxt
        frontier = nxt
    return out


def _index_keys(term: str, depth: int) -> set[str]:
    """The keys a term is filed under in a delete index, and a token looked
    up in it: the string itself, its first ``PREFIX_LENGTH`` characters and
    every deletion variant of that prefix down to ``depth`` deletions.

    >>> sorted(_index_keys("butterfly", 1))
    ['btterf', 'buterf', 'buttef', 'butter', 'butterf', 'butterfly', 'buttrf', 'utterf']
    """
    prefix = term[:PREFIX_LENGTH]
    keys = generate_deletes(prefix, depth) if prefix else set()
    keys.add(term)
    keys.add(prefix)
    return keys


class DeleteIndex:
    """Immutable symmetric-delete index.

    Each term is filed under its ``_index_keys``; values reference terms by
    id into ``terms``, each bucket in ascending id order.  Ids follow the
    lexicographic term order only in a fresh ``build_delete_index``: terms
    added by ``with_terms`` are appended.  The buckets live in the build's
    map, shared by every index derived from it, and a small map of the
    merged buckets of each key that refreshes touched, which ``bucket``
    reads first; a refresh copies only that small map.  Candidate retrieval
    looks up the same keys of the input token and unions the buckets;
    distance verification happens downstream on full strings.
    """

    def __init__(self, terms: tuple[str, ...], base: dict[str, tuple[int, ...]],
                 touched: dict[str, tuple[int, ...]] | None = None,
                 term_lengths: tuple[int, ...] | None = None):
        self.terms = terms
        self.term_lengths = (tuple(map(len, terms)) if term_lengths is None
                             else term_lengths)
        self._base = base
        self._touched = touched or {}
        self._keys = len(base) + sum(key not in base for key in self._touched)

    def __len__(self) -> int:
        """The number of distinct keys."""
        return self._keys

    def bucket(self, key: str) -> tuple[int, ...]:
        """The ids filed under ``key``, ascending; empty for a key never
        filed."""
        return self._touched.get(key) or self._base.get(key, ())

    def candidate_ids(self, token: str, depth: int) -> set[int]:
        """Term ids whose stored variants intersect the token's variants.

        A complete superset of every term within ``depth`` true
        Damerau-Levenshtein edits of the token, for ``depth`` up to
        ``MAX_EDIT_DISTANCE``.
        """
        found: set[int] = set()
        touched, base = self._touched.get, self._base.get
        for key in _index_keys(token, depth):
            bucket = touched(key) or base(key)  # ``self.bucket``, inlined
            if bucket:
                found.update(bucket)
        return found

    def with_terms(self, new_terms: Iterable[str]) -> "DeleteIndex":
        """A new index that also holds ``new_terms``, none of which may be
        here already.  They take the ids ``len(self.terms)`` onwards in sorted
        order, so every bucket stays in ascending id order.  Only the small
        map of the keys that refreshes touched is copied, with the merged
        buckets of the new terms' keys; the build's map is shared, and this
        index is left as it was."""
        added = sorted(new_terms)
        touched = dict(self._touched)
        for tid, term in enumerate(added, start=len(self.terms)):
            for key in _index_keys(term, MAX_EDIT_DISTANCE):
                touched[key] = (touched.get(key) or self.bucket(key)) + (tid,)
        return DeleteIndex(self.terms + tuple(added), self._base, touched,
                           self.term_lengths + tuple(map(len, added)))


def build_delete_index(dictionary: FrequencyDictionary) -> DeleteIndex:
    """Precompute the delete-variant map for every dictionary term.

    One pass: terms take ids in lexicographic order and each is appended to
    the bucket of every key it is filed under, so buckets come out
    ascending with no sort.  Deterministic: identical inputs produce
    identical buckets.  ``DeleteIndex.with_terms`` extends such an index
    without this full rebuild, copying only the keys that refreshes touched.
    """
    if len(dictionary) == 0:
        raise ConfigError("cannot build a delete index over an empty dictionary")
    terms = tuple(sorted(dictionary.terms()))
    variants: dict[str, tuple[int, ...]] = {}
    get = variants.get
    for tid, term in enumerate(terms):
        for key in _index_keys(term, MAX_EDIT_DISTANCE):
            variants[key] = get(key, ()) + (tid,)
    return DeleteIndex(terms, variants)


def parse_count(raw: str, path, line_no: int, what: str) -> int:
    """A non-negative integer field of a data file, or a LoadError naming
    the file and line."""
    try:
        value = int(raw)
    except ValueError:
        raise LoadError(f"{what} is not an integer: {raw!r}", path, line_no) from None
    if value < 0:
        raise LoadError(f"{what} is negative: {value}", path, line_no)
    return value


def iter_tsv(path, *columns: str, optional: int = 0) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, fields) for the non-comment, non-blank lines of a TSV
    file laid out as ``columns``, of which the last ``optional`` may be
    left out.  Any other field count is a LoadError naming the line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(str(exc), path) from exc
    need = len(columns) - optional
    layout = "<TAB>".join(columns[:need]) + "".join(f"[<TAB>{c}]" for c in columns[need:])
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if not need <= len(fields) <= len(columns):
            raise LoadError(f"expected '{layout}', got {len(fields)} fields",
                            path, line_no)
        yield line_no, fields


def _parse_term(raw: str, path, line_no: int) -> str:
    term = normalize_term(raw.strip())
    if not term or any(ch.isspace() for ch in term):
        raise LoadError(f"bad term field: {raw!r}", path, line_no)
    return term


def _load_term_counts(path, sums: dict[str, list[int]]) -> None:
    """Lexicon / custom-vocab TSV: ``term<TAB>word_count``."""
    for line_no, (term, count) in iter_tsv(path, "term", "word_count"):
        counts = sums.setdefault(_parse_term(term, path, line_no), [0, 0, 0])
        counts[0] += parse_count(count, path, line_no, "word_count")


def _load_term_stats(path, sums: dict[str, list[int]]) -> None:
    """Stats TSV: ``term<TAB>asset_frequency<TAB>download_count``."""
    for line_no, (term, assets, downloads) in iter_tsv(path, "term", "asset_frequency",
                                                        "download_count"):
        counts = sums.setdefault(_parse_term(term, path, line_no), [0, 0, 0])
        counts[1] += parse_count(assets, path, line_no, "asset_frequency")
        counts[2] += parse_count(downloads, path, line_no, "download_count")


def load_dictionary(lexicon_file, custom_vocab_files: Iterable = (),
                    stats_file=None, locale: str = DEFAULT_LOCALE) -> FrequencyDictionary:
    """Build the frequency dictionary from the union of all sources.

    Terms are NFC-lowercased; counters are summed when the same term appears
    in several sources.  Returns a frozen dictionary.
    """
    sums: dict[str, list[int]] = {}
    for path in (lexicon_file, *custom_vocab_files):
        _load_term_counts(path, sums)
    if stats_file is not None:
        _load_term_stats(stats_file, sums)
    if not sums:
        raise ConfigError("dictionary sources contained no terms")
    # One add per term: entries are immutable, so each add makes a new one.
    dictionary = FrequencyDictionary(locale)
    for term, (words, assets, downloads) in sums.items():
        dictionary.add(term, words, assets, downloads)
    return dictionary.freeze()


def write_atomic(path, text: str) -> None:
    """Write through a temp file in the same directory and ``os.replace``,
    so a reader sees the old file or the new one, never a partial one.  On
    failure the temp file is removed and the old file is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dictionary(dictionary: FrequencyDictionary, lexicon_path, stats_path) -> None:
    """Write the dictionary back out in the canonical two-file TSV form.

    Output is byte-deterministic: terms sorted, stats rows emitted only for
    terms with nonzero asset/download counters.  Each file is replaced
    atomically.
    """
    entries = [dictionary.get(term) for term in sorted(dictionary.terms())]
    write_atomic(lexicon_path,
                 "".join(f"{e.term}\t{e.word_count}\n" for e in entries))
    write_atomic(stats_path,
                 "".join(f"{e.term}\t{e.asset_frequency}\t{e.download_count}\n"
                         for e in entries if e.asset_frequency or e.download_count))


def _read_manifest(directory) -> dict:
    """The validated ``manifest.json`` of an artifact directory, or {} when
    the directory has none.  It must record the fixed index parameters."""
    path = Path(directory) / MANIFEST_FILE
    if not path.exists():
        return {}
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise LoadError(f"unreadable manifest: {exc}", path) from exc
    if not isinstance(manifest, dict):
        raise LoadError("manifest is not a JSON object", path)
    checks = {"locale": lambda v: isinstance(v, str) and v != "",
              "prefix_length": lambda v: type(v) is int and v == PREFIX_LENGTH,
              "max_edit_distance": lambda v: type(v) is int and v == MAX_EDIT_DISTANCE}
    for key, valid in checks.items():
        if not valid(manifest.get(key)):
            raise LoadError(f"bad {key} in manifest: {manifest.get(key)!r}; "
                            "rebuild the directory with `speller build-index`", path)
    return manifest


def load_dictionary_dir(directory) -> tuple[FrequencyDictionary, DeleteIndex, dict]:
    """Dictionary, delete index and manifest of an artifact directory.

    The dictionary locale comes from the manifest that
    ``write_dictionary_dir`` left there; only a directory without a manifest
    falls back to ``DEFAULT_LOCALE``.  A manifest that records another
    number of terms than ``dictionary.tsv`` holds belongs to another
    dictionary, and is a LoadError.
    """
    base = Path(directory)
    lexicon = base / "dictionary.tsv"
    if not lexicon.exists():
        raise ConfigError(f"missing dictionary artifact: {lexicon}")
    manifest = _read_manifest(base)
    stats = base / "stats.tsv"
    dictionary = load_dictionary(lexicon, stats_file=stats if stats.exists() else None,
                                 locale=manifest.get("locale", DEFAULT_LOCALE))
    terms = manifest.get("terms", len(dictionary))
    if terms != len(dictionary):
        raise LoadError(f"manifest records {terms!r} terms, but {lexicon.name} holds "
                        f"{len(dictionary)}; rebuild the directory with "
                        "`speller build-index`", base / MANIFEST_FILE)
    return dictionary, build_delete_index(dictionary), manifest


def write_dictionary_dir(directory, dictionary: FrequencyDictionary,
                         index: DeleteIndex) -> None:
    """Write ``dictionary.tsv``, ``stats.tsv`` and the ``manifest.json`` that
    records the fixed index parameters, each file replaced atomically."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    write_dictionary(dictionary, base / "dictionary.tsv", base / "stats.tsv")
    manifest = {
        "terms": len(dictionary),
        "variants": len(index),
        "locale": dictionary.locale,
        "prefix_length": PREFIX_LENGTH,
        "max_edit_distance": MAX_EDIT_DISTANCE,
    }
    write_atomic(base / MANIFEST_FILE, json.dumps(manifest, indent=1, sort_keys=True))
