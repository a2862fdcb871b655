"""Seeded inputs for every workload, and the shared 100k-term artifacts.

Vocabularies come from ``tests/synthetic_corpus.py``.  The 100k-term
artifact directory (dictionary, stats, ranker model) is built once per
checkout from fixed seeds by the program's own ``cli_main`` commands and
cached under ``.qsbench_work/cache``; everything a run sends to the program
(queries, typos, MWE and boost rules, refresh logs, training queries) is
drawn from the run's ``--seed``.

Typos are made here, not with ``queryspell.datagen``, so that a change to
the program's error generator cannot change the benchmark's inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import shutil
import subprocess
import sys
import unicodedata
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from common import use_repo_sources

    use_repo_sources()

from synthetic_corpus import make_vocabulary  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".qsbench_work"

ARTIFACT_TERMS = 100_000
VOCAB_SEED = 5           # fixed: the cached artifacts do not depend on --seed
STATS_SEED = 6
MODEL_TRAIN_QUERIES = 4000
MODEL_EPOCHS = 4
TAU = 0.5


def cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``speller`` command in-process; return (exit code, stdout)."""
    from queryspell.cli import cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue()


def write_sources(vocab, seed: int, directory: Path) -> tuple[Path, Path]:
    """Lexicon and stats TSVs for ``build-index``; asset and download counts
    follow ``synthetic_corpus.build_dictionary``."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    lexicon = directory / "lexicon.tsv"
    stats = directory / "stats.tsv"
    lex_lines, stat_lines = [], []
    for word, count in vocab:
        lex_lines.append(f"{word}\t{count}\n")
        asset = int(count * (0.5 + rng.random()))
        downloads = int(count * rng.random() * 0.3)
        stat_lines.append(f"{word}\t{asset}\t{downloads}\n")
    lexicon.write_text("".join(lex_lines), encoding="utf-8")
    stats.write_text("".join(stat_lines), encoding="utf-8")
    return lexicon, stats


def read_lexicon(path: Path) -> dict[str, int]:
    """term -> word_count from an artifact ``dictionary.tsv``."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        term, count = line.split("\t")
        out[term] = int(count)
    return out


class WordSampler:
    """Draws 1-3 word queries, each word in proportion to its count."""

    def __init__(self, vocab):
        self.words = [w for w, _ in vocab]
        self.cum = list(itertools.accumulate(c for _, c in vocab))

    def query(self, rng: random.Random, length_weights=(35, 45, 20)) -> list[str]:
        k = rng.choices((1, 2, 3), weights=length_weights)[0]
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def misspell(word: str, rng: random.Random, alphabet: str) -> str:
    """One random edit: delete, insert, substitute or adjacent transpose.
    The result may still be a dictionary word; the caller rejects those."""
    kind = rng.randrange(4)
    i = rng.randrange(len(word))
    if kind == 0 and len(word) > 2:
        word = word[:i] + word[i + 1:]
    elif kind == 1:
        word = word[:i] + rng.choice(alphabet) + word[i:]
    elif kind == 2:
        word = word[:i] + rng.choice(alphabet) + word[i + 1:]
    elif i + 1 < len(word):
        word = word[:i] + word[i + 1] + word[i] + word[i + 2:]
    else:
        word = word + rng.choice(alphabet)
    return unicodedata.normalize("NFC", word)


class TypoMaker:
    """Misspelled tokens, ``edits`` random edits (one by default) from a
    dictionary word, that are not dictionary words themselves and, when
    ``unique``, never repeat."""

    def __init__(self, vocab_set, rng: random.Random, unique: bool = True):
        self.vocab = vocab_set
        self.rng = rng
        self.unique = unique
        self.used: set[str] = set()
        self.alphabet = "abcdefghijklmnopqrstuvwxyz"

    def __call__(self, word: str, edits: int = 1) -> str | None:
        for _ in range(20):
            bad = word
            for _ in range(edits):
                bad = misspell(bad, self.rng, self.alphabet)
            if bad in self.vocab or (self.unique and bad in self.used):
                continue
            self.used.add(bad)
            return bad
        return None


def trace_path(workload: str, seed: int) -> Path:
    """Where a traced run keeps its spans."""
    return WORK / "traces" / f"{workload}-{seed}.tsv"


def artifact_dir() -> Path:
    """The cached 100k-term artifact directory.  A missing cache is built in
    a child process, so the run that measures starts from a fresh heap."""
    target = WORK / "cache" / f"artifacts-{ARTIFACT_TERMS}"
    if not (target / "model.json").exists():
        subprocess.run([sys.executable, __file__, str(WORK), str(ARTIFACT_TERMS),
                        str(MODEL_TRAIN_QUERIES)], check=True)
    return target


def build_artifacts(target: Path) -> None:
    build = target.parent / f"build-{os.getpid()}"
    shutil.rmtree(build, ignore_errors=True)
    vocab = make_vocabulary(ARTIFACT_TERMS, VOCAB_SEED)
    lexicon, stats = write_sources(vocab, STATS_SEED, build / "src")
    arts = build / "artifacts"
    rng = random.Random(VOCAB_SEED + 1)
    sampler = WordSampler(vocab)
    queries = build / "queries.txt"
    queries.write_text("".join(" ".join(sampler.query(rng)) + "\n"
                               for _ in range(MODEL_TRAIN_QUERIES)), encoding="utf-8")
    data = build / "train.tsv"
    for argv in (["build-index", "--lexicon", lexicon, "--stats", stats, "--out-dir", arts],
                 ["gen-data", "--in", queries, "--out", data, "--seed", 3,
                  "--error-prob", 0.6],
                 ["train", "--data", data, "--dict", arts, "--out",
                  arts / "model.json", "--seed", 2, "--epochs", MODEL_EPOCHS,
                  "--batch-size", 256]):
        code, _ = cli(argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} failed while building the artifact cache")
    shutil.rmtree(target, ignore_errors=True)
    os.replace(arts, target)
    shutil.rmtree(build, ignore_errors=True)


if __name__ == "__main__":
    # python3 qsbench/corpus.py WORK_DIR TERMS TRAIN_QUERIES
    WORK = Path(sys.argv[1])
    ARTIFACT_TERMS, MODEL_TRAIN_QUERIES = int(sys.argv[2]), int(sys.argv[3])
    build_artifacts(WORK / "cache" / f"artifacts-{ARTIFACT_TERMS}")
