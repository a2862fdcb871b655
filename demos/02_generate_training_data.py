"""Generate artificial spelling errors for training data.

Six error classes, weighted 7:5:4:2:7:2, corrupt correctly spelled queries:
swapped letters, vowel add/remove, letter add/remove, keyboard-neighbor
substitution, accent-class swaps, and double-letter add/remove.  Every
output query carries at least one error; generation is reproducible from
the seed.
"""

import random
import tempfile
from collections import Counter
from pathlib import Path

from queryspell import ERROR_WEIGHTS, ErrorType, apply_error, inject_errors
from queryspell.datagen import write_dataset

rng = random.Random(7)

print("single error classes on a few tokens:")
for token, kind in [("change", ErrorType.LETTER_ORDER),
                    ("malleable", ErrorType.VOWEL_ADD_REMOVE),
                    ("fresh", ErrorType.LETTER_ADD_REMOVE),
                    ("park", ErrorType.LETTER_CHANGE),
                    ("français", ErrorType.ACCENT_FOLD),
                    ("happiness", ErrorType.DOUBLE_ADD_REMOVE)]:
    outputs = {apply_error(token, kind, rng) for _ in range(6)}
    print(f"  {kind.value:18s} {token!r} -> {sorted(outputs)}")

print("\nwhole queries (some tokens corrupted, some left alone):")
for query in ["medal icon", "burgundy background", "glacier national park and hike"]:
    errored = inject_errors(query, rng, per_token_error_prob=0.5)
    kinds = [k.value for _, k in errored.applied]
    print(f"  {query!r} -> {errored.corrupted_tokens} {kinds}")

# The weighting shows up empirically once you corrupt enough tokens.
counts = Counter()
n = 20000
for _ in range(n):
    errored = inject_errors("wörter", rng, 1.0)
    counts[errored.applied[0][1]] += 1
total = sum(ERROR_WEIGHTS.values())
print(f"\nempirical shares over {n} corruptions (target in parentheses):")
for kind, weight in ERROR_WEIGHTS.items():
    print(f"  {kind.value:18s} {counts[kind] / n:.3f}  ({weight}/{total} = {weight / total:.3f})")

# Datasets are written as TSV: corrupted, original, applied error classes.
queries = ["medal icon", "creative cloud", "atlantic mackerel", "museum"]
rows = [inject_errors(q, rng, 0.5) for q in queries]
out = Path(tempfile.gettempdir()) / "speller_train.tsv"
write_dataset(out, rows)
print(f"\nwrote {out}:")
print(out.read_text(encoding="utf-8").rstrip())
