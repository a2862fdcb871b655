"""Train the neural ranker and correct queries end to end.

The ranker is a five-layer fully connected network (batch normalization,
ReLU, dropout, sigmoid output) over seven feature groups per candidate:
log-scaled word/asset/download counts, normalized edit distance, locale and
application one-hots, and phonetic similarity.  Gold candidates get label 1,
every other suggester candidate label 0; ranking emerges from the scores.
The counts are scaled by the maxima of the training dictionary, which the
model keeps in its feature schema.
"""

import random

from queryspell import (ArtifactSet, BoostConfig, BoostRule, FeatureSchema,
                        FrequencyDictionary, RequestContext, build_delete_index,
                        build_training_set, correct_query, evaluate, EvalRecord,
                        inject_errors, rank, suggest, train)
from queryspell.ranker import Hyperparams

VOCAB = [("museum", 9000), ("mused", 12), ("medal", 450), ("icon", 3200),
         ("creative", 8200), ("cloud", 7400), ("photoshop", 8800),
         ("express", 5100), ("park", 4100), ("glacier", 380),
         ("national", 2900), ("fresh", 2300), ("market", 1700),
         ("poster", 1400), ("banner", 1500), ("texture", 1250),
         ("abstract", 1800), ("wedding", 980), ("summer", 1050),
         ("beach", 1150), ("mountain", 760), ("forest", 690)]

dictionary = FrequencyDictionary("en")
for term, count in VOCAB:
    dictionary.add(term, word_count=count, asset_frequency=count * 2,
                   download_count=count // 3)
dictionary.freeze()
index = build_delete_index(dictionary)

# Corrupt vocabulary words to get (misspelled, correct) training rows, then
# expand each into labeled candidate rows of one feature matrix.
rng = random.Random(3)
terms = [t for t, _ in VOCAB]
rows = []
for i in range(1200):
    query = " ".join(rng.choices(terms, k=rng.randint(1, 2)))
    errored = inject_errors(query, rng, 0.7)
    corrupted = errored.corrupted
    if i % 3 == 0:  # sometimes stack a second error so distance-2 cases exist
        corrupted = inject_errors(corrupted, rng, 0.7).corrupted
    rows.append((corrupted, errored.original))

context = RequestContext("en", "stock")
X, labels, schema = build_training_set(rows, dictionary, index, context, FeatureSchema())
positives = int(labels.sum())
print(f"{len(labels)} training examples ({positives} gold, "
      f"{len(labels) - positives} other candidates); count maxima "
      f"{schema.count_maxima}")

model = train(X, labels, schema, Hyperparams(epochs=12, seed=1))

# Score one candidate list by hand to see what the ranker does.
candidates = suggest(index, dictionary, "muzeem")
for cand in rank(model, candidates, context, "muzeem", BoostConfig()):
    print(f"  muzeem -> {cand.term}: score {cand.score:.3f}")

# The full pipeline: MWE rewrite (none here), per-token check, suggest,
# rank, boost, threshold.
artifacts = ArtifactSet(dictionary, index, model)
for query in ["muzeem icon", "glaicer park", "frsh poster", "museum"]:
    result = correct_query(query, context, artifacts)
    marks = [f"{t.input}->{t.output}" for t in result.tokens if t.changed]
    print(f"{query!r} => {result.corrected!r}  "
          f"({result.elapsed * 1000:.2f} ms; changes: {marks or 'none'})")

# Application-specific boosting: multiply candidate scores for priority
# terms (think product names) before the threshold decision.
boosted = ArtifactSet(dictionary, index, model,
                      boost=BoostConfig({"stock": [BoostRule("photoshop", 3.0)]}))
print("\nwith a photoshop boost:",
      correct_query("photoshp", context, boosted).corrected)

# Evaluate exact-match accuracy / precision / recall on a small batch.
records = []
for _ in range(400):
    errored = inject_errors(rng.choice(terms), rng, 1.0)
    predicted = correct_query(errored.corrupted, context, artifacts).corrected
    records.append(EvalRecord(errored.corrupted, errored.original, predicted))
report = evaluate(records)
print(f"\n400 corrupted single-word queries: accuracy={report.accuracy:.3f} "
      f"precision={report.precision:.3f} recall={report.recall:.3f}")
