"""Walk through the core suggester machinery.

A frequency dictionary holds the "correct" vocabulary with behavioral
statistics.  At build time we precompute a symmetric-delete index: every
string reachable from a term's prefix by deleting up to two characters maps
back to the term.  At lookup time we only generate deletes of the *input*
token; intersecting variants cover insertions, substitutions and
transpositions implicitly, and full-string Damerau-Levenshtein verification
makes the result exact.
"""

from queryspell import (FrequencyDictionary, build_delete_index,
                        damerau_levenshtein, generate_deletes, suggest)

# A miniature vocabulary with word counts (how often each term is queried).
dictionary = FrequencyDictionary("en")
for term, count in [("cat", 2600), ("cart", 900), ("chat", 1100),
                    ("coat", 480), ("cut", 1900), ("museum", 9000),
                    ("market", 1700), ("medal", 450), ("park", 4100)]:
    dictionary.add(term, word_count=count)
dictionary.freeze()

print("delete variants of 'cat' (1 deletion):", sorted(generate_deletes("cat", 1)))
print("delete variants of 'cat' (2 deletions):", sorted(generate_deletes("cat", 2)))

index = build_delete_index(dictionary)
print(f"\nindex: {len(index)} variant keys for {len(dictionary)} terms")

# Edit distance with adjacent transpositions: the most common typo (swapped
# letters) costs 1, same as a single insert/delete/substitute.
for a, b in [("change", "chnage"), ("fresh", "frash"), ("muzeem", "museum")]:
    print(f"distance {a!r} -> {b!r}: {damerau_levenshtein(a, b)}")

# "caat" has four terms at distance 1, so distance-2 terms like "cut" are
# never even considered: distance-1 hits win outright when there are >= 3.
print("\nsuggestions for 'caat':")
for cand in suggest(index, dictionary, "caat"):
    print(f"  {cand.term:8s} distance={cand.edit_distance} "
          f"word_count={cand.entry.word_count}")

# "muzeem" has nothing at distance 1, so the search escalates to distance 2.
print("suggestions for 'muzeem':")
for cand in suggest(index, dictionary, "muzeem"):
    print(f"  {cand.term:8s} distance={cand.edit_distance}")

# Correctly spelled tokens short-circuit: no candidates at all.
print("suggestions for 'museum':", suggest(index, dictionary, "museum"))

# Tokens with digits or punctuation are still correctable.
print("suggestions for '0ark':", [c.term for c in suggest(index, dictionary, "0ark")])
print("suggestions for ',edal':", [c.term for c in suggest(index, dictionary, ",edal")])
