"""Run the HTTP service and hot-swap artifacts from a query log.

The service holds an immutable artifact snapshot (dictionary, index, model,
MWE map, boost config).  Requests read whichever snapshot is current; a
refresh folds recent query-log frequencies in by making new entries only for
the terms the log touches and merging only the new terms' delete variants
into the index, sharing everything else with the current snapshot, and then
swaps atomically, so new vocabulary enters the speller without a restart.
"""

import json
import pathlib
import random
import tempfile
import threading
import urllib.request

from queryspell import (FeatureSchema, FrequencyDictionary, RequestContext,
                        build_delete_index, build_training_set, inject_errors,
                        save_model, train, write_dictionary)
from queryspell.ranker import Hyperparams
from queryspell.service import ServiceConfig, SpellerServer, SpellerService

# --- build a tiny artifact directory -----------------------------------------
workdir = pathlib.Path(tempfile.mkdtemp(prefix="speller_demo_"))
dictionary = FrequencyDictionary("en")
for term, count in [("creative", 8200), ("cloud", 7400), ("photoshop", 8800),
                    ("express", 5100), ("museum", 9000), ("icon", 3200),
                    ("medal", 450), ("park", 4100), ("poster", 1400),
                    ("mused", 12), ("dark", 800), ("part", 1200),
                    ("cart", 900), ("clout", 30), ("iron", 700),
                    ("metal", 600), ("pose", 350), ("post", 2100)]:
    dictionary.add(term, word_count=count, asset_frequency=count * 2,
                   download_count=count // 3)
dictionary.freeze()
index = build_delete_index(dictionary)

rng = random.Random(2)
terms = list(dictionary.terms())
rows = []
for i in range(900):
    errored = inject_errors(rng.choice(terms), rng, 1.0)
    corrupted = errored.corrupted
    if i % 3 == 0:
        corrupted = inject_errors(corrupted, rng, 1.0).corrupted
    rows.append((corrupted, errored.original))
context = RequestContext("en", "stock")
model = train(*build_training_set(rows, dictionary, index, context, FeatureSchema()),
              Hyperparams(epochs=8, seed=0))

write_dictionary(dictionary, workdir / "dictionary.tsv", workdir / "stats.tsv")
save_model(model, workdir / "model.json")
(workdir / "mwe.tsv").write_text(
    "creativecloud\tcreative cloud\nphoto shop express\tphotoshop express\n",
    encoding="utf-8")
(workdir / "boost.tsv").write_text("stock\tphotoshop\t2.0\n", encoding="utf-8")

# --- start the service --------------------------------------------------------
log_path = workdir / "queries.tsv"
config = ServiceConfig(artifact_dir=workdir, listen="127.0.0.1:0",
                       refresh_log=log_path, min_new_term_count=100)
service = SpellerService(config)
server = SpellerServer(service)
threading.Thread(target=server.serve_forever, daemon=True).start()
base = f"http://127.0.0.1:{server.server_address[1]}"
print(f"service listening on {base}")


def post_correct(query: str) -> dict:
    req = urllib.request.Request(base + "/v1/correct",
                                 data=json.dumps({"query": query}).encode(),
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


for query in ["creativecloud", "photo shop express", "muzeem icon", "photoshp"]:
    doc = post_correct(query)
    print(f"POST /v1/correct {query!r} -> {doc['corrected']!r} "
          f"({doc['latency_ms']:.2f} ms)")

with urllib.request.urlopen(base + "/v1/health", timeout=10) as resp:
    health = json.loads(resp.read())
print("health:", health["artifacts"]["dictionary"],
      "snapshot", health["snapshot_timestamp"])

# --- behavioral refresh: a new word shows up in the logs ----------------------
print("\n'blockchain' is not in the dictionary:",
      post_correct("blockchain")["corrected"])
log_path.write_text("blockchain\t1500\nmuseum poster\t40\n", encoding="utf-8")
service.refresh()
print("after refresh it is served as correct:",
      post_correct("blockchain")["corrected"],
      "| tokens unchanged:",
      [t["changed"] for t in post_correct("blockchain")["tokens"]])

with urllib.request.urlopen(base + "/v1/health", timeout=10) as resp:
    print("snapshot advanced:", json.loads(resp.read())["snapshot_timestamp"])

server.shutdown()
server.server_close()
print(f"\nartifacts left in {workdir} (inspect or delete at will)")
