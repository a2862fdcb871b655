import random
from pathlib import Path

import pytest

from queryspell import (ArtifactSet, ErrorType, FeatureSchema, FrequencyDictionary,
                        MweMap, RequestContext, apply_error, build_delete_index,
                        build_training_set, save_model, train, write_dictionary)
from queryspell.ranker import Hyperparams

# Word counts loosely Zipfian so count features carry signal.
TOY_TERMS = [
    ("museum", 9000), ("mused", 12), ("medal", 450), ("icon", 3200),
    ("creative", 8200), ("cloud", 7400), ("photoshop", 8800), ("express", 5100),
    ("cat", 2600), ("cart", 900), ("chat", 1100), ("coat", 480), ("cut", 1900),
    ("park", 4100), ("glacier", 380), ("national", 2900), ("fresh", 2300),
    ("flowers", 2100), ("background", 6100), ("burgundy", 240),
    ("atlantic", 520), ("mackerel", 60), ("market", 1700), ("hike", 310),
    ("and", 9900), ("banner", 1500), ("poster", 1400), ("texture", 1250),
    ("vector", 1350), ("template", 1600), ("logo", 2500), ("abstract", 1800),
    ("wedding", 980), ("summer", 1050), ("winter", 890), ("beach", 1150),
    ("mountain", 760), ("forest", 690), ("city", 1300), ("night", 1020),
]


@pytest.fixture(scope="session")
def toy_dictionary() -> FrequencyDictionary:
    d = FrequencyDictionary("en")
    for term, wc in TOY_TERMS:
        d.add(term, word_count=wc, asset_frequency=wc * 3, download_count=wc // 2)
    return d.freeze()


@pytest.fixture(scope="session")
def toy_index(toy_dictionary):
    return build_delete_index(toy_dictionary)


@pytest.fixture(scope="session")
def schema() -> FeatureSchema:
    return FeatureSchema()


@pytest.fixture(scope="session")
def context() -> RequestContext:
    return RequestContext("en", "stock")


@pytest.fixture(scope="session")
def toy_model(toy_dictionary, toy_index, schema, context):
    """A small ranker trained on corruptions of the toy vocabulary; a third
    of the tokens carry two edits so distance-2 corrections are learnable."""
    rng = random.Random(11)
    terms = [t for t, _ in TOY_TERMS]
    kinds = (ErrorType.LETTER_ORDER, ErrorType.LETTER_CHANGE,
             ErrorType.LETTER_ADD_REMOVE, ErrorType.DOUBLE_ADD_REMOVE,
             ErrorType.VOWEL_ADD_REMOVE)
    rows = []
    for i in range(900):
        term = rng.choice(terms)
        bad = apply_error(term, rng.choice(kinds), rng)
        if i % 3 == 0:
            bad = apply_error(bad, rng.choice(kinds), rng)
        rows.append((bad, term))
    return train(*build_training_set(rows, toy_dictionary, toy_index, context, schema),
                 Hyperparams(epochs=10, seed=5))


@pytest.fixture(scope="session")
def toy_mwe() -> MweMap:
    return MweMap({
        "creativecloud": "creative cloud",
        "photo shop express": "photoshop express",
        "photo shop": "photoshop",
    })


@pytest.fixture(scope="session")
def toy_artifacts(toy_dictionary, toy_index, toy_model, toy_mwe) -> ArtifactSet:
    return ArtifactSet(toy_dictionary, toy_index, toy_model, toy_mwe)


@pytest.fixture()
def artifact_dir(tmp_path, toy_dictionary, toy_model, toy_mwe) -> Path:
    """Toy artifacts written out in the on-disk directory layout."""
    write_dictionary(toy_dictionary, tmp_path / "dictionary.tsv", tmp_path / "stats.tsv")
    save_model(toy_model, tmp_path / "model.json")
    with open(tmp_path / "mwe.tsv", "w", encoding="utf-8") as fh:
        for key, value in toy_mwe.entries.items():
            fh.write(f"{key}\t{value}\n")
    return tmp_path
