"""The benchmark's tracer (``qsbench/tracer.py``) patches queryspell
functions by name, and a traced run fails when a layer it expects never
records a span.  These tests load the tracer read-only and check that every
target still resolves, and that a ranked token passes through each layer of
the ranking path, so a rename shows up here and not only in a benchmark
run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from queryspell import correct_query

TRACER = Path(__file__).resolve().parent.parent / "qsbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("qsbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    for module_name, attr, span, namespaces in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(module, cls_name).__dict__.get(meth)), span
        else:
            assert callable(getattr(module, attr, None)), span
        for ns in namespaces or tracer.MODULES:
            importlib.import_module(ns)


RANKING_SPANS = ("features.extract", "features.phonetic", "ranker.rank",
                 "ranker.forward_batch", "pipeline.multiplier_for")


def test_ranked_token_passes_every_ranking_layer(tracer, toy_artifacts, context):
    spans = tracer.Tracer(RANKING_SPANS).install()
    try:
        result = correct_query("muzeem icon", context, toy_artifacts)
    finally:
        spans.uninstall()
    assert [t.changed for t in result.tokens] == [True, False]
    names = [span[2] for span in spans.spans]
    for name in ("features.extract", "ranker.rank", "ranker.forward_batch"):
        assert names.count(name) == 1, name
    assert names.count("features.phonetic") >= 1
    assert names.count("pipeline.multiplier_for") >= 1
