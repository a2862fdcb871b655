import json
import os
import random

import numpy as np
import pytest

from queryspell import (BoostConfig, Candidate, FeatureSchema, FrequencyDictionary,
                        ModelError, RequestContext, TrainingError, load_model, rank,
                        save_model, train)
from queryspell.ranker import (MODEL_VERSION, Hyperparams, MlpModel, backward_batch,
                               bce_loss, forward_batch, forward_train, init_model)


def _vector(schema, word_count_n=0.5, edit_distance_n=0.5, phonetic=0.5,
            locale="en", application="stock"):
    """One feature row in ``schema.feature_names()`` order."""
    return np.array(
        [word_count_n, 0.3, 0.2, edit_distance_n]
        + [1.0 if l == locale else 0.0 for l in schema.locales]
        + [1.0 if a == application else 0.0 for a in schema.applications]
        + [phonetic])


def _score(model, row):
    return float(forward_batch(model, row.reshape(1, -1))[0])


def _zero_model(schema):
    dims = (8, 8, 8, 8)
    weights = [np.zeros((schema.dimension, 8))] + \
        [np.zeros((8, 8)) for _ in range(3)] + [np.zeros((8, 1))]
    biases = [np.zeros(8)] * 4 + [np.zeros(1)]
    return MlpModel(weights, biases,
                    [np.ones(8)] * 4, [np.zeros(8)] * 4,
                    [np.zeros(8)] * 4, [np.ones(8)] * 4,
                    dropout_rate=0.0, feature_schema=schema)


def _random_model(schema, seed, hidden=(8, 8, 8, 8), dropout=0.0):
    rng = np.random.default_rng(seed)
    return init_model(schema.dimension, schema, rng, dropout, hidden)


def _toy_dataset(schema, n=200, seed=0):
    """(X, labels), separable by construction: label 1 iff edit_distance_n < 0.5."""
    rng = random.Random(seed)
    rows, labels = [], []
    for _ in range(n):
        dist = rng.choice([0.25, 0.75])
        rows.append(_vector(schema, word_count_n=rng.random(), edit_distance_n=dist,
                            phonetic=rng.random()))
        labels.append(1.0 if dist < 0.5 else 0.0)
    return np.stack(rows), np.array(labels)


class TestForward:
    def test_zero_network_outputs_half(self, schema):
        model = _zero_model(schema)
        assert _score(model, _vector(schema)) == 0.5

    def test_infer_is_deterministic(self, schema):
        model = _random_model(schema, 1)
        vec = _vector(schema, word_count_n=0.9)
        assert _score(model, vec) == _score(model, vec)

    def test_outputs_in_open_unit_interval(self, schema):
        rng = np.random.default_rng(7)
        for seed in range(5):
            model = _random_model(schema, seed)
            X = rng.random((200, schema.dimension))
            probs = forward_batch(model, X)
            assert np.isfinite(probs).all()
            assert ((probs > 0.0) & (probs < 1.0)).all()

    def test_dimension_mismatch_rejected(self, schema):
        model = _random_model(schema, 0)
        with pytest.raises(ModelError):
            forward_batch(model, np.zeros((3, schema.dimension + 1)))

    def test_train_mode_with_dropout_needs_rng(self, schema):
        model = _random_model(schema, 0, dropout=0.2)
        with pytest.raises(ModelError):
            forward_train(model, np.zeros((4, schema.dimension)), None)


class TestBatchNorm:
    def test_normalized_preactivations_standardized(self, schema):
        rng = np.random.default_rng(3)
        model = _random_model(schema, 12, hidden=(16, 16, 16, 16))
        X = rng.random((64, schema.dimension))
        _, cache = forward_train(model, X, None)
        for layer in cache["layers"]:
            xhat = layer["xhat"]
            assert np.abs(xhat.mean(axis=0)).max() < 1e-6
            assert np.abs(xhat.var(axis=0) - 1.0).max() < 1e-5

    def test_running_stats_update_only_when_asked(self, schema):
        model = _random_model(schema, 2)
        X = np.random.default_rng(0).random((16, schema.dimension))
        before = [m.copy() for m in model.running_means]
        forward_batch(model, X)
        assert all((a == b).all() for a, b in zip(before, model.running_means))
        forward_train(model, X, None)
        assert not all((a == b).all() for a, b in zip(before, model.running_means))


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_analytic_matches_finite_differences(self, seed):
        schema = FeatureSchema(("en",), ("stock",))  # dim 7
        rng = np.random.default_rng(seed)
        model = _random_model(schema, seed + 100, hidden=(8, 8, 8, 8))
        X = rng.normal(0.0, 1.0, size=(12, schema.dimension))
        y = rng.integers(0, 2, size=12).astype(np.float64)

        probs, cache = forward_train(model, X, None)
        grads = backward_batch(model, cache, probs, y)

        def loss_now():
            p, c = forward_train(model, X, None)
            return bce_loss(p, c["z_out"], y)

        h = 1e-5
        worst = 0.0
        for kind, i, tensor in model.parameters():
            g = grads[kind][i]
            flat = tensor.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                up = loss_now()
                flat[k] = keep - h
                down = loss_now()
                flat[k] = keep
                numeric = (up - down) / (2 * h)
                analytic = g.reshape(-1)[k]
                denom = max(abs(numeric), abs(analytic), 1e-6)
                worst = max(worst, abs(numeric - analytic) / denom)
        assert worst < 1e-4


class TestTrain:
    def test_learns_separable_toy_set(self, schema):
        X, y = _toy_dataset(schema, 200)
        model = train(X, y, schema, Hyperparams(seed=1))
        assert ((forward_batch(model, X) >= 0.5) == (y == 1)).mean() >= 0.95

    def test_same_seed_gives_bitwise_identical_model(self, schema, tmp_path):
        X, y = _toy_dataset(schema, 120)
        a = train(X, y, schema, Hyperparams(epochs=4, seed=9))
        b = train(X, y, schema, Hyperparams(epochs=4, seed=9))
        save_model(a, tmp_path / "a.json")
        save_model(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_single_class_rejected(self, schema):
        X = np.stack([_vector(schema)] * 10)
        with pytest.raises(TrainingError):
            train(X, np.ones(10), schema, Hyperparams(epochs=1))

    def test_small_batch_rejected(self, schema):
        with pytest.raises(TrainingError):
            train(*_toy_dataset(schema, 16), schema, Hyperparams(batch_size=1))

    def test_divergence_reports_epoch(self, schema):
        X, y = _toy_dataset(schema, 64)
        with pytest.raises(TrainingError, match="epoch"):
            train(X, y, schema, Hyperparams(epochs=30, learning_rate=1e12))

    def test_empty_set_rejected(self, schema):
        with pytest.raises(TrainingError, match="empty"):
            train(np.empty((0, schema.dimension)), np.empty(0), schema)

    def test_labels_other_than_zero_and_one_rejected(self, schema):
        X, y = _toy_dataset(schema, 16)
        y[0] = 2.0
        with pytest.raises(TrainingError, match="0 or 1"):
            train(X, y, schema)

    def test_matrix_must_fit_labels_and_schema(self, schema):
        X, y = _toy_dataset(schema, 16)
        with pytest.raises(TrainingError, match="shape"):
            train(X[:, :-1], y, schema)
        with pytest.raises(TrainingError, match="shape"):
            train(X[:-1], y, schema)


class TestRank:
    def _candidates(self, toy_dictionary, *terms_dists):
        return [Candidate(t, d, toy_dictionary.get(t))
                for t, d in terms_dists]

    def test_single_candidate_scored(self, toy_dictionary, toy_model, context):
        cands = self._candidates(toy_dictionary, ("museum", 2))
        (ranked,) = rank(toy_model, cands, context, "muzeem", BoostConfig())
        assert 0.0 < ranked.score < 1.0

    def test_statistics_break_ties(self, schema, context, toy_model):
        d = FrequencyDictionary()
        d.add("alpha", word_count=10)
        d.add("betaa", word_count=500)
        d.freeze()
        # identical feature vectors except the count signal is removed by
        # giving both the same counters; force equality by zeroing both
        d2 = FrequencyDictionary()
        d2.add("alpha", word_count=7)
        d2.add("betaa", word_count=7)
        d2.freeze()
        cands = [Candidate("betaa", 1, d2.get("betaa")),
                 Candidate("alpha", 1, d2.get("alpha"))]
        ranked = rank(toy_model, cands, RequestContext("fr", "stock"), "alpham",
                      BoostConfig())
        # same score (fr disables phonetics; counts equal; distance equal)
        assert ranked[0].score == ranked[1].score
        assert [c.term for c in ranked] == ["alpha", "betaa"]  # lexicographic tie

    def test_trained_model_prefers_popular_close_term(
            self, toy_dictionary, toy_index, toy_model, context):
        from queryspell import suggest
        cands = suggest(toy_index, toy_dictionary, "muzeem")
        ranked = rank(toy_model, cands, context, "muzeem", BoostConfig())
        assert ranked[0].term == "museum"

    def test_empty_candidates_rejected(self, toy_model, context):
        with pytest.raises(ValueError):
            rank(toy_model, [], context, "x", BoostConfig())


class TestModelIO:
    def test_round_trip_bit_exact(self, schema, tmp_path):
        model = train(*_toy_dataset(schema, 80), schema, Hyperparams(epochs=2, seed=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(0)
        X = rng.random((100, schema.dimension))
        assert (forward_batch(model, X) == forward_batch(loaded, X)).all()

    def test_failed_save_leaves_old_file(self, schema, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_model(_random_model(schema, 0), path)
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            save_model(_random_model(schema, 1), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_wrong_dimension_header_rejected(self, schema, tmp_path):
        model = _random_model(schema, 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["layer_dims"][0] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError):
            load_model(path)

    def test_truncated_file_rejected(self, schema, tmp_path):
        model = _random_model(schema, 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(ModelError):
            load_model(path)

    def test_schema_mismatch_rejected(self, schema, tmp_path):
        model = _random_model(schema, 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["feature_schema"]["locales"] = ["en"]  # narrower than the tensors
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError):
            load_model(path)

    def test_round_trip_keeps_count_maxima(self, tmp_path):
        schema = FeatureSchema(count_maxima=(9900, 29700, 4950))
        path = tmp_path / "model.json"
        save_model(_random_model(schema, 0), path)
        assert json.loads(path.read_text())["version"] == MODEL_VERSION == 2
        assert load_model(path).feature_schema == schema

    def test_version_1_file_asks_for_retraining(self, schema, tmp_path):
        path = tmp_path / "model.json"
        save_model(_random_model(schema, 0), path)
        doc = json.loads(path.read_text())
        doc["version"] = 1
        del doc["feature_schema"]["count_maxima"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=r"version 1\b.*retrain"):
            load_model(path)

    @pytest.mark.parametrize("maxima", [None, [9900, -1, 4950], [9900, 29700.0, 4950],
                                        [9900, "29700", 4950], [9900, True, 4950],
                                        [9900, 29700], [9900, 29700, 4950, 1], 9900])
    def test_bad_count_maxima_rejected(self, schema, tmp_path, maxima):
        path = tmp_path / "model.json"
        save_model(_random_model(schema, 0), path)
        doc = json.loads(path.read_text())
        if maxima is None:
            del doc["feature_schema"]["count_maxima"]
        else:
            doc["feature_schema"]["count_maxima"] = maxima
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="count_maxima"):
            load_model(path)

    def test_five_layer_invariant(self, schema):
        with pytest.raises(ModelError):
            MlpModel([np.zeros((schema.dimension, 4)), np.zeros((4, 1))],
                     [np.zeros(4), np.zeros(1)],
                     [np.ones(4)], [np.zeros(4)], [np.zeros(4)], [np.ones(4)],
                     0.0, schema)
