"""Candidate scoring with a small feedforward network.

Five fully connected layers (four hidden, one scalar output).  Hidden layers
apply affine -> batch normalization -> ReLU -> dropout; the output layer is
affine -> sigmoid, so scores read as probabilities.  Training is pointwise
binary cross-entropy over (gold candidate = 1, other candidates = 0) with
mini-batch SGD plus momentum, fully deterministic given the seed.

Everything is plain float64 numpy; a loaded model is immutable in practice
and safe to share across threads for inference.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dictionary import FrequencyDictionary, normalize_term, write_atomic
from .errors import ModelError, TrainingError
from .features import FeatureSchema, RequestContext, extract_features
from .suggest import Candidate, suggest

if TYPE_CHECKING:
    from .pipeline import BoostConfig

_log = logging.getLogger(__name__)

BN_EPS = 1e-9
BN_MOMENTUM = 0.1
DEFAULT_HIDDEN_DIMS = (64, 64, 32, 16)
MODEL_FORMAT = "queryspell-mlp"
MODEL_VERSION = 2


@dataclass
class Hyperparams:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.01
    dropout_rate: float = 0.2
    seed: int = 0
    momentum: float = 0.9
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS


class MlpModel:
    """Weights plus batch-norm state for the 5-layer ranker network."""

    def __init__(self, weights, biases, gammas, betas, running_means,
                 running_vars, dropout_rate: float, feature_schema: FeatureSchema):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.gammas = [np.asarray(g, dtype=np.float64) for g in gammas]
        self.betas = [np.asarray(b, dtype=np.float64) for b in betas]
        self.running_means = [np.asarray(m, dtype=np.float64) for m in running_means]
        self.running_vars = [np.asarray(v, dtype=np.float64) for v in running_vars]
        self.dropout_rate = float(dropout_rate)
        self.feature_schema = feature_schema
        self.validate()

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def num_hidden(self) -> int:
        return len(self.weights) - 1

    def validate(self) -> None:
        if len(self.weights) != 5 or len(self.biases) != 5:
            raise ModelError("model must have exactly 5 fully connected layers")
        if len(self.gammas) != 4:
            raise ModelError("model must carry batch-norm state for 4 hidden layers")
        if self.weights[-1].shape[1] != 1:
            raise ModelError("output layer must be scalar")
        if not 0 <= self.dropout_rate < 1:
            raise ModelError("dropout_rate must be in [0, 1)")
        for i, w in enumerate(self.weights):
            if w.ndim != 2:
                raise ModelError(f"weight tensor at layer {i} must be 2-dimensional")
            if self.biases[i].shape != (w.shape[1],):
                raise ModelError(f"bias shape mismatch at layer {i}")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ModelError(f"layer dimension mismatch at layer {i}")
        for i in range(4):
            width = self.weights[i].shape[1]
            for name, arr in (("gamma", self.gammas[i]), ("beta", self.betas[i]),
                              ("running_mean", self.running_means[i]),
                              ("running_var", self.running_vars[i])):
                if arr.shape != (width,):
                    raise ModelError(f"{name} shape mismatch at hidden layer {i}")
            if not np.all(self.running_vars[i] > 0):
                raise ModelError(f"running variance must be positive (hidden layer {i})")
        tensors = (self.weights + self.biases + self.gammas + self.betas
                   + self.running_means + self.running_vars)
        if not all(np.all(np.isfinite(t)) for t in tensors):
            raise ModelError("model contains non-finite parameters")
        if self.feature_schema.dimension != self.weights[0].shape[0]:
            raise ModelError(
                f"feature schema dimension {self.feature_schema.dimension} does not "
                f"match input layer width {self.weights[0].shape[0]}")

    def parameters(self):
        """(name, index, array) triples for every trainable tensor."""
        for kind, tensors in (("W", self.weights), ("b", self.biases),
                              ("gamma", self.gammas), ("beta", self.betas)):
            for i, t in enumerate(tensors):
                yield kind, i, t


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _input_matrix(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights[0].shape[0]:
        raise ModelError(
            f"feature matrix of shape {X.shape} does not match input width "
            f"{model.weights[0].shape[0]}")
    return X


def forward_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Score a batch; returns probabilities of shape (n,).

    The frozen running statistics normalize each hidden pre-activation and
    no dropout applies, so scoring is deterministic and side-effect free.
    """
    h = _input_matrix(model, X)
    for i in range(model.num_hidden):
        z = h @ model.weights[i] + model.biases[i]
        xhat = (z - model.running_means[i]) * (1.0 / np.sqrt(model.running_vars[i] + BN_EPS))
        h = np.maximum(model.gammas[i] * xhat + model.betas[i], 0.0)
    return _sigmoid(h @ model.weights[-1] + model.biases[-1]).ravel()


def forward_train(model: MlpModel, X: np.ndarray,
                  dropout_rng: np.random.Generator | None):
    """Training pass over a batch; returns ``(probs, cache)``, the cache
    holding what ``backward_batch`` needs.

    Batch statistics normalize each hidden pre-activation and are folded
    into the model's running statistics; dropout masks the activations.
    """
    X = _input_matrix(model, X)
    if model.dropout_rate > 0 and dropout_rng is None:
        raise ModelError("train-mode forward with dropout needs a random generator")

    h = X
    layers = []
    for i in range(model.num_hidden):
        z = h @ model.weights[i] + model.biases[i]
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        model.running_means[i] = ((1 - BN_MOMENTUM) * model.running_means[i]
                                  + BN_MOMENTUM * mu)
        model.running_vars[i] = ((1 - BN_MOMENTUM) * model.running_vars[i]
                                 + BN_MOMENTUM * var)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (z - mu) * inv_std
        y = model.gammas[i] * xhat + model.betas[i]
        a = np.maximum(y, 0.0)
        mask = None
        if model.dropout_rate > 0:
            mask = (dropout_rng.random(a.shape) >= model.dropout_rate)
            mask = mask / (1.0 - model.dropout_rate)
            a = a * mask
        layers.append({"input": h, "xhat": xhat, "inv_std": inv_std,
                       "bn_out": y, "mask": mask})
        h = a
    z_out = h @ model.weights[-1] + model.biases[-1]
    return _sigmoid(z_out).ravel(), {"layers": layers, "last_hidden": h, "z_out": z_out}


def bce_loss(probs: np.ndarray, z_out: np.ndarray, labels: np.ndarray) -> float:
    """Binary cross-entropy computed from logits for numerical stability."""
    z = z_out.ravel()
    return float(np.mean(np.logaddexp(0.0, z) - labels * z))


def backward_batch(model: MlpModel, cache: dict, probs: np.ndarray,
                   labels: np.ndarray) -> dict:
    """Analytic gradients of the mean BCE loss for every trainable tensor."""
    n = labels.shape[0]
    grads = {"W": [None] * 5, "b": [None] * 5, "gamma": [None] * 4, "beta": [None] * 4}

    dz = ((probs - labels) / n).reshape(-1, 1)
    grads["W"][4] = cache["last_hidden"].T @ dz
    grads["b"][4] = dz.sum(axis=0)
    dh = dz @ model.weights[4].T

    for i in reversed(range(model.num_hidden)):
        layer = cache["layers"][i]
        if layer["mask"] is not None:
            dh = dh * layer["mask"]
        dy = dh * (layer["bn_out"] > 0)
        xhat = layer["xhat"]
        grads["gamma"][i] = (dy * xhat).sum(axis=0)
        grads["beta"][i] = dy.sum(axis=0)
        dxhat = dy * model.gammas[i]
        b = dy.shape[0]
        dz = (layer["inv_std"] / b) * (
            b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        grads["W"][i] = layer["input"].T @ dz
        grads["b"][i] = dz.sum(axis=0)
        dh = dz @ model.weights[i].T
    return grads


def init_model(input_dim: int, schema: FeatureSchema, rng: np.random.Generator,
               dropout_rate: float, hidden_dims=DEFAULT_HIDDEN_DIMS) -> MlpModel:
    """He-initialized network (ReLU hidden layers), zero biases, identity
    batch-norm state."""
    dims = [input_dim, *hidden_dims, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    gammas = [np.ones(d) for d in hidden_dims]
    betas = [np.zeros(d) for d in hidden_dims]
    means = [np.zeros(d) for d in hidden_dims]
    variances = [np.ones(d) for d in hidden_dims]
    return MlpModel(weights, biases, gammas, betas, means, variances,
                    dropout_rate, schema)


def train(X: np.ndarray, labels: np.ndarray, schema: FeatureSchema,
          hyper: Hyperparams | None = None) -> MlpModel:
    """Fit the ranker on the rows of the feature matrix ``X`` laid out and
    scaled by ``schema``, each labeled 1 (gold candidate) or 0.

    Requires both classes to be present and batch_size >= 2 (batch norm needs
    real batch statistics).  Raises TrainingError on divergence, reporting
    the epoch.  Returns the model, which keeps ``schema``, with frozen
    running statistics; score it with ``forward_batch``.
    """
    hyper = hyper or Hyperparams()
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if not labels.size:
        raise TrainingError("empty training set")
    if hyper.batch_size < 2:
        raise TrainingError("batch_size must be >= 2 for batch normalization")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise TrainingError("labels must be 0 or 1")
    if labels.min() == labels.max():
        raise TrainingError("training set contains a single class; "
                            "need both gold and non-gold candidates")
    if X.shape != (labels.size, schema.dimension):
        raise TrainingError(f"feature matrix has shape {X.shape}, expected "
                            f"({labels.size}, {schema.dimension}) for the labels "
                            f"and the schema")

    rng = np.random.default_rng(hyper.seed)
    model = init_model(X.shape[1], schema, rng, hyper.dropout_rate, hyper.hidden_dims)
    tensors = {(kind, i): t for kind, i, t in model.parameters()}
    velocity = {key: np.zeros_like(t) for key, t in tensors.items()}

    n = X.shape[0]
    with np.errstate(all="ignore"):  # divergence is detected explicitly below
        for epoch in range(hyper.epochs):
            order = rng.permutation(n)
            for start in range(0, n, hyper.batch_size):
                idx = order[start:start + hyper.batch_size]
                if idx.size < 2:
                    continue  # a 1-row batch has no batch statistics
                probs, cache = forward_train(model, X[idx], rng)
                loss = bce_loss(probs, cache["z_out"], labels[idx])
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"training diverged (non-finite loss) at epoch {epoch}")
                grads = backward_batch(model, cache, probs, labels[idx])
                for (kind, i), tensor in tensors.items():
                    v = velocity[(kind, i)]
                    v *= hyper.momentum
                    v -= hyper.learning_rate * grads[kind][i]
                    tensor += v
                state = (list(tensors.values())
                         + model.running_means + model.running_vars)
                if not all(np.isfinite(t).all() for t in state):
                    raise TrainingError(
                        f"training diverged (non-finite parameters) at epoch {epoch}")
    model.validate()
    return model


def build_training_set(pairs, dictionary: FrequencyDictionary, index,
                       context: RequestContext, schema: FeatureSchema,
                       ) -> tuple[np.ndarray, np.ndarray, FeatureSchema]:
    """Turn (corrupted query, original query) pairs into ``(X, labels,
    schema)`` for ``train``.

    ``schema`` gives the locale and application sets; the returned schema
    adds the count maxima of ``dictionary``, which scale ``X``.  For every
    corrupted token the gold correction gets label 1 and every other
    suggester candidate label 0; the rows of one token are stacked in
    suggester order.  Tokens whose gold term is missing from the suggester
    output (or from the dictionary) cannot be learned from and are dropped,
    with a summary logged.
    """
    schema = schema.scaled_to(dictionary)
    blocks: list[np.ndarray] = []
    labels: list[float] = []
    dropped = 0
    usable = 0
    for corrupted, original in pairs:
        bad_tokens = corrupted.split()
        gold_tokens = original.split()
        if len(bad_tokens) != len(gold_tokens):
            dropped += 1
            continue
        for bad, gold in zip(bad_tokens, gold_tokens):
            bad = normalize_term(bad)
            gold = normalize_term(gold)
            if bad == gold:
                continue
            if not dictionary.contains(gold):
                dropped += 1
                continue
            candidates = suggest(index, dictionary, bad)
            if not any(c.term == gold for c in candidates):
                dropped += 1
                continue
            usable += 1
            blocks.append(extract_features(candidates, bad, context, schema))
            labels += [1.0 if cand.term == gold else 0.0 for cand in candidates]
    if dropped:
        _log.info("build_training_set: %d corrupted tokens usable, %d dropped "
                  "(gold not reachable)", usable, dropped)
    X = np.concatenate(blocks) if blocks else np.empty((0, schema.dimension))
    return X, np.array(labels, dtype=np.float64), schema


def rank(model: MlpModel, candidates: list[Candidate], context: RequestContext,
         input_token: str, boost: BoostConfig) -> list[Candidate]:
    """Score every candidate (one batched infer pass) and sort descending.

    Each score is multiplied by the boost of its term for the request's
    application.  Candidates sort by that product, ties broken toward the
    higher word count, then lexicographic term order; each one's ``score``
    is the product clamped to 1.
    """
    if not candidates:
        raise ValueError("rank() needs at least one candidate")
    X = extract_features(candidates, input_token, context, model.feature_schema)
    scored = [(float(score) * boost.multiplier_for(context.application, cand.term), cand)
              for score, cand in zip(forward_batch(model, X), candidates)]
    scored.sort(key=lambda pair: (-pair[0], -pair[1].word_count, pair[1].term))
    for score, cand in scored:
        cand.score = min(1.0, score)
    return [cand for _, cand in scored]


def save_model(model: MlpModel, path) -> None:
    """Write the versioned, self-describing JSON model document; the file is
    replaced atomically."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "layer_dims": model.layer_dims,
        "dropout_rate": model.dropout_rate,
        "feature_schema": {
            "locales": list(model.feature_schema.locales),
            "applications": list(model.feature_schema.applications),
            "feature_names": model.feature_schema.feature_names(),
            "count_maxima": list(model.feature_schema.count_maxima),
        },
        "layers": [],
    }
    for i in range(5):
        layer = {"weights": model.weights[i].tolist(),
                 "biases": model.biases[i].tolist()}
        if i < 4:
            layer.update({
                "gamma": model.gammas[i].tolist(),
                "beta": model.betas[i].tolist(),
                "running_mean": model.running_means[i].tolist(),
                "running_var": model.running_vars[i].tolist(),
            })
        doc["layers"].append(layer)
    write_atomic(path, json.dumps(doc, indent=1))


def load_model(path) -> MlpModel:
    """Read a model document back; bit-exact round trip, validated on load."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelError(f"{path} is not a speller model file")
    if doc.get("version") != MODEL_VERSION:
        raise ModelError(f"unsupported model version {doc.get('version')!r} in {path}; "
                         f"this build reads version {MODEL_VERSION}, which stores "
                         f"the count scaling: retrain the model with `speller train`")
    schema_doc = doc.get("feature_schema", {})
    maxima = schema_doc.get("count_maxima")
    if not (isinstance(maxima, list) and len(maxima) == 3
            and all(type(m) is int and m >= 0 for m in maxima)):
        raise ModelError(f"count_maxima must be three non-negative integers, "
                         f"got {maxima!r}")
    schema = FeatureSchema(locales=tuple(schema_doc.get("locales", ())),
                           applications=tuple(schema_doc.get("applications", ())),
                           count_maxima=tuple(maxima))
    layers = doc.get("layers")
    if not isinstance(layers, list) or len(layers) != 5:
        raise ModelError("model document must contain exactly 5 layers")
    try:
        weights = [np.array(l["weights"], dtype=np.float64) for l in layers]
        biases = [np.array(l["biases"], dtype=np.float64) for l in layers]
        gammas = [np.array(l["gamma"], dtype=np.float64) for l in layers[:4]]
        betas = [np.array(l["beta"], dtype=np.float64) for l in layers[:4]]
        means = [np.array(l["running_mean"], dtype=np.float64) for l in layers[:4]]
        variances = [np.array(l["running_var"], dtype=np.float64) for l in layers[:4]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed layer data in {path}: {exc}") from exc
    model = MlpModel(weights, biases, gammas, betas, means, variances,
                     doc.get("dropout_rate", 0.0), schema)
    if model.layer_dims != doc.get("layer_dims"):
        raise ModelError("layer_dims header does not match stored tensors")
    return model
