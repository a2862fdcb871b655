"""queryspell: fast multilingual spellchecker for short search queries.

Symmetric-delete candidate generation, a small feedforward neural ranker
over contextual features, synthetic training-data generation, multi-word
expression rewriting, evaluation tooling, and a low-latency HTTP service.
"""

from .dictionary import (DeleteIndex, DictionaryEntry, FrequencyDictionary,
                         build_delete_index, generate_deletes, load_dictionary,
                         normalize_term, write_dictionary)
from .datagen import (ERROR_WEIGHTS, ErroredQuery, ErrorType, apply_error,
                      inject_errors)
from .errors import (ConfigError, LoadError, ModelError, SpellerError,
                     TrainingError)
from .evaluate import EvalRecord, EvalReport, evaluate, load_eval_records
from .features import (FeatureSchema, RequestContext, extract_features,
                       phonetic_similarity)
from .mwe import MweMap, apply_mwe, load_mwe_map
from .pipeline import (ArtifactSet, ArtifactStore, BoostConfig, BoostRule,
                       CorrectionResult, TokenCorrection, correct_query,
                       load_boost_config, refresh_behavioral_stats, tokenize)
from .ranker import (Hyperparams, MlpModel, build_training_set, load_model,
                     rank, save_model, train)
from .suggest import Candidate, damerau_levenshtein, suggest

__version__ = "0.1.0"

__all__ = [
    "ArtifactSet", "ArtifactStore", "BoostConfig", "BoostRule", "Candidate",
    "ConfigError", "CorrectionResult", "DeleteIndex", "DictionaryEntry",
    "ERROR_WEIGHTS", "ErrorType", "ErroredQuery", "EvalRecord", "EvalReport",
    "FeatureSchema", "FrequencyDictionary", "Hyperparams", "LoadError",
    "MlpModel", "ModelError", "MweMap", "RequestContext", "SpellerError",
    "TokenCorrection", "TrainingError", "apply_error", "apply_mwe",
    "build_delete_index", "build_training_set", "correct_query",
    "damerau_levenshtein", "evaluate", "extract_features", "generate_deletes",
    "inject_errors", "load_boost_config", "load_dictionary",
    "load_eval_records", "load_model", "load_mwe_map", "normalize_term",
    "phonetic_similarity", "rank", "refresh_behavioral_stats", "save_model",
    "suggest", "tokenize", "train", "write_dictionary",
]
