"""anchoragg: global word-importance rankings for black-box text classifiers,
aggregated from per-token anchor decisions, with an anytime top-k engine and
an evaluation harness.

The public names below are loaded on first use: ``import anchoragg`` reads
no submodule, and ``anchoragg.aopc_k`` (or ``from anchoragg import aopc_k``)
imports only ``anchoragg.eval`` and what it needs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "aggregate": ("AGGREGATION_KINDS", "AnchorCounts", "log_likelihood",
                  "make_aggregation", "rank_words"),
    "anchor": ("AnchorConfig", "AnchorDecision", "PrecisionEstimate",
               "anchors_of_document", "confidence_bounds", "estimate_token"),
    "corpus": ("CandidateSet", "Corpus", "Document", "Token", "WordStats",
               "default_stopwords", "filter_candidates", "load_corpus",
               "load_stopwords", "sample_documents", "tokenize", "word_stats"),
    "eval": ("AopcResult", "AppendDropResult", "TermList", "aopc_k", "append_drop",
             "quality_timeline", "remove_prefix", "shared_terms_ratio"),
    "model": ("BowClassifier", "CachingPredictor", "CountingPredictor",
              "ExternalPredictorClient", "ExternalPredictorError", "Predictor",
              "accuracy", "load_model", "save_model", "train_bow"),
    "perturb": ("ExternalPerturbatorClient", "ExternalPerturbatorError", "Perturbator",
                "UnigramPerturbator", "build_unigram_perturbator"),
    "seeding": ("stream_rng", "stream_seed"),
    "synth": ("PlantedTruth", "SynthSpec", "generate_planted_corpus", "planted_label"),
    "topk": ("AnchorTopTerms", "AnytimeOptions", "AnytimeResult", "PROFILE_NAMES",
             "Snapshot", "optimization_profile", "order_documents", "run_anytime",
             "should_filter"),
}
# public name -> the submodule that defines it
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items()
                 for name in names}

__all__ = [*_SUBMODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
