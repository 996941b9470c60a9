"""anchoragg: global word-importance rankings for black-box text classifiers,
aggregated from per-token anchor decisions, with an anytime top-k engine and
an evaluation harness."""

from .aggregate import (AGGREGATION_KINDS, AnchorCounts, log_likelihood,
                        make_aggregation, rank_words)
from .anchor import (AnchorConfig, AnchorDecision, PrecisionEstimate,
                     adaptive_tau, anchors_of_document, confidence_bounds,
                     estimate_token)
from .corpus import (CandidateSet, Corpus, Document, Token, WordStats,
                     default_stopwords, filter_candidates, load_corpus,
                     load_stopwords, sample_documents, tokenize, word_stats)
from .eval import (AopcResult, AppendDropResult, TermList, aopc_k, append_drop,
                   quality_timeline, remove_prefix, shared_terms_ratio)
from .model import (BowClassifier, CachingPredictor, CountingPredictor,
                    ExternalPredictorClient, ExternalPredictorError, Predictor,
                    accuracy, load_model, save_model, train_bow)
from .perturb import (ExternalPerturbatorClient, ExternalPerturbatorError,
                      Perturbator, UnigramPerturbator, build_unigram_perturbator)
from .seeding import stream_rng, stream_seed
from .synth import PlantedTruth, SynthSpec, generate_planted_corpus, planted_label
from .topk import (AnchorTopTerms, AnytimeOptions, AnytimeResult, PROFILE_NAMES,
                   Snapshot, optimization_profile, order_documents, run_anytime,
                   should_filter)

__version__ = "0.1.0"
