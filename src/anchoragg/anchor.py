"""Per-token anchor decisions via sequential sampling.

A token is an anchor when the predictor keeps its decision on perturbed
documents that retain the token, with probability at least a threshold.
The estimator samples in batches, maintains two-sided confidence bounds on
the success rate, and stops as soon as the bound certifies the decision
either way; at budget exhaustion the point estimate decides. The tokens of
a document are tested together, in rounds that share predictor calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .corpus import Document, Token

if TYPE_CHECKING:
    from .model import Predictor
    from .perturb import Perturbator

__all__ = [
    "AnchorConfig",
    "PrecisionEstimate",
    "AnchorDecision",
    "confidence_bounds",
    "estimate_token",
    "anchors_of_document",
]

# rows per predictor call: a round of an m-token document holds ~batch * m
# perturbed rows of m words each, so it is drawn and scored in slices
ROUND_ROWS = 4096


@dataclass(frozen=True)
class AnchorConfig:
    """Thresholds and budgets for the sequential anchor test."""

    tau: float = 0.95
    delta: float = 0.1
    batch_size: int = 10
    max_samples: int = 100

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau out of (0, 1]: {self.tau}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta out of (0, 1): {self.delta}")
        if self.batch_size < 1 or self.max_samples < 1:
            raise ValueError("batch_size and max_samples must be >= 1")


@dataclass(frozen=True)
class PrecisionEstimate:
    """Success rate with two-sided Hoeffding bounds at level 1 - delta."""

    successes: int
    trials: int
    point: float
    lower: float
    upper: float


@dataclass(frozen=True)
class AnchorDecision:
    token: Token
    is_anchor: bool
    estimate: PrecisionEstimate | None
    samples_used: int
    skipped: bool = field(default=False)

    def to_row(self, doc_id: str) -> dict:
        """The decision as one trace row of document ``doc_id``."""
        return {
            "doc": doc_id,
            "pos": self.token.position,
            "word": self.token.word,
            "anchor": self.is_anchor,
            "precision": None if self.estimate is None else self.estimate.point,
            "samples": self.samples_used,
        }


def confidence_bounds(successes: int, trials: int, delta: float) -> tuple[float, float]:
    """Two-sided Hoeffding bounds around the empirical rate, clipped to [0, 1].

    Half-width sqrt(ln(2/delta) / (2 * trials)); by Hoeffding's inequality
    the interval covers the true rate with probability at least 1 - delta.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    point = successes / trials
    half = math.sqrt(math.log(2.0 / delta) / (2.0 * trials))
    return max(0.0, point - half), min(1.0, point + half)


def estimate_token(doc: Document, position: int, predictor: Predictor,
                   perturbator: Perturbator, cfg: AnchorConfig,
                   rng: np.random.Generator,
                   target: str | None = None) -> AnchorDecision:
    """Sequentially test whether keeping one token preserves the prediction.

    Perturbation samples are drawn in batches with the token's position held
    fixed; a sample succeeds when the predictor assigns it the same class as
    the unperturbed document (``target``, predicted on the fly when absent).
    Stops early once the lower bound reaches ``cfg.tau`` (anchor) or the
    upper bound falls below it (non-anchor); at budget exhaustion the point
    estimate against ``cfg.tau`` decides.
    """
    if not 0 <= position < len(doc.words):
        raise ValueError(f"position {position} outside document {doc.id!r}")
    if target is None:
        target = predictor.predict(doc)
    return _sequential_tests(doc, [position], [rng], predictor, perturbator, cfg,
                             predictor.class_index(target))[0]


def _sequential_tests(doc: Document, positions: list[int],
                      rngs: list[np.random.Generator], predictor: Predictor,
                      perturbator: Perturbator, cfg: AnchorConfig, target_idx: int
                      ) -> list[AnchorDecision]:
    """The sequential test of each position, all moving in rounds.

    In every round each undecided position draws its next batch from its own
    generator, and the round's rows are scored in predictor calls of at most
    ``ROUND_ROWS`` rows. A position leaves once its bound clears
    ``cfg.tau`` or its budget is spent. Each generator is consumed as a test
    of its position alone would consume it, so decisions do not depend on
    which positions share a round.

    A perturbator with ``sample_round`` draws each call's group of positions
    in one step: as a matrix of the predictor's ids when it scores them
    (``predict_proba_ids``), otherwise as a matrix of words, turned into
    word tuples. Any other perturbator draws each position's batch with
    ``sample_batch``. Every path draws and scores the same rows.
    """
    if hasattr(perturbator, "sample_round"):
        if hasattr(predictor, "predict_proba_ids"):
            base = predictor.encode(doc.words)
            fill = predictor.encode(perturbator.pool_words)
            score = predictor.predict_proba_ids
        else:
            base, fill = np.asarray(doc.words, dtype=object), perturbator.pool_words

            def score(rows: np.ndarray) -> np.ndarray:
                return predictor.predict_proba_many(list(map(tuple, rows.tolist())))

        def draw(group: list[int], n: int) -> np.ndarray:
            return perturbator.sample_round(base, [positions[i] for i in group], n,
                                            [rngs[i] for i in group], fill)
    else:
        score = predictor.predict_proba_many

        def draw(group: list[int], n: int) -> list[tuple[str, ...]]:
            return [row for i in group for row in
                    perturbator.sample_batch(doc, (positions[i],), n, rngs[i])]

    successes = [0] * len(positions)
    decisions: list[AnchorDecision | None] = [None] * len(positions)
    active = list(range(len(positions)))
    trials = 0
    while active:
        batch = min(cfg.batch_size, cfg.max_samples - trials)
        trials += batch
        hits = []
        per_call = max(1, ROUND_ROWS // batch)
        for start in range(0, len(active), per_call):
            group = active[start:start + per_call]
            rows = draw(group, batch)
            labels = np.concatenate([
                np.argmax(score(rows[j:j + ROUND_ROWS]), axis=1)
                for j in range(0, len(rows), ROUND_ROWS)])
            hits.extend((labels == target_idx).reshape(len(group), batch).sum(axis=1))
        undecided = []
        for i, hit in zip(active, hits):
            successes[i] += int(hit)
            lower, upper = confidence_bounds(successes[i], trials, cfg.delta)
            if lower < cfg.tau <= upper and trials < cfg.max_samples:
                undecided.append(i)
                continue
            point = successes[i] / trials
            estimate = PrecisionEstimate(successes=successes[i], trials=trials,
                                         point=point, lower=lower, upper=upper)
            # certified either way by the bounds, else by the point estimate
            is_anchor = lower >= cfg.tau or (upper >= cfg.tau and point >= cfg.tau)
            decisions[i] = AnchorDecision(
                token=Token(doc.words[positions[i]], positions[i]), is_anchor=is_anchor,
                estimate=estimate, samples_used=trials)
        active = undecided
    return decisions


def _skipped_decision(doc: Document, position: int) -> AnchorDecision:
    return AnchorDecision(token=Token(doc.words[position], position),
                          is_anchor=False, estimate=None, samples_used=0,
                          skipped=True)


def anchors_of_document(doc: Document, predictor: Predictor,
                        perturbator: Perturbator, cfg: AnchorConfig,
                        rng_for: Callable[[int], np.random.Generator],
                        skip_word: Callable[[str], bool] | None = None,
                        target: str | None = None) -> list[AnchorDecision]:
    """One anchor decision per token of the document, in position order.

    ``rng_for`` supplies the per-position generator, so the tokens' tests are
    independent and run together in rounds (see ``_sequential_tests``).
    Words for which ``skip_word`` is true are not sampled and are recorded
    as non-anchors.
    """
    if len(doc.words) == 0:
        raise ValueError(f"document {doc.id!r} is empty")
    if target is None:
        target = predictor.predict(doc)

    sampled = [p for p, w in enumerate(doc.words)
               if skip_word is None or not skip_word(w)]
    tested = _sequential_tests(
        doc, sampled, [rng_for(p) for p in sampled], predictor, perturbator, cfg,
        predictor.class_index(target))
    decisions = dict(zip(sampled, tested))
    return [decisions[p] if p in decisions else _skipped_decision(doc, p)
            for p in range(len(doc.words))]
