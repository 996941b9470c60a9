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
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import Document, Token
from .model import Predictor
from .perturb import Perturbator

__all__ = [
    "AnchorConfig",
    "PrecisionEstimate",
    "AnchorDecision",
    "confidence_bounds",
    "adaptive_tau",
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
    omega: float = 0.4
    tau_floor: float = 0.55

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau out of (0, 1]: {self.tau}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta out of (0, 1): {self.delta}")
        if self.batch_size < 1 or self.max_samples < 1:
            raise ValueError("batch_size and max_samples must be >= 1")
        if self.tau_floor > self.tau:
            raise ValueError(f"tau_floor {self.tau_floor} above tau {self.tau}")
        if self.omega < 0:
            raise ValueError(f"omega must be non-negative: {self.omega}")


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
    tau_eff: float
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


def adaptive_tau(cfg: AnchorConfig, pseudo_gpr: float, n_w: int) -> float:
    """Relax the precision threshold for words already seen as anchors.

    Returns tau - omega * pseudo_gpr / n_w, clamped to [tau_floor, tau].
    A zero pseudo-score leaves tau unchanged.
    """
    if n_w < 1:
        raise ValueError(f"n_w must be >= 1, got {n_w}")
    if pseudo_gpr < 0:
        raise ValueError(f"pseudo_gpr must be non-negative, got {pseudo_gpr}")
    relaxed = cfg.tau - cfg.omega * pseudo_gpr / n_w
    return min(cfg.tau, max(cfg.tau_floor, relaxed))


def estimate_token(doc: Document, position: int, predictor: Predictor,
                   perturbator: Perturbator, cfg: AnchorConfig, tau_eff: float,
                   rng: np.random.Generator,
                   target: str | None = None) -> AnchorDecision:
    """Sequentially test whether keeping one token preserves the prediction.

    Perturbation samples are drawn in batches with the token's position held
    fixed; a sample succeeds when the predictor assigns it the same class as
    the unperturbed document (``target``, predicted on the fly when absent).
    Stops early once the lower bound reaches ``tau_eff`` (anchor) or the
    upper bound falls below it (non-anchor); at budget exhaustion the point
    estimate against ``tau_eff`` decides.
    """
    if not 0 <= position < len(doc.words):
        raise ValueError(f"position {position} outside document {doc.id!r}")
    if target is None:
        target = predictor.predict(doc)
    return _sequential_tests(doc, [position], [tau_eff], [rng], predictor,
                             perturbator, cfg, predictor.class_index(target))[0]


def _sequential_tests(doc: Document, positions: list[int], taus: list[float],
                      rngs: list[np.random.Generator], predictor: Predictor,
                      perturbator: Perturbator, cfg: AnchorConfig, target_idx: int,
                      executor: Executor | None = None) -> list[AnchorDecision]:
    """The sequential test of each position, all moving in rounds.

    In every round each undecided position draws its next batch from its own
    generator, and the round's rows are scored in predictor calls of at most
    ``ROUND_ROWS`` rows. A position leaves once its bound clears its
    threshold or its budget is spent. Each generator is consumed as a test
    of its position alone would consume it, so decisions do not depend on
    which positions share a round.
    """
    for tau_eff in taus:
        if not cfg.tau_floor <= tau_eff <= 1.0:
            raise ValueError(f"tau_eff {tau_eff} outside [{cfg.tau_floor}, 1]")
    successes = [0] * len(positions)
    decisions: list[AnchorDecision | None] = [None] * len(positions)
    active = list(range(len(positions)))
    trials = 0
    while active:
        batch = min(cfg.batch_size, cfg.max_samples - trials)
        trials += batch

        def draw(i: int) -> list[tuple[str, ...]]:
            return perturbator.sample_batch(doc, (positions[i],), batch, rngs[i])

        hits = []
        per_call = max(1, ROUND_ROWS // batch)
        for start in range(0, len(active), per_call):
            group = active[start:start + per_call]
            drawn = executor.map(draw, group) if executor else map(draw, group)
            rows = [row for sample in drawn for row in sample]
            labels = np.concatenate([
                np.argmax(predictor.predict_proba_many(rows[j:j + ROUND_ROWS]), axis=1)
                for j in range(0, len(rows), ROUND_ROWS)])
            hits.extend((labels == target_idx).reshape(len(group), batch).sum(axis=1))
        undecided = []
        for i, hit in zip(active, hits):
            successes[i] += int(hit)
            tau_eff = taus[i]
            lower, upper = confidence_bounds(successes[i], trials, cfg.delta)
            if lower < tau_eff <= upper and trials < cfg.max_samples:
                undecided.append(i)
                continue
            point = successes[i] / trials
            estimate = PrecisionEstimate(successes=successes[i], trials=trials,
                                         point=point, lower=lower, upper=upper)
            # certified either way by the bounds, else by the point estimate
            is_anchor = lower >= tau_eff or (upper >= tau_eff and point >= tau_eff)
            decisions[i] = AnchorDecision(
                token=Token(doc.words[positions[i]], positions[i]), is_anchor=is_anchor,
                estimate=estimate, samples_used=trials, tau_eff=tau_eff)
        active = undecided
    return decisions


def _skipped_decision(doc: Document, position: int, tau_eff: float) -> AnchorDecision:
    return AnchorDecision(token=Token(doc.words[position], position),
                          is_anchor=False, estimate=None, samples_used=0,
                          tau_eff=tau_eff, skipped=True)


def anchors_of_document(doc: Document, predictor: Predictor,
                        perturbator: Perturbator, cfg: AnchorConfig,
                        threshold_for: Callable[[str], float],
                        rng_for: Callable[[int], np.random.Generator],
                        skip_word: Callable[[str], bool] | None = None,
                        target: str | None = None,
                        executor: Executor | None = None) -> list[AnchorDecision]:
    """One anchor decision per token of the document, in position order.

    ``threshold_for`` supplies the effective threshold per word (constant or
    adaptive); ``rng_for`` supplies the per-position generator, so the tokens'
    tests are independent and run together in rounds (see
    ``_sequential_tests``); ``executor`` workers draw a round's batches.
    Words for which ``skip_word`` is true are not sampled and are recorded
    as non-anchors.
    """
    if len(doc.words) == 0:
        raise ValueError(f"document {doc.id!r} is empty")
    if target is None:
        target = predictor.predict(doc)

    thresholds = {w: threshold_for(w) for w in set(doc.words)}
    sampled = [p for p, w in enumerate(doc.words)
               if skip_word is None or not skip_word(w)]
    tested = _sequential_tests(
        doc, sampled, [thresholds[doc.words[p]] for p in sampled],
        [rng_for(p) for p in sampled], predictor, perturbator, cfg,
        predictor.class_index(target), executor)
    decisions = dict(zip(sampled, tested))
    return [decisions[p] if p in decisions else _skipped_decision(doc, p, thresholds[w])
            for p, w in enumerate(doc.words)]
