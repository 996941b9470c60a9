"""Independent oracle implementations used to verify the package.

Everything here is deliberately written from first principles (enumeration,
exact tails, grid search) and stays independent of the code paths it
checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


# -- generative-mixture log-likelihood and its grid maximum -----------------


def loglik(a_plus, a_minus, alpha, q, p) -> float:
    """sum A+ log(alpha q + (1-alpha) p) + A- log p, with -inf conventions."""
    a_plus = np.asarray(a_plus, dtype=float)
    a_minus = np.asarray(a_minus, dtype=float)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    mix = alpha * q + (1.0 - alpha) * p
    total = 0.0
    for counts, prob in ((a_plus, mix), (a_minus, p)):
        hot = counts > 0
        if np.any(prob[hot] <= 0.0):
            return -np.inf
        total += float(np.sum(counts[hot] * np.log(prob[hot])))
    return total


def simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All integer compositions of `steps` into `dim` parts, as an array."""
    if dim == 1:
        return np.array([[steps]], dtype=np.int64)
    rows = []
    for first in range(steps + 1):
        rest = simplex_grid(dim - 1, steps - first)
        block = np.empty((rest.shape[0], dim), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.concatenate(rows, axis=0)


def _greedy_q_max(a_plus: np.ndarray, alpha: float, base_mix: np.ndarray,
                  steps: int) -> np.ndarray:
    """Exact max over the q-grid of sum A+ log(alpha q + base_mix) per row.

    base_mix has shape (rows, W): the (1-alpha)p contribution. Separable
    concave allocation, so assigning the `steps` probability units greedily
    by marginal gain is exactly optimal on the grid.
    """
    rows, w = base_mix.shape
    unit = alpha / steps
    mix = base_mix.astype(float).copy()
    hot = a_plus > 0
    for _ in range(steps):
        gain = np.full((rows, w), -1.0)
        with np.errstate(divide="ignore"):
            diff = np.log(mix[:, hot] + unit) - np.log(mix[:, hot])
        gain[:, hot] = a_plus[hot] * diff
        pick = np.argmax(gain, axis=1)
        mix[np.arange(rows), pick] += unit
    value = np.zeros(rows)
    for j in range(w):
        if hot[j]:
            with np.errstate(divide="ignore"):
                value += a_plus[j] * np.log(mix[:, j])
    return value


def grid_max_loglik(a_plus, a_minus, alpha: float, steps: int = 50) -> float:
    """Maximum log-likelihood over both probability simplices on the grid
    with spacing 1/steps."""
    a_plus = np.asarray(a_plus, dtype=float)
    a_minus = np.asarray(a_minus, dtype=float)
    w = len(a_plus)
    grid = simplex_grid(w, steps) / steps
    with np.errstate(divide="ignore"):
        logp = np.log(grid)
    base = np.zeros(len(grid))
    for j in range(w):
        if a_minus[j] > 0:
            base += a_minus[j] * logp[:, j]
    if alpha >= 1.0:
        cross = _greedy_q_max(a_plus, 1.0, np.zeros((1, w)), steps)[0]
        return float(np.max(base) + cross)
    cross = _greedy_q_max(a_plus, alpha, (1.0 - alpha) * grid, steps)
    return float(np.max(base + cross))


def grid_max_loglik_brute(a_plus, a_minus, alpha: float, steps: int = 50) -> float:
    """Reference double enumeration; only viable for small word counts."""
    a_plus = np.asarray(a_plus, dtype=float)
    a_minus = np.asarray(a_minus, dtype=float)
    w = len(a_plus)
    grid = simplex_grid(w, steps) / steps
    best = -np.inf
    for p in grid:
        base = loglik(np.zeros(w), a_minus, alpha, p, p)
        if base == -np.inf:
            continue
        mix = alpha * grid + (1.0 - alpha) * p
        with np.errstate(divide="ignore"):
            logmix = np.log(mix)
        cross = np.full(len(grid), 0.0)
        bad = np.zeros(len(grid), dtype=bool)
        for j in range(w):
            if a_plus[j] > 0:
                bad |= mix[:, j] <= 0
                cross += np.where(mix[:, j] > 0, a_plus[j] * logmix[:, j], 0.0)
        cross[bad] = -np.inf
        best = max(best, base + float(np.max(cross)))
    return best


def closed_form_estimates(a_plus, a_minus, alpha: float):
    """(q_tilde, p_tilde) of the mixture, computed straight from the formulas."""
    a_plus = np.asarray(a_plus, dtype=float)
    a_minus = np.asarray(a_minus, dtype=float)
    p = a_minus / a_minus.sum()
    q = (1.0 / alpha) * a_plus / a_plus.sum() - (1.0 / alpha - 1.0) * p
    return q, p


# -- exact binomial coverage of a confidence interval ------------------------


def interval_coverage(interval_fn, n: int, p: float) -> float:
    """P[ lower(S) <= p <= upper(S) ] for S ~ Binomial(n, p), exactly."""
    total = 0.0
    for s in range(n + 1):
        lower, upper = interval_fn(s, n)
        if lower <= p <= upper:
            total += stats.binom.pmf(s, n, p)
    return float(total)


# -- Monte Carlo precision of a (predictor, perturbator) pair ----------------


def mc_precision(doc, position, predictor, perturbator, rng, n: int = 100_000
                 ) -> float:
    """Empirical probability that perturbations keeping one token preserve
    the prediction; brute-force sampling, no early stopping."""
    target = predictor.predict(doc)
    target_idx = predictor.class_index(target)
    hits = 0
    done = 0
    while done < n:
        batch = min(5000, n - done)
        samples = perturbator.sample_batch(doc, (position,), batch, rng)
        probs = predictor.predict_proba_many(samples)
        hits += int(np.sum(np.argmax(probs, axis=1) == target_idx))
        done += batch
    return hits / n


# -- hand-rolled gradient-descent steps for the bag-of-words trainer ---------


def gd_steps_by_hand(X: np.ndarray, y_idx: np.ndarray, n_classes: int,
                     lr: float, l2: float, epochs: int):
    """Reference full-batch multinomial logistic regression updates."""
    n, v = X.shape
    W = np.zeros((v, n_classes))
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_idx] = 1.0
    for _ in range(epochs):
        logits = X @ W + b
        z = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        grad = (probs - onehot) / n
        W = W - lr * (X.T @ grad + 2.0 * l2 * W)
        b = b - lr * grad.sum(axis=0)
    return W, b


# -- per-row and per-token loops of the sample path ---------------------------


def bow_proba_by_loop(clf, words) -> np.ndarray:
    """Class probabilities of one word sequence, summing the weight rows of
    its in-vocabulary words one at a time, left to right."""
    logits = clf.bias_.copy()
    for w in words:
        j = clf._vocab_index_.get(w)
        if j is not None:
            logits += clf.weights_[j]
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def unigram_fill_by_loop(pert, doc, keep, n, rng) -> list[tuple[str, ...]]:
    """Perturbations drawn one masked slot at a time: mask coins for all
    free positions, ``rng.choice`` for the fills, then a row-by-row fill."""
    m = len(doc.words)
    keep_set = set(keep)
    free = np.asarray([i for i in range(m) if i not in keep_set], dtype=np.intp)
    base = list(doc.words)
    if free.size == 0 or n == 0:
        return [tuple(base)] * n
    masks = rng.random((n, free.size)) < pert.mask_prob
    total = int(masks.sum())
    if total:
        draws = rng.choice(pert.pool_words.size, size=total, p=pert.pool_weights)
    fill = 0
    out = []
    for row in range(n):
        words = list(base)
        for j in np.nonzero(masks[row])[0]:
            words[free[j]] = str(pert.pool_words[draws[fill]])
            fill += 1
        out.append(tuple(words))
    return out


def sample_round_by_token(pert, doc_ids, positions, n, rngs, fill_ids) -> np.ndarray:
    """A round's rows drawn one token at a time, as a test of each token
    alone draws them: mask coins for the token's free positions,
    ``rng.choice`` for the fills, the blocks stacked in token order."""
    doc_ids = np.asarray(doc_ids, dtype=np.intp)
    blocks = [np.empty((0, doc_ids.size), dtype=np.intp)]
    for pos, rng in zip(positions, rngs):
        block = np.tile(doc_ids, (n, 1))
        free = np.asarray([i for i in range(doc_ids.size) if i != pos], dtype=np.intp)
        if free.size and n:
            masks = rng.random((n, free.size)) < pert.mask_prob
            total = int(masks.sum())
            if total:
                draws = rng.choice(len(fill_ids), size=total, p=pert.pool_weights)
                rows, cols = masks.nonzero()
                block[rows, free[cols]] = fill_ids[draws]
        blocks.append(block)
    return np.concatenate(blocks)


def rank_words_by_sort(words, values, k=None) -> list[tuple[str, float]]:
    """(word, score) pairs sorted by descending score then word, NaN left
    out, cut to the first k."""
    scored = [(w, float(v)) for w, v in zip(words, values) if not math.isnan(v)]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored if k is None else scored[:k]


def sequential_test_by_token(doc, position, predictor, perturbator, cfg,
                             rng, target_idx):
    """(is_anchor, successes, trials) of one token, tested on its own:
    batches until a Hoeffding bound clears ``cfg.tau`` or the budget ends."""
    tau = cfg.tau
    successes = trials = 0
    while trials < cfg.max_samples:
        batch = min(cfg.batch_size, cfg.max_samples - trials)
        samples = perturbator.sample_batch(doc, (position,), batch, rng)
        probs = predictor.predict_proba_many(samples)
        successes += int(np.sum(np.argmax(probs, axis=1) == target_idx))
        trials += batch
        half = math.sqrt(math.log(2.0 / cfg.delta) / (2.0 * trials))
        point = successes / trials
        if max(0.0, point - half) >= tau:
            return True, successes, trials
        if min(1.0, point + half) < tau:
            return False, successes, trials
    return successes / trials >= tau, successes, trials


def aopc_by_document(words, corpus, predictor, c) -> np.ndarray:
    """Per-prefix AOPC drops, scoring one document or prefix per call."""
    class_docs = [d for d in corpus if predictor.predict(d) == c]
    c_idx = predictor.class_index(c)
    drops = np.zeros(len(words))
    for doc in class_docs:
        if not set(words).intersection(doc.words):
            continue
        base = predictor.predict_proba_words(doc.words)[c_idx]
        for i in range(1, len(words) + 1):
            removed = set(words[:i])
            kept = [w for w in doc.words if w not in removed]
            drops[i - 1] += base - predictor.predict_proba_words(kept)[c_idx]
    return drops / len(class_docs)
