"""Independent oracle implementations used to verify the package.

Everything here is deliberately written from first principles (enumeration,
exact tails, grid search) and stays independent of the code paths it
checks. The ``pr`` section keeps that score's first implementation, with
separate code for ranks and bounds, as the reference for the package's one
score function. The last section holds the test-only entry points: the
synthetic generator's labeling rule, and one token's anchor test run through
the package's own round loop.
"""

from __future__ import annotations

import math
import unicodedata

import numpy as np
from scipy import sparse, stats

from anchoragg.anchor import AnchorDecision, _sequential_tests


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


# -- the `pr` score as first implemented: ranks and optimistic bounds --------


def pr_raw_estimates(a_plus, a_minus, alpha: float):
    """Raw estimates (q, p) over the given count vectors; totals must be > 0."""
    total_plus = a_plus.sum()
    total_minus = a_minus.sum()
    if total_plus <= 0 or total_minus <= 0:
        raise ValueError("model undefined: both anchor and non-anchor totals "
                         "must be positive")
    p = a_minus / total_minus
    q = (1.0 / alpha) * (a_plus / total_plus) - (1.0 / alpha - 1.0) * p
    return q, p


def pr_smooth(q):
    """Additive shift by |min| then renormalize; identity when min >= 0.
    Returns the smoothed vector and the min."""
    q_min = float(q.min())
    if q_min >= 0:
        return q.copy(), q_min
    beta = abs(q_min)
    return (q + beta) / (1.0 + q.size * beta), q_min


def pr_rank_values(a_plus, a_minus, alpha: float) -> np.ndarray:
    """The smoothed estimate over the whole vocabulary: 0 where a word is
    unseen, and 0 everywhere while either total is 0."""
    seen = (a_plus + a_minus) > 0
    values = np.zeros(a_plus.size)
    if a_plus.sum() and a_minus.sum():
        values[seen] = pr_smooth(pr_raw_estimates(a_plus[seen], a_minus[seen], alpha)[0])[0]
    return values


def pr_upper_bounds(a_plus, a_minus, alpha: float, remaining) -> np.ndarray:
    """Each word's remaining occurrences all anchors (its numerator and the
    anchor total both grow), mapped through the current smoothing; the rank
    value where nothing remains, and inf everywhere while either total is 0."""
    current = pr_rank_values(a_plus, a_minus, alpha)
    total_plus, total_minus = int(a_plus.sum()), int(a_minus.sum())
    if total_plus == 0 or total_minus == 0:
        return np.where(remaining == 0, current, np.inf)
    seen = (a_plus + a_minus) > 0
    q_min = pr_smooth(pr_raw_estimates(a_plus[seen], a_minus[seen], alpha)[0])[1]
    beta = abs(q_min) if q_min < 0 else 0.0
    inv_alpha = 1.0 / alpha
    q = inv_alpha * (a_plus + remaining) / (total_plus + remaining) \
        - (inv_alpha - 1.0) * a_minus / total_minus
    bounds = (q + beta) / (1.0 + int(seen.sum()) * beta)
    return np.where(remaining == 0, current, bounds)


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


def bow_fit_with_scipy(docs, y, epochs, learning_rate, l2, seed, val_fraction):
    """``(weights, bias, losses, best_epoch)`` of ``BowClassifier.fit`` as
    it was written on a scipy CSR count matrix: the sparse products sum in
    scipy's ``csr_matvecs`` / ``csc_matvecs`` order."""
    docs = [tuple(d) for d in docs]
    classes = sorted(set(y))
    vocab = {w: j for j, w in enumerate(sorted({w for d in docs for w in d}))}
    lengths = [len(d) for d in docs]
    ids = [vocab[w] for d in docs for w in d]
    X = sparse.csr_matrix(
        (np.ones(len(ids)), (np.repeat(np.arange(len(docs)), lengths), ids)),
        shape=(len(docs), len(vocab)))
    order = np.random.default_rng(seed).permutation(len(docs))
    n_val = int(val_fraction * len(docs))
    val_idx, train_idx = order[:n_val], order[n_val:]
    y_idx = np.asarray([classes.index(label) for label in y])
    X_train, y_train = X[train_idx], y_idx[train_idx]
    X_val, y_val = X[val_idx], y_idx[val_idx]
    n, v = X_train.shape
    c = len(classes)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y_train] = 1.0
    W = np.zeros((v, c))
    b = np.zeros(c)
    best = (-np.inf, 0, W.copy(), b.copy())
    losses = []
    for epoch in range(epochs):
        logits = X_train @ W + b
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = exp / exp.sum(axis=-1, keepdims=True)
        nll = -np.mean(np.log(np.clip(probs[np.arange(n), y_train], 1e-300, None)))
        losses.append(nll + l2 * float(np.sum(W * W)))
        grad_logits = (probs - onehot) / n
        W -= learning_rate * (X_train.T @ grad_logits + 2.0 * l2 * W)
        b -= learning_rate * grad_logits.sum(axis=0)
        if n_val:
            val_acc = float(np.mean(np.argmax(X_val @ W + b, axis=1) == y_val))
            if val_acc > best[0]:
                best = (val_acc, epoch, W.copy(), b.copy())
    if n_val:
        _, best_epoch, W, b = best
    else:
        best_epoch = epochs - 1
    return W, b, losses, best_epoch


# -- the tokenizer's character loop ------------------------------------------


def tokenize_by_loop(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, then strip every leading and
    trailing character of a ``P*`` category, one at a time; empty results
    are dropped."""
    words = []
    for chunk in text.lower().split():
        start, end = 0, len(chunk)
        while start < end and unicodedata.category(chunk[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(chunk[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            words.append(chunk[start:end])
    return words


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


def bow_logits_by_column(clf, ids) -> np.ndarray:
    """Logits of an ``(n, m)`` id matrix summed one word column at a time:
    ``bias`` plus the weights (a zero row for an out-of-vocabulary id)."""
    padded = np.vstack([clf.weights_, np.zeros((1, clf.weights_.shape[1]))])
    logits = np.repeat(clf.bias_[None, :], len(ids), axis=0)
    for col in np.ascontiguousarray(ids.T):
        logits += padded.take(col, axis=0)
    return logits


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


def sample_round_by_token(pert, doc_ids, doc_of, positions, n, rngs, fill_ids,
                          pad) -> np.ndarray:
    """A round's rows drawn one token at a time, as a test of each token
    alone draws them: mask coins for the free positions of the token's
    document ``doc_ids[doc_of[t]]``, ``rng.choice`` for the fills, each row
    padded at its end with ``pad`` to the longest of the tokens' documents,
    the blocks stacked in token order."""
    width = max((len(doc_ids[d]) for d in doc_of), default=0)
    blocks = [np.empty((0, width), dtype=np.intp)]
    for d, pos, rng in zip(doc_of, positions, rngs):
        ids = np.asarray(doc_ids[d], dtype=np.intp)
        block = np.full((n, width), pad, dtype=np.intp)
        block[:, :ids.size] = ids
        free = np.asarray([i for i in range(ids.size) if i != pos], dtype=np.intp)
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


def hoeffding_bounds(successes, trials, delta) -> tuple[float, float]:
    """The empirical rate minus and plus Hoeffding's half-width, clipped to
    [0, 1]."""
    half = math.sqrt(math.log(2.0 / delta) / (2.0 * trials))
    point = successes / trials
    return max(0.0, point - half), min(1.0, point + half)


def sequential_test_by_token(doc, position, predictor, perturbator, cfg,
                             rng, target_idx, bounds=hoeffding_bounds):
    """(is_anchor, successes, trials) of one token, tested on its own:
    batches until ``bounds(successes, trials, cfg.delta)``, computed after
    every batch, clears ``cfg.tau`` or the budget ends."""
    tau = cfg.tau
    successes = trials = 0
    while trials < cfg.max_samples:
        batch = min(cfg.batch_size, cfg.max_samples - trials)
        samples = perturbator.sample_batch(doc, (position,), batch, rng)
        probs = predictor.predict_proba_many(samples)
        successes += int(np.sum(np.argmax(probs, axis=1) == target_idx))
        trials += batch
        lower, upper = bounds(successes, trials, cfg.delta)
        if lower >= tau:
            return True, successes, trials
        if upper < tau:
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


# -- test-only entry points ---------------------------------------------------


def planted_label(words, truth):
    """The generator's noiseless labeling rule for a word sequence.

    Majority class of the planted signal words; singleton pathology words
    carry their recorded class. None when the rule does not apply (no
    signal at all or an exact tie).
    """
    hits = {c: sum(1 for w in words if w in ws) for c, ws in truth.signal.items()}
    for c, ws in truth.singletons.items():
        hits[c] = hits.get(c, 0) + sum(1 for w in words if w in ws)
    best = sorted(hits.items(), key=lambda kv: (-kv[1], kv[0]))
    if best[0][1] == 0 or (len(best) > 1 and best[0][1] == best[1][1]):
        return None
    return best[0][0]


def estimate_token(doc, position, predictor, perturbator, cfg, rng, target=None):
    """One token's anchor decision, from the package's round loop run with
    that position alone; ``target`` defaults to the document's predicted
    class."""
    if not 0 <= position < len(doc.words):
        raise ValueError(f"position {position} outside document {doc.id!r}")
    if target is None:
        target = predictor.predict(doc)
    verdicts, successes, samples = _sequential_tests(
        [doc], np.zeros(1, dtype=np.intp), np.asarray([position], dtype=np.intp),
        [rng], np.asarray([predictor.class_index(target)]), predictor, perturbator,
        cfg)
    return AnchorDecision(doc.words[position], position, bool(verdicts[0]),
                          int(successes[0]), int(samples[0]))
