"""The reference task: a fixed amount of work of the benchmark's own.

``run.py`` runs it between the workload's executions and reports each
execution's wall time as a multiple of the reference's wall time next to it.
On a shared host the speed of a core drifts with the neighbours' load. Work
of the same kind slows down by about the same factor, so the ratio is
steadier than either time.

The work is the kind the program's sample path does today: a fresh
interpreter that imports numpy and scipy, then batches of masked
perturbations of a document refilled from a weighted word pool, each row
scored by a bag-of-words logistic model summed word by word and a softmax.
It uses only the standard library and numpy and does not import anchoragg,
so no change to the program can move its time. It prints a checksum of
what it computed.

    python3 bench/reference.py
"""

from __future__ import annotations

import numpy as np
import scipy.special  # noqa: F401  (the CLI's import cost)

VOCAB = 2000
POOL = 500
DOCS = 40
DOC_WORDS = 30
BATCHES = 800
ROWS = 10
MASK_PROB = 0.5


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def main() -> None:
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(VOCAB)]
    index = {w: j for j, w in enumerate(vocab)}
    weights = rng.standard_normal((VOCAB, 2))
    bias = np.zeros(2)
    pool = np.asarray(vocab[:POOL], dtype=object)
    pool_p = 1.0 / np.arange(1, POOL + 1)
    pool_p /= pool_p.sum()
    docs = [[vocab[j] for j in rng.integers(0, VOCAB, DOC_WORDS)] for _ in range(DOCS)]

    total = 0.0
    for b in range(BATCHES):
        base = docs[b % DOCS]
        keep = {b % DOC_WORDS}
        free = np.asarray([i for i in range(len(base)) if i not in keep], dtype=np.intp)
        masks = rng.random((ROWS, free.size)) < MASK_PROB
        draws = rng.choice(pool.size, size=int(masks.sum()), p=pool_p)
        fill = 0
        rows = []
        for row in range(ROWS):
            words = list(base)
            for j in np.nonzero(masks[row])[0]:
                words[free[j]] = str(pool[draws[fill]])
                fill += 1
            rows.append(tuple(words))
        scored = []
        for words in rows:
            logits = bias.copy()
            for w in words:
                j = index.get(w)
                if j is not None:
                    logits += weights[j]
            scored.append(softmax(logits))
        total += float(np.stack(scored)[:, 0].sum())
    print(f"{total:.6f}")


if __name__ == "__main__":
    main()
