"""Predictor service for the external workload.

Speaks the line-delimited JSON predictor protocol on stdin/stdout and scores
a bag-of-words logistic model file (the format ``anchoragg train`` writes).
The scoring is this file's own code, using only the standard library and
numpy, so a change to the library's classifier cannot move the service's
time. It sums the weight rows in token order and applies the same softmax as
the library, so its probabilities equal the in-process model's bit for bit.

At end of input it writes a JSON report (requests, rows, busy seconds,
errors, CPU seconds, peak RSS) to ``--report`` and exits.

    python3 bench/predictor_service.py --model model.json --report service.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import unicodedata

import numpy as np


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation (the protocol's rule)."""
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


class Scorer:
    def __init__(self, payload: dict):
        self.classes = list(payload["classes"])
        self.index = {w: j for j, w in enumerate(payload["vocabulary"])}
        self.weights = np.asarray(payload["weights"], dtype=np.float64)
        self.bias = np.asarray(payload["bias"], dtype=np.float64)

    def probs(self, text: str) -> list[float]:
        logits = self.bias.copy()
        for word in tokenize(text):
            j = self.index.get(word)
            if j is not None:
                logits += self.weights[j]
        exp = np.exp(logits - logits.max())
        return (exp / exp.sum()).tolist()


def serve(scorer: Scorer, source, sink) -> dict:
    """Answer requests until end of input; returns the service's counters."""
    requests = rows = errors = 0
    busy = 0.0
    while True:
        line = source.readline()
        if not line:
            break
        start = time.perf_counter()
        try:
            texts = json.loads(line)["texts"]
            reply = {"probs": [scorer.probs(t) for t in texts],
                     "classes": scorer.classes}
            rows += len(texts)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            errors += 1
            reply = {"error": f"bad request: {exc}"}
        answer = json.dumps(reply) + "\n"
        # the write can hand the core to the waiting client: it is transport
        busy += time.perf_counter() - start
        sink.write(answer)
        sink.flush()
        requests += 1
    return {"requests": requests, "rows": rows, "errors": errors, "busy_s": busy}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    with open(args.model, encoding="utf-8") as handle:
        scorer = Scorer(json.load(handle))
    report = serve(scorer, sys.stdin, sys.stdout)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report.update(pid=os.getpid(), cpu_s=usage.ru_utime + usage.ru_stime,
                  maxrss_kb=usage.ru_maxrss)
    partial = args.report + ".part"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    os.replace(partial, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
