#!/usr/bin/env python
"""Large-N smoke test for the bulk instance generators.

Builds three instances at sizes the unit tests cannot reach, asserts
their invariants and prints how long each took:

1. a 10**6-posting search corpus: N postings, unique ``(term, doc)``
   pairs, terms and docs inside the corpus dimensions, frequencies in
   ``1 .. FREQ_CAP - 1``, and one packed key per posting, all distinct;
2. an N = 10**6, delta = 4 SpMxV conformation (Floyd's algorithm, all
   columns drawn at once);
3. an N = 20000, delta = 401 conformation, past numpy's tail-shuffle
   threshold, where the columns are drawn one ``rng.choice`` at a time.

Each conformation must hold exactly delta rows per column, strictly
increasing within ``[0, N)``. At this scale an index dtype that is too
narrow or a per-item object blow-up fails loudly; tier-1 sizes cannot
show either.

Run from the repository root::

    PYTHONPATH=src python scripts/generator_smoke.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.spmxv.matrix import Conformation
from repro.workloads.search.corpus import FREQ_CAP, corpus_postings

CORPUS_N = 10**6
CONFORMATIONS = ((10**6, 4), (20000, 401))


def timed(label, build):
    start = time.perf_counter()
    out = build()
    print(f"{label}: {time.perf_counter() - start:.2f} s", flush=True)
    return out


def check_corpus(seed: int) -> list[str]:
    corpus = timed(
        f"corpus_postings({CORPUS_N})", lambda: corpus_postings(CORPUS_N, rng=seed)
    )
    keys = timed("Corpus.keys()", corpus.keys)
    postings = np.array(corpus.postings, dtype=np.int64).reshape(-1, 3)
    terms, docs, freqs = postings.T
    pairs = np.unique(terms * corpus.n_docs + docs)
    problems = []
    if len(postings) != CORPUS_N:
        problems.append(f"corpus has {len(postings)} postings, expected {CORPUS_N}")
    if len(pairs) != len(postings):
        problems.append(f"{len(postings) - len(pairs)} repeated (term, doc) pairs")
    if terms.min() < 0 or terms.max() >= corpus.n_terms:
        problems.append("a term lies outside [0, n_terms)")
    if docs.min() < 0 or docs.max() >= corpus.n_docs:
        problems.append("a doc lies outside [0, n_docs)")
    if freqs.min() < 1 or freqs.max() > FREQ_CAP - 1:
        problems.append(f"a frequency lies outside 1..{FREQ_CAP - 1}")
    if len(keys) != len(postings) or len(set(keys)) != len(keys):
        problems.append("packed keys are not one distinct key per posting")
    return problems


def check_conformation(N: int, delta: int, seed: int) -> list[str]:
    conf = timed(
        f"Conformation.random({N}, {delta})",
        lambda: Conformation.random(N, delta, seed),
    )
    rows = np.array(conf.cols, dtype=np.int64)
    if rows.shape != (N, delta):
        return [f"({N}, {delta}) conformation has shape {rows.shape}"]
    if rows.min() < 0 or rows.max() >= N:
        return [f"({N}, {delta}) conformation has a row outside [0, N)"]
    if not (rows[:, 1:] > rows[:, :-1]).all():
        return [f"({N}, {delta}) conformation has rows not strictly increasing"]
    return []


def main() -> int:
    problems = check_corpus(seed=0)
    for N, delta in CONFORMATIONS:
        problems += check_conformation(N, delta, seed=0)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("generator smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
