"""Seeded synthetic corpora for the search workload.

A corpus is ``N`` unique ``(term, doc, freq)`` postings with terms drawn
from a zipfian distribution (a few very common terms, a long tail) and
docs drawn uniformly. Each posting is packed into a single integer key::

    key = (term * n_docs + doc) * FREQ_CAP + freq

so that sorting by key is exactly the ``(term, doc)`` postings order and
— crucially for counting mode — the frequency needed for DAAT scoring
rides inside the scheduling token. Every data-driven decision downstream
(merge order, skip-block selection, top-k ranking) works on the packed
key alone, which is bit-identical between full and counting machines.

Everything is driven by a :class:`numpy.random.Generator` (or a seed),
matching :mod:`repro.workloads.generators`: the same seed always yields
the same corpus and the same query stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...atoms.atom import Atom, make_tokens
from ..generators import _rng

#: Frequencies are capped at ``FREQ_CAP - 1`` so they fit in the low
#: digits of the packed key. 255 repetitions of one term in one document
#: is plenty for ranking; the cap keeps the encoding a fixed radix.
FREQ_CAP = 256

_INT64_MAX = int(np.iinfo(np.int64).max)


def encode_posting(term: int, doc: int, freq: int, n_docs: int) -> int:
    """Pack ``(term, doc, freq)`` into one sortable integer key."""
    return (term * n_docs + doc) * FREQ_CAP + freq


def decode_posting(key: int, n_docs: int) -> tuple[int, int, int]:
    """Invert :func:`encode_posting`: key → ``(term, doc, freq)``."""
    pair, freq = divmod(key, FREQ_CAP)
    term, doc = divmod(pair, n_docs)
    return term, doc, freq


@dataclass(frozen=True)
class Corpus:
    """A generated corpus: postings in arrival order plus its dimensions."""

    postings: tuple[tuple[int, int, int], ...]
    n_docs: int
    n_terms: int
    #: The packed keys as one int64 array, when the generator that drew
    #: the postings packed them (it does whenever every key fits int64).
    _keys: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.postings)

    def keys(self) -> list[int]:
        """Packed keys in arrival order (the index-build input):
        :func:`encode_posting` of every posting."""
        if self._keys is not None:
            return self._keys.tolist()
        return [encode_posting(t, d, f, self.n_docs) for t, d, f in self.postings]


def _default_dims(N: int, n_docs: int | None, n_terms: int | None) -> tuple[int, int]:
    if n_docs is None:
        n_docs = max(4, N // 8)
    if n_terms is None:
        n_terms = max(4, N // 16)
    return int(n_docs), int(n_terms)


def corpus_postings(
    N: int,
    *,
    n_docs: int | None = None,
    n_terms: int | None = None,
    zipf_a: float = 1.4,
    rng=None,
) -> Corpus:
    """Generate ``N`` unique ``(term, doc, freq)`` postings.

    Terms follow a zipf(``zipf_a``) distribution folded onto
    ``[0, n_terms)``; docs are uniform. Drawing the same ``(term, doc)``
    pair again bumps the frequency of the posting already emitted
    (capped at ``FREQ_CAP - 1``) rather than adding a duplicate, so the
    ``(term, doc)`` pairs — and hence the packed keys — are unique.
    """
    n_docs, n_terms = _default_dims(N, n_docs, n_terms)
    if N > n_docs * n_terms:
        raise ValueError(
            f"cannot draw {N} unique postings from "
            f"{n_terms} terms x {n_docs} docs"
        )
    terms, docs, freqs = _draw_postings(N, n_docs, n_terms, zipf_a, _rng(rng))
    postings = tuple(zip(terms.tolist(), docs.tolist(), freqs.tolist()))
    keys = None
    if n_terms * n_docs * FREQ_CAP <= _INT64_MAX:
        keys = (terms * n_docs + docs) * FREQ_CAP + freqs
    return Corpus(postings=postings, n_docs=n_docs, n_terms=n_terms, _keys=keys)


def _draw_postings(
    N: int, n_docs: int, n_terms: int, zipf_a: float, r: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The term, doc and freq columns of :func:`corpus_postings`, in
    arrival order.

    Batches are drawn as a per-draw loop would draw them: a batch of
    ``max(256, 2 * (pairs still missing))`` zipf terms, then as many
    docs, cut at the draw that brings the N-th new pair. Only draws
    before the cut count, and ``r`` ends where that loop leaves it.
    """
    seen_terms = seen_docs = np.empty(0, dtype=np.int64)  # new pairs so far
    kept_terms = [seen_terms]  # the draws before the cut, batch by batch
    kept_docs = [seen_docs]
    found = 0
    while found < N:
        batch = max(256, (N - found) * 2)
        terms = r.zipf(zipf_a, size=batch)
        terms -= 1
        terms %= n_terms
        docs = r.integers(0, n_docs, size=batch)
        first, _ = _first_draws(
            np.concatenate([seen_terms, terms]), np.concatenate([seen_docs, docs])
        )
        new = first[first >= found] - found  # batch positions of new pairs
        if found + len(new) >= N:
            new = new[: N - found]
            terms, docs = terms[: new[-1] + 1], docs[: new[-1] + 1]
        kept_terms.append(terms)
        kept_docs.append(docs)
        seen_terms = np.concatenate([seen_terms, terms[new]])
        seen_docs = np.concatenate([seen_docs, docs[new]])
        found += len(new)
    terms = np.concatenate(kept_terms)
    docs = np.concatenate(kept_docs)
    first, counts = _first_draws(terms, docs)
    return terms[first], docs[first], np.minimum(counts, FREQ_CAP - 1)


def _first_draws(terms: np.ndarray, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct ``(term, doc)`` pair's first draw position, in draw
    order, and how often the pair was drawn.

    Sort-based: a stable lexicographic sort puts each pair's draws
    together in draw order, so a run's first index is the pair's first
    draw and its length the pair's count. Scattering the counts to the
    first draws puts the pairs in draw order without a second sort.
    """
    order = np.lexsort((docs, terms))
    t, d = terms[order], docs[order]
    run_start = np.ones(len(order), dtype=bool)
    run_start[1:] = (t[1:] != t[:-1]) | (d[1:] != d[:-1])
    starts = np.flatnonzero(run_start)
    counts = np.zeros(len(order), dtype=np.intp)  # indexed by first draw
    counts[order[starts]] = np.diff(starts, append=len(order))
    first = np.flatnonzero(counts)
    return first, counts[first]


def posting_atoms(corpus: Corpus) -> list[Atom]:
    """Full-mode input: one :class:`Atom` per posting, keyed by packed key."""
    return [Atom(key, uid) for uid, key in enumerate(corpus.keys())]


def posting_tokens(corpus: Corpus) -> list[tuple[int, int]]:
    """Counting-mode input: bare ``(key, uid)`` scheduling tokens.

    Tuples are self-tokens under :func:`repro.machine.phantom.token_of`,
    so loading these onto a counting machine stashes exactly the tokens
    an Atom would produce — without materializing a million Atoms.
    """
    return make_tokens(corpus.keys())


def query_stream(
    q: int,
    *,
    n_terms: int,
    terms_per_query: int = 2,
    zipf_a: float = 1.4,
    rng=None,
) -> list[tuple[int, ...]]:
    """``q`` queries, each a tuple of distinct zipf-distributed terms.

    Drawn from the same folded-zipf term distribution as the corpus, so
    frequent terms are queried frequently — the realistic hot-list case
    for DAAT evaluation.
    """
    if terms_per_query < 1:
        raise ValueError("terms_per_query must be >= 1")
    if terms_per_query > n_terms:
        raise ValueError(
            f"cannot draw {terms_per_query} distinct terms from {n_terms}"
        )
    r = _rng(rng)
    queries: list[tuple[int, ...]] = []
    for _ in range(q):
        picked: dict[int, None] = {}
        while len(picked) < terms_per_query:
            need = terms_per_query - len(picked)
            draw = (r.zipf(zipf_a, size=max(4, 2 * need)) - 1) % n_terms
            for t in draw.tolist():
                picked.setdefault(int(t), None)
                if len(picked) == terms_per_query:
                    break
        queries.append(tuple(picked))
    return queries
