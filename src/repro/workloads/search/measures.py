"""Canonical measurement functions for the search workloads.

Mirrors :mod:`repro.api.measures`: top-level functions with picklable
arguments, one fresh machine per call, verification in both machine
modes, a typed :class:`~repro.machine.cost.CostRecord` out. Registered in
:mod:`repro.api.registry` as the ``index_build`` and ``search_query``
workloads, so the CLI, the experiments, and the cost-oracle server all
share one cache identity for them.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...core.params import AEMParams
from ...machine.aem import AEMMachine
from ...machine.cost import CostRecord
from ...observe.base import MachineObserver
from .corpus import Corpus, corpus_postings, posting_atoms, posting_tokens, query_stream
from .index import SearchIndex, build_index, verify_index
from .query import reference_search, run_queries


class SearchVerificationError(AssertionError):
    """Query results diverge from the reference evaluation."""


def _build(
    machine: AEMMachine,
    corpus: Corpus,
    params: AEMParams,
    *,
    fanin: Optional[int],
    sorter: str,
) -> SearchIndex:
    items = posting_tokens(corpus) if machine.counting else posting_atoms(corpus)
    addrs = machine.load_input(items)
    return build_index(
        machine,
        addrs,
        params,
        n_docs=corpus.n_docs,
        n_terms=corpus.n_terms,
        fanin=fanin,
        sorter=sorter,
    )


def measure_index_build(
    N: int,
    params: AEMParams,
    *,
    n_docs: Optional[int] = None,
    n_terms: Optional[int] = None,
    zipf_a: float = 1.4,
    fanin: Optional[int] = None,
    sorter: str = "aem_mergesort",
    seed: int = 0,
    slack: float = 4.0,
    verify: bool = True,
    observers: Sequence[MachineObserver] = (),
    counting: bool = False,
) -> CostRecord:
    """Build an index over a seeded N-posting corpus; returns cost fields.

    ``counting=True`` runs on the payload-free fast path, under any
    registered sorter. Verification runs in both modes: the postings,
    skip and lexicon blocks are compared with the reference index token
    by token.
    """
    corpus = corpus_postings(
        N,
        n_docs=n_docs,
        n_terms=n_terms,
        zipf_a=zipf_a,
        rng=np.random.default_rng(seed),
    )
    machine = AEMMachine.for_algorithm(
        params, slack=slack, observers=observers, counting=counting
    )
    index = _build(machine, corpus, params, fanin=fanin, sorter=sorter)
    if verify:
        verify_index(machine, corpus, index)
    return CostRecord.from_snapshot(machine.snapshot(), peak=machine.mem.peak)


def measure_search_query(
    N: int,
    params: AEMParams,
    *,
    n_queries: int = 64,
    k: int = 8,
    mode: str = "and",
    terms_per_query: int = 2,
    n_docs: Optional[int] = None,
    n_terms: Optional[int] = None,
    zipf_a: float = 1.4,
    fanin: Optional[int] = None,
    sorter: str = "aem_mergesort",
    seed: int = 0,
    slack: float = 4.0,
    verify: bool = True,
    observers: Sequence[MachineObserver] = (),
    counting: bool = False,
) -> CostRecord:
    """Serve ``n_queries`` DAAT queries; returns the *query-phase* cost.

    The index is built on the same machine first, then the cost snapshot
    is rebased so the returned record prices serving alone — the
    read-only half of the asymmetry story (``Qw == 0`` by construction,
    asserted by experiment e19). One seed drives corpus then queries, so
    a ``(N, seed)`` pair names one reproducible instance end to end.
    ``peak_mem`` remains the machine-lifetime peak (the build dominates).
    """
    rng = np.random.default_rng(seed)
    corpus = corpus_postings(
        N, n_docs=n_docs, n_terms=n_terms, zipf_a=zipf_a, rng=rng
    )
    queries = query_stream(
        n_queries,
        n_terms=corpus.n_terms,
        terms_per_query=terms_per_query,
        zipf_a=zipf_a,
        rng=rng,
    )
    machine = AEMMachine.for_algorithm(
        params, slack=slack, observers=observers, counting=counting
    )
    index = _build(machine, corpus, params, fanin=fanin, sorter=sorter)
    base = machine.snapshot()
    results = run_queries(machine, index, queries, params, k=k, mode=mode)
    if verify:
        # Results are token-derived, so this referee check runs in *both*
        # modes — counting changes nothing the ranking can observe.
        expect = reference_search(corpus, queries, k=k, mode=mode)
        if results != expect:
            bad = next(i for i, (r, e) in enumerate(zip(results, expect)) if r != e)
            raise SearchVerificationError(
                f"query {bad}: got {results[bad]!r}, expected {expect[bad]!r}"
            )
    return CostRecord.from_snapshot(
        machine.snapshot() - base, peak=machine.mem.peak
    )
