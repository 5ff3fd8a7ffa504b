"""Golden cost regression tests.

Every algorithm's exact (Qr, Qw, T, peak memory) on one pinned reference
instance. The simulator's counters are deterministic, so any change here
is a *behavioral* change to an algorithm or to the cost accounting —
possibly intended (update the constants, note it in the commit), never
accidental. The search rows are asserted in full and counting mode, so a
counting kernel that drifts from the full reference fails here too.

Reference instance: (M=64, B=8, omega=4); sorting N=2000 uniform keys
(seed 42), permuting N=1024 random (seed 42), SpMxV N=256, delta=4
random conformation (seed 42), and the search workload on N=2000
postings (seed 42, 64 queries).
"""

import pytest

from repro.core.params import AEMParams
from repro.api.measures import measure_permute, measure_sort, measure_spmxv
from repro.machine.aem import AEMMachine
from repro.workloads.search import (
    build_index,
    corpus_postings,
    measure_index_build,
    measure_search_query,
    posting_atoms,
    posting_tokens,
    query_stream,
    run_queries,
)

P = AEMParams(M=64, B=8, omega=4)

# (name, Qr, Qw, T, peak_mem)
SORT_GOLDEN = [
    ("aem_mergesort", 4848, 613, 17048, 80),
    ("aem_samplesort", 1730, 560, 11513, 72),
    ("aem_heapsort", 2857, 575, 9867, 80),
    ("aem_pqsort", 5355, 1129, 23073, 126),
    ("em_mergesort", 750, 750, 6000, 64),
]

PERMUTE_GOLDEN = [
    ("naive", 1015, 128, 1024, 16),
    ("sort_based", 2634, 564, 8192, 80),
]

SPMXV_GOLDEN = [
    ("naive", 1993, 32, 2048, 24),
    ("sort_based", 915, 403, 7041, 72),
]

# (workload, query mode, (Qr, Qw, T, peak_mem)). The search rows price
# the query phase alone, but their peak is the machine's lifetime peak,
# which the build sets; QUERY_PHASE_GOLDEN pins the serving peak.
SEARCH_GOLDEN = [
    ("index_build", None, (2592, 989, 14448, 104)),
    ("search_query", "and", (1837, 0, 19998, 104)),
    ("search_query", "or", (2182, 0, 37103, 104)),
]

# (mode, terms per query, (delta Qr, delta T, query-phase peak)) over
# corpus_postings(2000, rng=42) with 64 queries drawn from rng=43, k=5.
QUERY_PHASE_GOLDEN = [
    ("and", 3, (1693, 14780, 45)),
    ("or", 2, (2215, 38900, 21)),
]


def _ids(rows):
    # The ids predate the T/peak columns; keep them stable.
    return [f"{r[0]}-{r[1]}-{r[2]}" for r in rows]


def _row(rec):
    return (rec.Qr, rec.Qw, rec.T, rec.peak_mem)


@pytest.mark.parametrize("name,qr,qw,t,peak", SORT_GOLDEN, ids=_ids(SORT_GOLDEN))
def test_sorter_costs_pinned(name, qr, qw, t, peak):
    rec = measure_sort(name, 2000, P, seed=42)
    assert _row(rec) == (qr, qw, t, peak)


@pytest.mark.parametrize(
    "name,qr,qw,t,peak", PERMUTE_GOLDEN, ids=_ids(PERMUTE_GOLDEN)
)
def test_permuter_costs_pinned(name, qr, qw, t, peak):
    rec = measure_permute(name, 1024, P, seed=42)
    assert _row(rec) == (qr, qw, t, peak)


@pytest.mark.parametrize("name,qr,qw,t,peak", SPMXV_GOLDEN, ids=_ids(SPMXV_GOLDEN))
def test_spmxv_costs_pinned(name, qr, qw, t, peak):
    rec = measure_spmxv(name, 256, 4, P, seed=42)
    assert _row(rec) == (qr, qw, t, peak)


@pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
@pytest.mark.parametrize(
    "workload,mode,golden", SEARCH_GOLDEN, ids=["index", "search-and", "search-or"]
)
def test_search_costs_pinned(workload, mode, golden, counting):
    if workload == "index_build":
        rec = measure_index_build(2000, P, seed=42, counting=counting)
    else:
        rec = measure_search_query(
            2000, P, seed=42, n_queries=64, mode=mode, counting=counting
        )
    assert _row(rec) == golden


@pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
@pytest.mark.parametrize(
    "mode,terms,golden", QUERY_PHASE_GOLDEN, ids=["and3", "or2"]
)
def test_query_phase_peak_pinned(mode, terms, golden, counting):
    corpus = corpus_postings(2000, rng=42)
    m = AEMMachine.for_algorithm(P, counting=counting)
    items = posting_tokens(corpus) if counting else posting_atoms(corpus)
    index = build_index(
        m, m.load_input(items), P, n_docs=corpus.n_docs, n_terms=corpus.n_terms
    )
    queries = query_stream(
        64, n_terms=corpus.n_terms, terms_per_query=terms, rng=43
    )
    base = m.snapshot()
    m.mem.peak = m.mem.occupancy  # from here on, the serving peak alone
    run_queries(m, index, queries, P, k=5, mode=mode)
    delta = m.snapshot() - base
    assert delta.writes == 0
    assert (delta.reads, delta.touches, m.mem.peak) == golden
    assert m.mem.occupancy == 0


def test_total_cost_formula_consistency():
    """Q must always equal Qr + omega*Qw — the model's definition."""
    for name, *_ in SORT_GOLDEN:
        rec = measure_sort(name, 2000, P, seed=42)
        assert rec["Q"] == rec["Qr"] + P.omega * rec["Qw"]
