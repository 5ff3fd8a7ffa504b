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

BENCH_GOLDEN pins the ``repro-aem bench`` suite's 14 cases at
(M=128, B=16, omega=8) with their default seeds, values from
``benchmarks/BENCH_baseline.json``: the merge at 20 runs, and the
counting twins next to their full cases. The instances are restated
here rather than imported from the suite, so the pins outlive it.
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


# (case, (Q, Qr, Qw, T, peak_mem)) — the bench suite's names and instances.
BENCH_GOLDEN = [
    ("index/build/n8000", (26361, 7137, 2403, 88478, 178)),
    ("index/build/n8000/counting", (26361, 7137, 2403, 88478, 178)),
    ("micro/scan_copy/B128n200000", (84402, 9378, 9378, 0, 128)),
    ("micro/scan_copy/B128n200000/counting", (84402, 9378, 9378, 0, 128)),
    ("permute/adaptive/n16384", (24555, 16363, 1024, 16384, 32)),
    ("permute/naive/n8192", (12273, 8177, 512, 8192, 32)),
    ("search/and/n4000q128", (3743, 3743, 0, 78752, 182)),
    ("search/and/n4000q128/counting", (3743, 3743, 0, 78752, 182)),
    ("sort/aem_mergesort/n20000", (71130, 46842, 3036, 371808, 160)),
    ("sort/aem_mergesort/n20000/counting", (71130, 46842, 3036, 371808, 160)),
    ("sort/aem_samplesort/n20000", (36745, 15929, 2602, 232793, 144)),
    ("sort/em_mergesort/n20000", (45000, 5000, 5000, 80000, 128)),
    ("spmxv/sort_based/n1024d4", (9275, 2851, 803, 44565, 144)),
    ("spmxv/sort_based/n1024d4/counting", (9275, 2851, 803, 44565, 144)),
]

BENCH_P = AEMParams(M=128, B=16, omega=8)


def _scan_copy_passes(counting, n=200_000, B=128, passes=6):
    from repro.atoms.atom import make_atoms
    from repro.machine.cost import CostRecord
    from repro.machine.streams import scan_copy

    m = AEMMachine.for_algorithm(AEMParams(M=8 * B, B=B, omega=8), counting=counting)
    addrs = m.load_input(make_atoms(range(n)))
    for _ in range(passes):
        scan_copy(m, addrs)
    return CostRecord.from_snapshot(m.snapshot(), peak=m.core.mem.peak)


#: case name (less its ``/counting`` suffix) -> run(counting)
BENCH_RUNS = {
    "index/build/n8000": lambda c: measure_index_build(
        8000, BENCH_P, counting=c, verify=False
    ),
    "micro/scan_copy/B128n200000": _scan_copy_passes,
    "permute/adaptive/n16384": lambda c: measure_permute(
        "adaptive", 16384, BENCH_P, counting=c
    ),
    "permute/naive/n8192": lambda c: measure_permute("naive", 8192, BENCH_P, counting=c),
    "search/and/n4000q128": lambda c: measure_search_query(
        4000, BENCH_P, n_queries=128, counting=c, verify=False
    ),
    "sort/aem_mergesort/n20000": lambda c: measure_sort(
        "aem_mergesort", 20000, BENCH_P, counting=c
    ),
    "sort/aem_samplesort/n20000": lambda c: measure_sort(
        "aem_samplesort", 20000, BENCH_P, counting=c
    ),
    "sort/em_mergesort/n20000": lambda c: measure_sort(
        "em_mergesort", 20000, BENCH_P, counting=c
    ),
    "spmxv/sort_based/n1024d4": lambda c: measure_spmxv(
        "sort_based", 1024, 4, BENCH_P, counting=c
    ),
}


@pytest.mark.parametrize("name,golden", BENCH_GOLDEN, ids=[r[0] for r in BENCH_GOLDEN])
def test_bench_suite_costs_pinned(name, golden):
    case = name.removesuffix("/counting")
    rec = BENCH_RUNS[case](case != name)
    assert (rec["Q"], rec["Qr"], rec["Qw"], rec["T"], rec["peak_mem"]) == golden


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
