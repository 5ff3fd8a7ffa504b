"""The search workload family: corpus, index build, DAAT serving.

Correctness is checked against plain-Python reference implementations
(the referee's answer key); cost honesty is checked through counting
parity, the query path's zero-write invariant, and omega-invariance of
serving. Registry integration pins the api surface the server and CLI
share.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.workloads.search import (
    FREQ_CAP,
    Corpus,
    build_index,
    corpus_postings,
    decode_posting,
    encode_posting,
    measure_index_build,
    measure_search_query,
    posting_atoms,
    posting_tokens,
    query_stream,
    run_queries,
    verify_index,
)
from repro.workloads.search.index import IndexVerificationError, reference_index
from repro.workloads.search.query import reference_search

P = AEMParams(M=64, B=8, omega=4)


# ----------------------------------------------------------------------
# Corpus generation.
# ----------------------------------------------------------------------
class TestCorpus:
    def test_deterministic_for_a_seed(self):
        a = corpus_postings(300, rng=42)
        b = corpus_postings(300, rng=42)
        assert a == b
        c = corpus_postings(300, rng=43)
        assert a != c

    def test_pairs_unique_and_sized(self):
        corpus = corpus_postings(400, rng=0)
        pairs = [(t, d) for t, d, _ in corpus.postings]
        assert len(pairs) == len(set(pairs)) == 400
        assert all(0 <= t < corpus.n_terms for t, _, _ in corpus.postings)
        assert all(0 <= d < corpus.n_docs for _, d, _ in corpus.postings)
        assert all(1 <= f < FREQ_CAP for _, _, f in corpus.postings)

    def test_overfull_corpus_rejected(self):
        with pytest.raises(ValueError, match="unique postings"):
            corpus_postings(100, n_docs=6, n_terms=6)

    def test_zipf_skews_terms(self):
        corpus = corpus_postings(2_000, n_terms=64, rng=1)
        counts: dict[int, int] = {}
        for t, _, _ in corpus.postings:
            counts[t] = counts.get(t, 0) + 1
        top = max(counts.values())
        assert top > 3 * (2_000 / 64)  # far above a uniform share

    def test_key_encoding_roundtrip(self):
        corpus = corpus_postings(200, rng=5)
        for (t, d, f), key in zip(corpus.postings, corpus.keys()):
            assert encode_posting(t, d, f, corpus.n_docs) == key
            assert decode_posting(key, corpus.n_docs) == (t, d, f)

    def test_tokens_mirror_atoms(self):
        corpus = corpus_postings(150, rng=2)
        atoms = posting_atoms(corpus)
        tokens = posting_tokens(corpus)
        assert [a.sort_token() for a in atoms] == tokens

    def test_query_stream_shape_and_determinism(self):
        qs = query_stream(50, n_terms=32, terms_per_query=3, rng=7)
        assert qs == query_stream(50, n_terms=32, terms_per_query=3, rng=7)
        assert len(qs) == 50
        for q in qs:
            assert len(q) == len(set(q)) == 3
            assert all(0 <= t < 32 for t in q)

    def test_query_stream_validation(self):
        with pytest.raises(ValueError, match="distinct terms"):
            query_stream(1, n_terms=2, terms_per_query=3)
        with pytest.raises(ValueError, match=">= 1"):
            query_stream(1, n_terms=4, terms_per_query=0)


def per_draw_corpus(N, *, rng, n_docs=None, n_terms=None, zipf_a=1.4):
    """The reference: the per-draw loop, one dict lookup per drawn pair."""
    n_docs = max(4, N // 8) if n_docs is None else n_docs
    n_terms = max(4, N // 16) if n_terms is None else n_terms
    order: list[tuple[int, int]] = []
    freq: dict[tuple[int, int], int] = {}
    while len(order) < N:
        batch = max(256, (N - len(order)) * 2)
        terms = (rng.zipf(zipf_a, size=batch) - 1) % n_terms
        docs = rng.integers(0, n_docs, size=batch)
        for pair in zip(terms.tolist(), docs.tolist()):
            if pair in freq:
                freq[pair] = min(FREQ_CAP - 1, freq[pair] + 1)
            else:
                freq[pair] = 1
                order.append(pair)
                if len(order) == N:
                    break
    return tuple((t, d, freq[(t, d)]) for t, d in order)


#: N = 128 must draw every one of its 8 x 16 pairs; the custom shapes
#: force long runs of collisions and many batches, and at zipf_a = 4
#: the head term's pairs reach the frequency cap.
CORPUS_CASES = [
    (1, {}),
    (128, {}),
    (136, {}),
    (2048, {}),
    (65536, {}),
    (16, dict(n_docs=4, n_terms=4, zipf_a=3.0)),
    (150, dict(n_docs=64, n_terms=3, zipf_a=2.5)),
    (500, dict(n_docs=1000, n_terms=50, zipf_a=1.1)),
    (3000, dict(n_docs=600, n_terms=6, zipf_a=1.7)),
    (40, dict(n_docs=10, n_terms=4, zipf_a=4.0)),
]


class TestCorpusMatchesPerDrawLoop:
    """``corpus_postings`` draws whole batches at once, yet yields the
    per-draw loop's postings and leaves the generator where it does."""

    @pytest.mark.parametrize("N,dims", CORPUS_CASES)
    def test_postings_keys_and_generator_state(self, N, dims):
        ref_rng = np.random.default_rng(N)
        expect = per_draw_corpus(N, rng=ref_rng, **dims)
        rng = np.random.default_rng(N)
        corpus = corpus_postings(N, rng=rng, **dims)
        assert corpus.postings == expect
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert corpus.keys() == [
            encode_posting(t, d, f, corpus.n_docs) for t, d, f in expect
        ]
        if dims.get("zipf_a") == 4.0:
            assert max(f for _, _, f in expect) == FREQ_CAP - 1

    def test_keys_of_hand_built_and_wide_corpora(self):
        built = Corpus(postings=((3, 1, 2), (0, 5, 255)), n_docs=6, n_terms=4)
        assert built.keys() == [encode_posting(3, 1, 2, 6), encode_posting(0, 5, 255, 6)]
        # Keys past int64: packed as Python ints, never wrapped.
        wide = corpus_postings(40, n_docs=2**60, n_terms=8, rng=3)
        keys = wide.keys()
        assert keys == [encode_posting(t, d, f, 2**60) for t, d, f in wide.postings]
        assert max(keys) > np.iinfo(np.int64).max

    def test_search_queries_follow_the_reference_corpus(self, monkeypatch):
        import repro.workloads.search.measures as search_measures

        drawn = []

        def recording(*args, **kwargs):
            drawn.append(query_stream(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(search_measures, "query_stream", recording)
        measure_search_query(512, P, n_queries=24, seed=5, counting=True)
        rng = np.random.default_rng(5)
        per_draw_corpus(512, rng=rng)
        assert drawn == [query_stream(24, n_terms=512 // 16, rng=rng)]


# ----------------------------------------------------------------------
# Index build.
# ----------------------------------------------------------------------
def build_on(machine, corpus, params, **kwargs):
    items = posting_tokens(corpus) if machine.counting else posting_atoms(corpus)
    addrs = machine.load_input(items)
    return build_index(
        machine,
        addrs,
        params,
        n_docs=corpus.n_docs,
        n_terms=corpus.n_terms,
        **kwargs,
    )


class TestIndexBuild:
    def test_matches_reference_index(self):
        corpus = corpus_postings(600, rng=3)
        m = AEMMachine.for_algorithm(P)
        index = build_on(m, corpus, P)
        verify_index(m, corpus, index)  # raises on any divergence
        assert index.n_postings == 600
        assert set(index.lexicon) == set(reference_index(corpus))

    @pytest.mark.parametrize("fanin", [2, 3, None])
    def test_fanin_sweep_preserves_correctness(self, fanin):
        corpus = corpus_postings(500, rng=4)
        m = AEMMachine.for_algorithm(P)
        index = build_on(m, corpus, P, fanin=fanin)
        verify_index(m, corpus, index)

    def test_skip_entries_are_block_maxima(self):
        corpus = corpus_postings(800, n_docs=400, n_terms=6, rng=6)
        m = AEMMachine.for_algorithm(P)
        index = build_on(m, corpus, P)
        for plist in index.lexicon.values():
            docs = [
                decode_posting(a.key, index.n_docs)[1]
                for a in m.collect_output(plist.addrs)
            ]
            skips = m.collect_output(plist.skip_addrs)
            assert len(skips) == len(plist.addrs)
            B = P.B
            assert skips == [
                docs[min(i + B, len(docs)) - 1] for i in range(0, len(docs), B)
            ]

    def test_verify_index_catches_corruption(self):
        corpus = corpus_postings(300, rng=8)
        m = AEMMachine.for_algorithm(P)
        index = build_on(m, corpus, P)
        victim = next(iter(index.lexicon.values()))
        blk = m.disk.get(victim.addrs[0])
        m.disk.set(victim.addrs[0], list(reversed(blk)))
        with pytest.raises(IndexVerificationError):
            verify_index(m, corpus, index)

    def test_build_parity_counting_vs_full(self):
        rec_full = measure_index_build(700, P, seed=13, counting=False)
        rec_fast = measure_index_build(700, P, seed=13, counting=True)
        assert dict(rec_full) == dict(rec_fast)

    def test_build_is_write_heavy(self):
        rec = measure_index_build(700, P, seed=1, counting=True)
        assert P.omega * rec.Qw > rec.Qr


# ----------------------------------------------------------------------
# Query serving.
# ----------------------------------------------------------------------
class TestQueryServing:
    @pytest.mark.parametrize("mode", ["and", "or"])
    @pytest.mark.parametrize("counting", [False, True])
    def test_results_match_reference(self, mode, counting):
        corpus = corpus_postings(900, rng=10)
        m = AEMMachine.for_algorithm(P, counting=counting)
        index = build_on(m, corpus, P)
        queries = query_stream(
            40, n_terms=corpus.n_terms, terms_per_query=2, rng=11
        )
        results = run_queries(m, index, queries, P, k=5, mode=mode)
        assert results == reference_search(corpus, queries, k=5, mode=mode)

    def test_absent_term_conjunctive_is_empty(self):
        corpus = corpus_postings(100, n_docs=40, n_terms=8, rng=1)
        m = AEMMachine.for_algorithm(P)
        index = build_on(m, corpus, P)
        missing = max(index.lexicon) + 1000
        present = min(index.lexicon)
        [res] = run_queries(m, index, [(present, missing)], P, mode="and")
        assert res == []

    def test_query_phase_is_read_only(self):
        rec = measure_search_query(600, P, n_queries=25, seed=2, counting=True)
        assert rec.Qw == 0 and rec.Qr > 0

    def test_query_cost_omega_invariant(self):
        seen = set()
        for omega in (1, 4, 32):
            p = AEMParams(M=64, B=8, omega=omega)
            rec = measure_search_query(600, p, n_queries=25, seed=2, counting=True)
            seen.add((rec.Qr, rec.Qw, rec.T))
        assert len(seen) == 1

    @pytest.mark.parametrize("mode", ["and", "or"])
    def test_query_parity_counting_vs_full(self, mode):
        cfg = dict(n_queries=30, k=3, mode=mode, seed=21)
        full = measure_search_query(500, P, **cfg, counting=False)
        fast = measure_search_query(500, P, **cfg, counting=True)
        assert dict(full) == dict(fast)

    def test_bad_mode_and_k_rejected(self):
        corpus = corpus_postings(60, n_docs=30, n_terms=10, rng=0)
        m = AEMMachine.for_algorithm(P)
        index = build_on(m, corpus, P)
        with pytest.raises(ValueError, match="mode"):
            run_queries(m, index, [(0, 1)], P, mode="xor")
        with pytest.raises(ValueError, match="k must be"):
            run_queries(m, index, [(0, 1)], P, k=0)

    def test_memory_is_balanced_after_serving(self):
        corpus = corpus_postings(500, rng=14)
        m = AEMMachine.for_algorithm(P)
        index = build_on(m, corpus, P)
        queries = query_stream(30, n_terms=corpus.n_terms, rng=15)
        run_queries(m, index, queries, P, mode="and")
        run_queries(m, index, queries, P, mode="or")
        assert m.mem.occupancy == 0


# ----------------------------------------------------------------------
# Registry / api integration.
# ----------------------------------------------------------------------
class TestApiIntegration:
    def test_workloads_registered(self):
        names = api.workload_names()
        assert "index_build" in names and "search_query" in names

    def test_evaluate_matches_direct_measure(self):
        via_api = api.evaluate(
            "index_build", n=400, M=64, B=8, omega=4, seed=5
        )
        direct = measure_index_build(400, P, seed=5)
        assert dict(via_api) == dict(direct)

    def test_optional_fields_stay_out_of_config(self):
        from repro.api.registry import normalize

        _, config = normalize({"workload": "search_query", "n": 300})
        for name in ("n_docs", "n_terms", "fanin"):
            assert name not in config
        assert config["mode"] == "and"
        assert config["n_queries"] == 64

    def test_query_keys_distinguish_search_configs(self):
        base = {"workload": "search_query", "n": 300}
        assert api.query_key(base) != api.query_key({**base, "mode": "or"})
        assert api.query_key(base) != api.query_key({**base, "k": 9})
        assert api.query_key(base) != api.query_key({**base, "fanin": 4})
        assert api.query_key({**base, "workload": "index_build"}) != api.query_key(
            {"workload": "index_build", "n": 300, "fanin": 4}
        )
