"""External-memory inverted-index build.

The build is the paper's sort pipeline wearing a search-engine hat:

1. **Run generation** (:func:`generate_runs`) — the unsorted postings
   are cut into chunks of at most ``omega * M`` atoms and each chunk is
   sorted through the sorter registry, yielding sorted runs.
2. **Layered merge** (inside :func:`build_index`) — runs are merged in
   layers of fan-in up to ``omega * m`` with the Section 3.1
   :func:`~repro.sorting.merge.multiway_merge`, the paper's headline
   algorithm. Sweeping the fan-in reproduces the log_{omega*m} n level
   count of Theorem 3.2 on a "real" workload.
3. **Postings emission** — one streaming pass over the merged run writes
   the blocked index: per term, postings blocks (doc-ascending), a skip
   run holding the last doc of every postings block (the DAAT
   skip-to-block structure), and one ``(term, df)`` word in a shared
   lexicon run.

Every write costs ``omega`` — the build is the write-heavy half of the
asymmetry story. All term/doc decisions are made on packed keys — an
atom's ``key`` on a full machine, its ``(key, uid)`` token's first field
on a counting one, the extractor chosen once per call — so a counting
machine follows the exact same branch-for-branch path and the costs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Optional, Sequence

from ...core.params import AEMParams
from ...machine.aem import AEMMachine
from ...machine.streams import BlockReader, BlockWriter
from ...sorting.base import run_sorter
from ...sorting.merge import MergeStats, multiway_merge
from ...sorting.runs import Run, run_of_input
from .corpus import FREQ_CAP, Corpus, decode_posting, encode_posting


@dataclass(frozen=True)
class PostingsList:
    """One term's on-disk postings: data blocks plus their skip run."""

    term: int
    df: int  # document frequency == number of postings
    addrs: tuple[int, ...]  # postings blocks, doc-ascending
    skip_addrs: tuple[int, ...]  # skip run: last doc of each postings block

    @property
    def blocks(self) -> int:
        return len(self.addrs)


@dataclass(frozen=True)
class SearchIndex:
    """A built index: the lexicon and the address map into the block store.

    The address map (which block holds which term's postings) is problem
    metadata in the model's sense — like run addresses and lengths, it is
    what the directory of a real index encodes — so holding it Python-side
    is cost-free. What *is* charged is every lexicon/skip/postings block
    read the query path performs.
    """

    lexicon: dict[int, PostingsList]
    lex_block_of: dict[int, int]  # term -> address of its lexicon block
    lexicon_addrs: tuple[int, ...]
    n_postings: int
    n_docs: int
    n_terms: int

    @property
    def terms(self) -> int:
        return len(self.lexicon)


def _chunk_addrs(
    machine: AEMMachine, addrs: Sequence[int], atoms_per_chunk: int
) -> list[list[int]]:
    """Cut input blocks into groups of at most ``atoms_per_chunk`` atoms."""
    chunks: list[list[int]] = []
    cur: list[int] = []
    count = 0
    for addr in addrs:
        n = machine.block_len(addr)
        if cur and count + n > atoms_per_chunk:
            chunks.append(cur)
            cur, count = [], 0
        cur.append(addr)
        count += n
    if cur:
        chunks.append(cur)
    return chunks


def generate_runs(
    machine: AEMMachine,
    addrs: Sequence[int],
    params: AEMParams,
    *,
    sorter: str = "aem_mergesort",
) -> list[Run]:
    """Sort base-case-sized chunks of the input into runs.

    Each chunk holds at most ``omega * M`` atoms — the mergesort base
    case — so the registered sorter handles it in one pass hierarchy and
    the subsequent layered merge gets runs of uniform scale. Consumed
    input blocks are freed (unless the sorter returned them as output),
    which keeps the counting machine's token stash proportional to live
    data even at millions of postings.
    """
    runs: list[Run] = []
    with machine.phase("index/runs"):
        for chunk in _chunk_addrs(machine, addrs, params.base_case_size()):
            out = run_sorter(sorter, machine, chunk, params)
            out_set = set(out)
            for addr in chunk:
                if addr not in out_set:
                    machine.free(addr)
            runs.append(run_of_input(machine, out))
    return runs


def build_index(
    machine: AEMMachine,
    addrs: Sequence[int],
    params: AEMParams,
    *,
    n_docs: int,
    n_terms: int,
    fanin: Optional[int] = None,
    sorter: str = "aem_mergesort",
    stats: Optional[MergeStats] = None,
) -> SearchIndex:
    """Build the blocked inverted index from unsorted postings blocks.

    ``fanin`` caps the merge fan-in per layer (default and upper bound:
    ``omega * m``, the paper's choice — the fan-in sweep of experiment
    e18 passes smaller values). ``stats``, when given, collects the
    per-round merge instrumentation.

    Phases: ``index/runs`` (run generation), ``index/merge`` (the layered
    fan-in merge), ``index/postings`` (the write-heavy emission of
    postings + skip + lexicon blocks) — so profiles and phase snapshots
    price the postings write phase separately.
    """
    fan_limit = max(2, params.fanout)
    fanin = fan_limit if fanin is None else max(2, min(int(fanin), fan_limit))

    runs = generate_runs(machine, addrs, params, sorter=sorter)
    total = sum(r.length for r in runs)

    with machine.phase("index/merge"):
        while len(runs) > 1:
            merged_layer: list[Run] = []
            for i in range(0, len(runs), fanin):
                group = runs[i : i + fanin]
                if len(group) == 1:
                    merged_layer.append(group[0])
                    continue
                merged = multiway_merge(machine, group, params, stats=stats)
                for r in group:
                    for addr in r.addrs:
                        machine.free(addr)
                merged_layer.append(merged)
            runs = merged_layer
    final = runs[0] if runs else Run.of((), 0)

    with machine.phase("index/postings"):
        index = _emit_postings(machine, final, n_docs=n_docs, n_terms=n_terms)
    for addr in final.addrs:
        machine.free(addr)
    return index


def postings_key(machine: AEMMachine) -> Callable:
    """The packed-key extractor for postings stored on ``machine``: a
    token's first field on a counting machine, an atom's ``key`` on a
    full one. Chosen once per call, never per posting."""
    if machine.counting:
        return itemgetter(0)
    return attrgetter("key")


def _emit_postings(
    machine: AEMMachine, final: Run, *, n_docs: int, n_terms: int
) -> SearchIndex:
    """One streaming pass: merged run -> postings + skip + lexicon blocks.

    Residency stays O(B): one reader block, one postings buffer, one
    skip-writer buffer (only the current term's is live — the stream is
    term-sorted), one lexicon-writer buffer.
    """
    B = machine.params.B
    pair_cap = n_docs * FREQ_CAP  # key // pair_cap == term
    key = postings_key(machine)
    reader = BlockReader(machine, final.addrs)
    lex_writer = BlockWriter(machine)
    lex_terms: list[int] = []
    lexicon: dict[int, PostingsList] = {}

    cur_term = -1
    buf: list = []  # resident postings of the pending block
    post_addrs: list[int] = []
    skip_writer: Optional[BlockWriter] = None
    df = 0

    def flush_block() -> None:
        # Skip entry: the last doc of the block, decoded from its key.
        last_doc = (key(buf[-1]) // FREQ_CAP) % n_docs
        addr = machine.write_fresh(buf)  # releases the buffered slots
        post_addrs.append(addr)
        assert skip_writer is not None
        skip_writer.push_new(last_doc)
        buf.clear()

    def close_term() -> None:
        nonlocal df
        if buf:
            flush_block()
        assert skip_writer is not None
        skip_addrs = skip_writer.close()
        lexicon[cur_term] = PostingsList(
            term=cur_term,
            df=df,
            addrs=tuple(post_addrs),
            skip_addrs=tuple(skip_addrs),
        )
        lex_writer.push_new((cur_term, df))
        lex_terms.append(cur_term)
        post_addrs.clear()
        df = 0

    for item in reader:  # take(): the slot transfers to our buffer
        machine.touch()
        term = key(item) // pair_cap
        if term != cur_term:
            if cur_term >= 0:
                close_term()
            cur_term = term
            skip_writer = BlockWriter(machine)
        buf.append(item)
        df += 1
        if len(buf) == B:
            flush_block()
    if cur_term >= 0:
        close_term()

    lexicon_addrs = lex_writer.close()
    lex_block_of = {
        term: lexicon_addrs[i // B] for i, term in enumerate(lex_terms)
    }
    return SearchIndex(
        lexicon=lexicon,
        lex_block_of=lex_block_of,
        lexicon_addrs=tuple(lexicon_addrs),
        n_postings=final.length,
        n_docs=n_docs,
        n_terms=n_terms,
    )


class IndexVerificationError(AssertionError):
    """The built index disagrees with the reference index."""


def reference_index(corpus: Corpus) -> dict[int, list[tuple[int, int]]]:
    """Plain-Python reference: term -> [(doc, freq), ...] doc-ascending."""
    ref: dict[int, list[tuple[int, int]]] = {}
    for term, doc, freq in corpus.postings:
        ref.setdefault(term, []).append((doc, freq))
    for plist in ref.values():
        plist.sort()
    return ref


def verify_index(
    machine: AEMMachine, corpus: Corpus, index: SearchIndex
) -> None:
    """Check the on-disk index against a reference build (cost-free).

    Runs on both machine modes: inspection reads the blocks through
    :meth:`~repro.machine.aem.AEMMachine.collect_output` (the referee's
    privilege), and every comparison is on keys, skip words and lexicon
    words, all of which a counting machine's tokens carry. Raises
    :class:`IndexVerificationError` with a pinpointed message.
    """
    ref = reference_index(corpus)
    if set(index.lexicon) != set(ref):
        raise IndexVerificationError(
            f"lexicon terms {sorted(index.lexicon)} != reference {sorted(ref)}"
        )
    B = machine.params.B
    key = postings_key(machine)
    for term, plist in index.lexicon.items():
        expect = ref[term]
        if plist.df != len(expect):
            raise IndexVerificationError(
                f"term {term}: df {plist.df} != reference {len(expect)}"
            )
        keys = list(map(key, machine.collect_output(plist.addrs)))
        want = [
            encode_posting(term, doc, freq, index.n_docs)
            for doc, freq in expect
        ]
        if keys != want:
            raise IndexVerificationError(
                f"term {term}: postings keys diverge from reference"
            )
        skips = machine.collect_output(plist.skip_addrs)
        want_skips = [
            decode_posting(keys[min(i + B, len(keys)) - 1], index.n_docs)[1]
            for i in range(0, len(keys), B)
        ]
        if list(skips) != want_skips:
            raise IndexVerificationError(
                f"term {term}: skip entries {list(skips)} != {want_skips}"
            )
    lex_words = machine.collect_output(index.lexicon_addrs)
    want_lex = [(t, index.lexicon[t].df) for t in sorted(index.lexicon)]
    if [tuple(w) for w in lex_words] != want_lex:
        raise IndexVerificationError("lexicon blocks diverge from reference")
    for term, plist in index.lexicon.items():
        if index.lex_block_of.get(term) not in index.lexicon_addrs:
            raise IndexVerificationError(
                f"term {term}: lexicon block map points outside the lexicon"
            )
