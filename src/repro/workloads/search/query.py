"""DAAT top-k query serving over the blocked index.

Document-at-a-time evaluation with skip-to-block:

* **Conjunctive** (``mode="and"``): the rarest term (smallest df) drives;
  its postings are streamed block by block, and every candidate doc is
  probed in the other terms through :class:`_TermCursor`, which holds one
  skip block and one postings block resident and advances monotonically —
  each skip/postings block of a term is read at most once per query.
* **Disjunctive** (``mode="or"``): a doc-ordered multiway merge over all
  terms' postings streams, summing the frequencies of equal-doc heads.

Both run block at a time: keys are extracted once per loaded block, by
an extractor chosen once per :func:`run_queries` call (a counting
machine's postings are ``(key, uid)`` tokens, a full machine's atoms), and
per-posting touches and releases go into a per-query :class:`_Tally`
that is settled before every read and acquire, so occupancy at each of
them is exactly that of a per-call ledger.

Scores are frequency sums decoded from the packed keys, so ranking works
on scheduling tokens and the *results* — not just the costs — are
bit-identical between full and counting machines. The query path issues
no writes at all: serving is the read-heavy half of the asymmetry story,
and its cost is ``omega``-invariant by construction (experiment e19
asserts both).

Result delivery is cost-free (like
:meth:`~repro.machine.aem.AEMMachine.collect_output`): the engine hands
the top-k to the caller rather than writing it back to the store.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Callable, Sequence

from ...core.params import AEMParams
from ...machine.aem import AEMMachine
from .corpus import FREQ_CAP, Corpus
from .index import PostingsList, SearchIndex, postings_key, reference_index


class _Tally:
    """One query's pending touches and releases, settled in bulk.

    The DAAT loops add their per-posting touches and releases here
    instead of calling the machine each time. :meth:`settle` hands them
    over, releases first, and runs immediately before every read and
    acquire and once at the end of the query, so occupancy at every
    read and acquire — hence the peak and any capacity check — is the
    per-call ledger's, and touches only feed ``T``.
    """

    __slots__ = ("machine", "touches", "releases")

    def __init__(self, machine: AEMMachine):
        self.machine = machine
        self.touches = 0
        self.releases = 0

    def settle(self) -> None:
        if self.releases:
            self.machine.release(self.releases)
            self.releases = 0
        if self.touches:
            self.machine.touch(self.touches)
            self.touches = 0

    def read(self, addr: int) -> list:
        self.settle()
        return self.machine.read(addr)

    def acquire(self, k: int, what: str) -> None:
        self.settle()
        self.machine.acquire(k, what)


class _TermCursor:
    """Monotone skip-to-block cursor over one term's postings.

    Holds at most one skip block (B last-doc words) and one postings
    block (B packed keys) resident. ``advance(doc)`` walks the skip run
    forward to the first postings block that can contain ``doc``, swaps
    that block in, and bisects for the doc — every block is read at most
    once per query because ``doc`` only grows.
    """

    def __init__(
        self, tally: _Tally, plist: PostingsList, n_docs: int, key: Callable
    ):
        self.tally = tally
        self.key = key
        self.addrs = plist.addrs
        self.skip_addrs = plist.skip_addrs
        self.B = tally.machine.params.B
        self.base = plist.term * n_docs * FREQ_CAP  # key of (term, doc 0)
        self.skip_idx = -1  # index of the resident skip block
        self.skip: list[int] = []
        self.blk_idx = -1  # global index of the resident postings block
        self.keys: list[int] = []
        #: Set once the term has no postings at or past a probed doc.
        self.exhausted = not plist.addrs

    def _load_skip(self, idx: int) -> None:
        self.tally.releases += len(self.skip)
        # Skip words are plain ints on both machine modes.
        self.skip = self.tally.read(self.skip_addrs[idx])
        self.skip_idx = idx

    def _load_block(self, idx: int) -> None:
        tally = self.tally
        tally.releases += len(self.keys)
        blk = tally.read(self.addrs[idx])
        tally.touches += len(blk)  # key-extraction scan
        self.keys = list(map(self.key, blk))
        self.blk_idx = idx

    def advance(self, doc: int):
        """Frequency of ``doc`` in this term, or ``None`` if absent.

        Monotone: callers must probe docs in ascending order.
        """
        if self.exhausted:
            return None
        if self.skip_idx < 0:
            self._load_skip(0)
        # Walk skip blocks until one ends at or past the target doc.
        while self.skip[-1] < doc:
            self.tally.touches += 1
            if self.skip_idx + 1 >= len(self.skip_addrs):
                self.exhausted = True
                return None
            self._load_skip(self.skip_idx + 1)
        # First postings block whose last doc is >= doc, then the doc in it.
        self.tally.touches += 2
        blk_idx = self.skip_idx * self.B + bisect_left(self.skip, doc)
        if blk_idx > self.blk_idx:
            self._load_block(blk_idx)
        lo = self.base + doc * FREQ_CAP
        keys = self.keys
        pos = bisect_left(keys, lo)
        if pos < len(keys) and keys[pos] < lo + FREQ_CAP:
            return keys[pos] - lo
        return None

    def close(self) -> None:
        self.tally.releases += len(self.skip) + len(self.keys)
        self.skip = []
        self.keys = []


class _TopK:
    """A k-entry min-heap of ``(score, -doc)`` with honest slot accounting."""

    def __init__(self, tally: _Tally, k: int):
        self.tally = tally
        self.k = k
        self.heap: list[tuple[int, int]] = []

    def offer(self, doc: int, score: int) -> None:
        self.tally.touches += 1
        entry = (score, -doc)
        if len(self.heap) < self.k:
            self.tally.acquire(1, "top-k entry")
            heapq.heappush(self.heap, entry)
        elif entry > self.heap[0]:
            heapq.heapreplace(self.heap, entry)

    def close(self) -> list[tuple[int, int]]:
        """Drain to ``[(doc, score), ...]``, score desc then doc asc."""
        out = [
            (-neg_doc, score)
            for score, neg_doc in sorted(
                self.heap, key=lambda e: (-e[0], -e[1])
            )
        ]
        self.tally.releases += len(self.heap)
        self.heap = []
        return out


def _query_and(
    tally: _Tally,
    plists: list[PostingsList],
    n_docs: int,
    k: int,
    key: Callable,
) -> list[tuple[int, int]]:
    """Conjunctive DAAT: rarest term drives, others are probed via skips.

    The driver's blocks are read one at a time, the next only once the
    current one's postings are consumed and the query goes on.
    """
    plists = sorted(plists, key=lambda p: (p.df, p.term))
    driver, rest = plists[0], plists[1:]
    cursors = [_TermCursor(tally, p, n_docs, key) for p in rest]
    topk = _TopK(tally, k)
    held = 0  # driver postings read but not yet inspected
    try:
        for addr in driver.addrs:
            keys = list(map(key, tally.read(addr)))
            held = len(keys)
            for packed in keys:
                held -= 1
                tally.releases += 1  # taken key inspected, not kept
                doc = (packed // FREQ_CAP) % n_docs
                score = packed % FREQ_CAP
                for cur in cursors:
                    freq = cur.advance(doc)
                    if freq is None:
                        break
                    score += freq
                else:
                    topk.offer(doc, score)
                    continue
                if cur.exhausted:  # no later driver doc can match
                    return topk.close()
    finally:
        tally.releases += held
        for cur in cursors:
            cur.close()
    return topk.close()


class _Stream:
    """One term's postings as a disjunctive merge input: block-at-a-time."""

    __slots__ = ("addrs", "next", "keys", "pos")

    def __init__(self, addrs: Sequence[int]):
        self.addrs = addrs
        self.next = 0  # index of the next block to read
        self.keys: list[int] = []  # the resident block's keys
        self.pos = 0  # next unconsumed key


def _query_or(
    tally: _Tally,
    plists: list[PostingsList],
    n_docs: int,
    k: int,
    key: Callable,
) -> list[tuple[int, int]]:
    """Disjunctive DAAT: doc-ordered merge of all streams, summing freqs.

    Every merge step inspects each stream's head (one touch apiece); a
    stream reads its next block when the step finds its resident one
    consumed.
    """
    streams = [_Stream(p.addrs) for p in plists]
    topk = _TopK(tally, k)
    try:
        while True:
            tally.touches += len(streams)
            best = None
            for s in streams:
                while s.pos >= len(s.keys) and s.next < len(s.addrs):
                    s.keys = list(map(key, tally.read(s.addrs[s.next])))
                    s.next += 1
                    s.pos = 0
                if s.pos < len(s.keys):
                    doc = (s.keys[s.pos] // FREQ_CAP) % n_docs
                    if best is None or doc < best:
                        best = doc
            if best is None:
                break
            score = 0
            for s in streams:
                if s.pos < len(s.keys):
                    packed = s.keys[s.pos]
                    if (packed // FREQ_CAP) % n_docs == best:
                        score += packed % FREQ_CAP
                        s.pos += 1
                        tally.releases += 1
            topk.offer(best, score)
    finally:
        for s in streams:
            tally.releases += len(s.keys) - s.pos
    return topk.close()


def run_queries(
    machine: AEMMachine,
    index: SearchIndex,
    queries: Sequence[tuple[int, ...]],
    params: AEMParams,
    *,
    k: int = 8,
    mode: str = "and",
) -> list[list[tuple[int, int]]]:
    """Evaluate ``queries`` against ``index``; one top-k list per query.

    Each query is a tuple of term ids. Phases: ``query/lookup`` (one peek
    per distinct lexicon block of the query's present terms) and
    ``query/match`` (the DAAT evaluation proper). The path performs reads
    only — the cost delta it produces has ``Qw == 0``.
    """
    if mode not in ("and", "or"):
        raise ValueError(f"unknown query mode {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    evaluate = _query_and if mode == "and" else _query_or
    key = postings_key(machine)
    results: list[list[tuple[int, int]]] = []
    for terms in queries:
        with machine.phase("query/lookup"):
            present = [t for t in terms if t in index.lexicon]
            # One read per distinct lexicon block: the term -> df lookup a
            # real engine performs before planning the evaluation.
            for addr in sorted({index.lex_block_of[t] for t in present}):
                machine.peek(addr)
        with machine.phase("query/match"):
            plists = [index.lexicon[t] for t in present]
            if not plists or (mode == "and" and len(present) < len(terms)):
                results.append([])
                continue
            tally = _Tally(machine)
            try:
                results.append(evaluate(tally, plists, index.n_docs, k, key))
            finally:
                tally.settle()
    return results


def reference_search(
    corpus: Corpus,
    queries: Sequence[tuple[int, ...]],
    *,
    k: int = 8,
    mode: str = "and",
) -> list[list[tuple[int, int]]]:
    """Plain-Python reference evaluation (the referee's answer key).

    Conjunctions intersect from the rarest term's docs; each term's
    doc -> freq dict is built once per call.
    """
    ref = reference_index(corpus)
    freqs: dict[int, dict[int, int]] = {}

    def doc_freqs(term: int) -> dict[int, int]:
        if term not in freqs:
            freqs[term] = dict(ref[term])
        return freqs[term]

    out: list[list[tuple[int, int]]] = []
    for terms in queries:
        scores: dict[int, int] = {}
        if mode == "and":
            if all(t in ref for t in terms):
                sets = [doc_freqs(t) for t in terms]
                common = min(sets, key=len).keys()
                for s in sets:
                    common = common & s.keys()
                scores = dict.fromkeys(common, 0)
                for s in sets:
                    for d in common:
                        scores[d] += s[d]
        else:
            for t in terms:
                for doc, freq in ref.get(t, ()):
                    scores[doc] = scores.get(doc, 0) + freq
        out.append(heapq.nsmallest(k, scores.items(), key=lambda e: (-e[1], e[0])))
    return out
