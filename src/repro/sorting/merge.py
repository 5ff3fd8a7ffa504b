"""The Section 3.1 merge: merging ``omega*m`` sorted runs in rounds.

This is the paper's main algorithmic contribution. Merging ``k <= omega*m``
sorted runs holding N atoms in total proceeds in ``R = ceil(N/M)`` rounds;
each round emits the next M smallest atoms in sorted order and costs
``O(omega*m)`` reads and ``O(m)`` writes (plus amortized pointer
maintenance), for Theorem 3.2's totals of ``O(omega*(n+m))`` reads and
``O(n+m)`` writes.

The crux is that for ``omega > B`` even one word of per-run state exceeds
internal memory (``omega*m > M``), so the per-run block pointers ``b[i]``
live in *external* memory, packed B to a block, and are rewritten only when
they change — at most once per consumed data block, i.e. ``O(n)`` pointer
writes over the whole merge.

Round anatomy (P = largest atom emitted so far; every element <= P is
already consumed from every run — the global threshold stands in for the
paper's per-array ``p_i``):

* **Phase A (initialize M).** Stream the pointer blocks; for every run
  ``i`` read blocks ``b[i]`` and ``b[i]+1``; the buffer is the M
  smallest of their atoms ``> P``, selected once at the end of the phase.
* **Phase B (identify active runs).** Re-read (peek) the last
  initialization block of each run. A run is *active* if that block's
  maximum is not the run's last atom and is among the buffer's M smallest
  — by Lemma 3.1 at most ``m`` runs are active (asserted!), so their
  state fits in memory.
* **Phase C (merge from active runs).** Classical ``<= m``-way merging:
  repeatedly read the next block of the run with the smallest maximum
  loaded so far, merging into the buffer; a run deactivates when its
  loaded maximum exceeds the buffer maximum or it is exhausted.
* **Phase D (emit).** Write the buffer (``<= m`` blocks) to the output.
* **Phase E (pointer update).** Recompute ``b[i]`` = first block with an
  atom greater than the new threshold; write back only the dirty pointer
  blocks. A pointer only moves when a data block was fully consumed, so
  these writes amortize to ``O(n)``.

Both machine modes run the same code: Phases A and C charge each block
they read through :class:`RoundBuffer`'s per-block step, so a full run's
event stream is the counting run's, touch and release grouping
included. ``machine.counting`` only chooses the sort key.

Setting ``pointer_mode="internal"`` keeps the ``b[i]`` table resident in
internal memory instead — the strategy of the previously published AEM
mergesort, which works only while the table fits (``omega*m + M`` within
physical memory, i.e. essentially ``omega < B``); with larger ``omega`` it
raises :class:`~repro.machine.errors.CapacityError`. This is experiment
E2's baseline.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import merge
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..atoms.atom import Atom
from ..core.params import AEMParams, ceil_div
from ..machine.aem import AEMMachine
from ..machine.phantom import token_of
from ..machine.streams import BlockWriter
from .runs import Run

EXHAUSTED = -1  # pointer sentinel: run fully consumed


# ----------------------------------------------------------------------
# Pointer stores.
# ----------------------------------------------------------------------
class ExternalPointerStore:
    """The paper's scheme: ``b[i]`` pointers packed B per external block."""

    def __init__(self, machine: AEMMachine, k: int):
        self.machine = machine
        self.k = k
        B = machine.params.B
        self.B = B
        self.addrs = machine.allocate(ceil_div(k, B)) if k else []
        # Initialization: all pointers start at block 0 of their run.
        # Cost: O(k/B) writes ("this initialization takes O(omega*m/B)
        # write I/Os" — the paper states O(omega*m), an overcount).
        for j, addr in enumerate(self.addrs):
            count = min(B, k - j * B)
            machine.acquire(count, "pointer words")
            machine.write(addr, [0] * count)

    def scan(self) -> Iterator[tuple[int, int]]:
        """Yield ``(run index, pointer)`` streaming one block at a time."""
        for j, addr in enumerate(self.addrs):
            blk = self.machine.read(addr)
            for t, value in enumerate(blk):
                yield j * self.B + t, value
            self.machine.release(len(blk))

    def update(self, changes: dict[int, int]) -> int:
        """Apply pointer changes; returns the number of dirty block writes."""
        if not changes:
            return 0
        dirty: dict[int, dict[int, int]] = {}
        for i, v in changes.items():
            dirty.setdefault(i // self.B, {})[i % self.B] = v
        for j, updates in sorted(dirty.items()):
            blk = list(self.machine.read(self.addrs[j]))
            for t, v in updates.items():
                blk[t] = v
            self.machine.write(self.addrs[j], blk)
        return len(dirty)

    def close(self) -> None:
        for addr in self.addrs:
            self.machine.free(addr)


class InternalPointerStore:
    """Baseline scheme: the pointer table lives in internal memory.

    Acquires ``k`` words for the whole merge — feasible only while the
    table fits alongside the merge buffer, which is the ``omega < B``
    assumption the paper removes.
    """

    def __init__(self, machine: AEMMachine, k: int):
        self.machine = machine
        self.k = k
        machine.acquire(k, "in-memory pointer table")
        self.table = [0] * k

    def scan(self) -> Iterator[tuple[int, int]]:
        yield from enumerate(self.table)

    def update(self, changes: dict[int, int]) -> int:
        for i, v in changes.items():
            self.table[i] = v
        return 0

    def close(self) -> None:
        self.machine.release(self.k)


# ----------------------------------------------------------------------
# Statistics (Lemma 3.1 / Theorem 3.2 instrumentation).
# ----------------------------------------------------------------------
@dataclass
class RoundStats:
    reads: int = 0
    writes: int = 0
    active_runs: int = 0
    phase_c_reads: int = 0
    emitted: int = 0


@dataclass
class MergeStats:
    """Per-round accounting of one multiway merge."""

    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def max_active(self) -> int:
        return max((r.active_runs for r in self.rounds), default=0)

    @property
    def total_reads(self) -> int:
        return sum(r.reads for r in self.rounds)

    @property
    def total_writes(self) -> int:
        return sum(r.writes for r in self.rounds)


# ----------------------------------------------------------------------
# The round's buffer (the paper's M).
# ----------------------------------------------------------------------
class RoundBuffer:
    """The M smallest atoms above the threshold P among the blocks fed.

    :meth:`feed` is the one per-block step of Phases A and C on both
    machine modes: ``touch(n)`` for the block's n atoms, then
    ``release(n + held - new)`` with ``new = min(M, held + accepted)``,
    the accepted atoms being those strictly above P. These are the
    per-atom insort/evict loop's totals (one release per rejected or
    evicted atom), grouped per block, and they land before the next read
    or acquire, so occupancy and peak are unchanged. They depend only on
    counts, so the accepted atoms wait until :meth:`settle` moves them
    into the buffer: Phase A settles once per round, Phase C after
    every block.

    ``key`` maps a stored item to its sort token: ``None`` on counting
    machines, whose blocks already hold tokens. A full machine computes
    tokens only where a comparison needs them, never for a whole block
    or the whole buffer: a few bisect probes per block, and the atoms
    the selection reaches.
    """

    def __init__(
        self, machine: AEMMachine, M: int, threshold, key: Optional[Callable]
    ):
        self.machine = machine
        self.M = M
        self.threshold = threshold
        self.key = key
        self.held = 0  # atoms the buffer holds once settled
        self.tokens: list = []  # the settled buffer's tokens, ascending
        self.atoms: list = []  # its atoms (tokens on a counting machine)
        self._fed: list = []  # the fed blocks' accepted slices, unsettled

    def feed(self, blk: Sequence) -> None:
        """Charge one sorted block's touches and releases; keep what is above P."""
        n = len(blk)
        self.machine.touch(n)
        lo = 0
        if self.threshold is not None:
            lo = bisect_right(blk, self.threshold, key=self.key)
        new = min(self.M, self.held + n - lo)
        self.machine.release(n + self.held - new)
        self.held = new
        if lo < n:
            self._fed.append(blk[lo:])

    def _tokens(self, atoms: Sequence) -> Iterable:
        """The atoms' sort tokens, each computed only when reached."""
        return atoms if self.key is None else map(self.key, atoms)

    def settle(self) -> None:
        """Move the fed atoms into the buffer, keeping the M smallest."""
        fed, self._fed = self._fed, []
        M = self.M
        if not self.atoms:
            # One k-way merge of the sorted slices, cut at M.
            self.atoms = list(islice(merge(*fed, key=self.key), M))
            self.tokens = list(self._tokens(self.atoms))
            return
        tokens, atoms = self.tokens, self.atoms
        for run in fed:
            if len(tokens) >= M:  # full: only atoms below its maximum enter
                run = run[: bisect_left(run, tokens[-1], key=self.key)]
            for t, a in zip(self._tokens(run), run):
                at = bisect_left(tokens, t)
                tokens.insert(at, t)
                atoms.insert(at, a)
            del tokens[M:], atoms[M:]


# ----------------------------------------------------------------------
# The merge.
# ----------------------------------------------------------------------
def multiway_merge(
    machine: AEMMachine,
    runs: Sequence[Run],
    params: AEMParams,
    *,
    pointer_mode: str = "external",
    writer: Optional[BlockWriter] = None,
    stats: Optional[MergeStats] = None,
) -> Run:
    """Merge ``k <= omega*m`` sorted runs into one sorted run.

    Returns the merged run (written through ``writer`` if given, else to a
    fresh contiguous region). ``stats`` (if provided) collects per-round
    instrumentation used by the Lemma 3.1 / Theorem 3.2 experiments.
    """
    runs = [r for r in runs if not r.is_empty()]
    k = len(runs)
    total = sum(r.length for r in runs)
    fan_limit = max(2, params.fanout)
    if k > fan_limit:
        raise ValueError(f"multiway_merge fan-in {k} exceeds omega*m = {fan_limit}")
    own_writer = writer is None
    out = writer or BlockWriter(machine)
    if k == 0:
        return Run.of(out.close() if own_writer else (), 0)

    if pointer_mode == "external":
        ptrs: ExternalPointerStore | InternalPointerStore = ExternalPointerStore(
            machine, k
        )
    elif pointer_mode == "internal":
        ptrs = InternalPointerStore(machine, k)
    else:
        raise ValueError(f"unknown pointer_mode {pointer_mode!r}")

    M, m = params.M, params.m
    key = None if machine.counting else Atom.sort_token
    threshold = None  # sort token of the largest atom emitted so far (P)
    emitted = 0

    while emitted < total:
        rs = RoundStats()
        start = machine.snapshot()
        buf = RoundBuffer(machine, M, threshold, key)

        # ---------------- Phase A: initialize the buffer ----------------
        with machine.phase("merge/init"):
            for i, b in ptrs.scan():
                if b == EXHAUSTED:
                    continue
                for idx in (b, b + 1):
                    if idx < runs[i].blocks:
                        buf.feed(machine.read(runs[i].addrs[idx]))
            buf.settle()

        # ---------------- Phase B: identify active runs -----------------
        # active entries: [i, next_block_index, s_token, last_block_read]
        active: list[list] = []
        init_maxes: dict[int, list] = {}  # i -> [(blk_idx, max_token), ...]
        with machine.phase("merge/identify"):
            buf_full = buf.held >= M
            for i, b in ptrs.scan():
                if b == EXHAUSTED:
                    continue
                last_idx = min(b + 1, runs[i].blocks - 1)
                blk = machine.peek(runs[i].addrs[last_idx])
                s_token = token_of(blk[-1])
                is_final = last_idx == runs[i].blocks - 1
                among_smallest = (not buf_full) or s_token < buf.tokens[-1]
                if not is_final and among_smallest:
                    machine.acquire(4, "active-run state")
                    active.append([i, last_idx + 1, s_token, last_idx])
                    # Log init block maxes for the Phase E pointer update.
                    maxes = [(last_idx, s_token)]
                    if last_idx > b:
                        first = machine.peek(runs[i].addrs[b])
                        maxes.insert(0, (b, token_of(first[-1])))
                        machine.acquire(2, "pointer log")
                    machine.acquire(2, "pointer log")
                    init_maxes[i] = maxes
        rs.active_runs = len(active)
        # Lemma 3.1: after initialization at most m runs stay active.
        if len(active) > m:
            raise AssertionError(
                f"Lemma 3.1 violated: {len(active)} active runs > m = {m}"
            )

        # ---------------- Phase C: merge from active runs ---------------
        logs: dict[int, list] = init_maxes
        with machine.phase("merge/active"):
            while active:
                # The run with the smallest maximum loaded so far.
                j = min(range(len(active)), key=lambda t: active[t][2])
                machine.touch(len(active))
                entry = active[j]
                i, nxt = entry[0], entry[1]
                if nxt >= runs[i].blocks:
                    active.pop(j)
                    machine.release(4)
                    continue
                blk = machine.read(runs[i].addrs[nxt])
                rs.phase_c_reads += 1
                s_token = token_of(blk[-1])
                buf.feed(blk)
                buf.settle()
                machine.acquire(2, "pointer log")
                logs[i].append((nxt, s_token))
                entry[1] = nxt + 1
                entry[2] = s_token
                entry[3] = nxt
                buf_full = buf.held >= M
                if nxt == runs[i].blocks - 1 or (
                    buf_full and s_token > buf.tokens[-1]
                ):
                    active.pop(j)
                    machine.release(4)

        # ---------------- Phase D: emit the round's output --------------
        with machine.phase("merge/emit"):
            out.extend(buf.atoms)
            emitted += buf.held
            rs.emitted = buf.held
        threshold = buf.tokens[-1]

        # ---------------- Phase E: pointer update ------------------------
        with machine.phase("merge/pointers"):
            changes: dict[int, int] = {}
            for i, b in ptrs.scan():
                if b == EXHAUSTED:
                    continue
                if i in logs:
                    new_b = _advance_from_log(
                        machine, runs[i], b, logs[i], threshold
                    )
                else:
                    new_b = _advance_by_peek(machine, runs[i], b, threshold)
                if new_b != b:
                    changes[i] = new_b
            for log in logs.values():
                machine.release(2 * len(log))
            logs = {}
            ptrs.update(changes)

        snap = machine.snapshot() - start
        rs.reads, rs.writes = snap.reads, snap.writes
        if stats is not None:
            stats.rounds.append(rs)

    ptrs.close()
    if own_writer:
        return Run.of(out.close(), total)
    return Run.of((), total)


def _advance_from_log(machine, run: Run, b: int, log, threshold) -> int:
    """New pointer for a run whose read blocks this round were logged:
    the first block whose maximum exceeds the new threshold."""
    for idx, max_token in log:
        if max_token > threshold:
            return idx
    # Every logged block fully consumed; the next unread block (if any)
    # holds only atoms above the threshold by run sortedness.
    nxt = log[-1][0] + 1
    return nxt if nxt < run.blocks else EXHAUSTED


def _advance_by_peek(machine, run: Run, b: int, threshold) -> int:
    """New pointer for a run seen only in initialization: peek at most the
    two initialization blocks.

    For an inactive run, every unread block (>= b+2) lies entirely above
    the round's output (its atoms exceed the loaded maximum, which stayed
    outside the buffer's M smallest), so the pointer lands on b, b+1, or
    b+2 — or the run is exhausted.
    """
    blk = machine.peek(run.addrs[b])
    if token_of(blk[-1]) > threshold:
        return b
    if b + 1 >= run.blocks:
        return EXHAUSTED
    blk = machine.peek(run.addrs[b + 1])
    if token_of(blk[-1]) > threshold:
        return b + 1
    return b + 2 if b + 2 < run.blocks else EXHAUSTED
