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
  ``i`` read blocks ``b[i]`` and ``b[i]+1`` and merge their atoms ``> P``
  into the buffer, truncated to the M smallest.
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

Setting ``pointer_mode="internal"`` keeps the ``b[i]`` table resident in
internal memory instead — the strategy of the previously published AEM
mergesort, which works only while the table fits (``omega*m + M`` within
physical memory, i.e. essentially ``omega < B``); with larger ``omega`` it
raises :class:`~repro.machine.errors.CapacityError`. This is experiment
E2's baseline.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

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
    counting = machine.counting
    threshold = None  # sort token of the largest atom emitted so far (P)
    emitted = 0

    def above_threshold(atom) -> bool:
        return threshold is None or atom.sort_token() > threshold

    while emitted < total:
        rs = RoundStats()
        start = machine.snapshot()
        buffer: list = []  # the paper's M: sorted, at most M atoms

        def merge_atom(atom) -> None:
            """Merge one freshly read (resident) atom into the buffer,
            releasing it if rejected or an evicted atom otherwise."""
            machine.touch()
            if not above_threshold(atom):
                machine.release(1)
                return
            if len(buffer) < M:
                insort(buffer, atom)
            elif atom < buffer[-1]:
                buffer.pop()  # evict current largest candidate
                machine.release(1)
                insort(buffer, atom)
            else:
                machine.release(1)

        def feed_block(tokens) -> None:
            """Counting-mode ``merge_atom`` over a whole sorted block.

            Keeping the M smallest of (buffer ∪ accepted tokens) is
            feed-order independent, so extend+sort+truncate lands on the
            exact buffer the per-atom loop builds. The per-atom touches
            and releases are batched into one event each with identical
            totals (releases per block = accepted-or-rejected atoms plus
            evictions = len + old_len - new_len), and they land before
            the next acquire, so peak memory is unchanged too.
            """
            machine.touch(len(tokens))
            old_len = len(buffer)
            if threshold is None:
                buffer.extend(tokens)
            else:
                # First token strictly greater than the threshold — the
                # batched form of merge_atom's strict `> threshold` test.
                buffer.extend(tokens[bisect_right(tokens, threshold) :])
            buffer.sort()
            del buffer[M:]
            machine.release(len(tokens) + old_len - len(buffer))

        # ---------------- Phase A: initialize the buffer ----------------
        with machine.phase("merge/init"):
            for i, b in ptrs.scan():
                if b == EXHAUSTED:
                    continue
                for idx in (b, b + 1):
                    if idx < runs[i].blocks:
                        blk = machine.read(runs[i].addrs[idx])
                        if counting:
                            feed_block(blk)
                        else:
                            for atom in blk:
                                merge_atom(atom)

        # ---------------- Phase B: identify active runs -----------------
        # active entries: [i, next_block_index, s_token, last_block_read]
        active: list[list] = []
        init_maxes: dict[int, list] = {}  # i -> [(blk_idx, max_token), ...]
        with machine.phase("merge/identify"):
            buf_full = len(buffer) >= M
            for i, b in ptrs.scan():
                if b == EXHAUSTED:
                    continue
                last_idx = min(b + 1, runs[i].blocks - 1)
                blk = machine.peek(runs[i].addrs[last_idx])
                s_token = token_of(blk[-1])
                is_final = last_idx == runs[i].blocks - 1
                among_smallest = (not buf_full) or s_token < token_of(buffer[-1])
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
                if counting:
                    feed_block(blk)
                else:
                    for atom in blk:
                        merge_atom(atom)
                machine.acquire(2, "pointer log")
                logs[i].append((nxt, s_token))
                entry[1] = nxt + 1
                entry[2] = s_token
                entry[3] = nxt
                buf_full = len(buffer) >= M
                if nxt == runs[i].blocks - 1 or (
                    buf_full and s_token > token_of(buffer[-1])
                ):
                    active.pop(j)
                    machine.release(4)

        # ---------------- Phase D: emit the round's output --------------
        with machine.phase("merge/emit"):
            new_threshold = token_of(buffer[-1])
            out.extend(buffer)
            emitted += len(buffer)
            rs.emitted = len(buffer)
            buffer = []
        threshold = new_threshold

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
