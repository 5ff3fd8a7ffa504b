"""An external-memory priority queue for the AEM.

The literature's AEM heapsort (cited by the paper as one of the two
unconditionally optimal sorters) rests on an external priority queue with
buffered, batch-amortized operations. This module provides such a
structure, built from this repository's own primitives:

* an in-memory **insert buffer** (a binary heap of up to ``Mi`` atoms) —
  pushes are free until it spills;
* an in-memory **delete buffer** (up to ``Md`` atoms) holding the globally
  smallest atoms stored in external runs, refilled by a *selection round*
  in the style of Section 3.1 (initialize from two blocks per run, then
  merge deeper only from runs that stay active);
* external **sorted runs** with per-run consumption cursors, compacted by
  leveled merging through :func:`~repro.sorting.merge.multiway_merge`
  (fan-in ``k``, so each atom takes part in ``O(log_k(n/m))`` merges).

Correctness invariant (checked in debug assertions and by the test
model): every atom still stored in a run is strictly greater, in the
``(key, uid)`` order, than every atom in the delete buffer. Insert-buffer
spills preserve it by splitting the spilled batch at the delete buffer's
maximum — the part below it joins the delete buffer (trimming the buffer's
largest atoms into a run of their own if it overflows).

Slot discipline follows the package convention: :meth:`push` takes
ownership of an atom the caller already holds; :meth:`pop` hands ownership
back. ``push_new`` acquires for atoms created in internal memory.

Costs: a push costs amortized ``O((1 + omega)/B)`` I/O per level it later
migrates through; a pop costs amortized ``O(1/B)`` reads plus its share of
refill overhead (``O(#runs * B / Md)`` reads per popped atom). Sorting N
atoms through the queue (:func:`pq_sort`) therefore costs
``O((1 + omega) * n * log_k(n/m))`` — the classic external heapsort bound
with fan-in ``k``; raising ``k`` toward ``omega*m`` with externalized
cursors (as Section 3 does for mergesort) is the natural extension and is
discussed in DESIGN.md.
"""

from __future__ import annotations

import heapq
from typing import Optional

from ..atoms.atom import Atom
from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.errors import MachineError
from ..machine.phantom import token_of
from ..machine.streams import BlockWriter
from ..sorting.merge import multiway_merge
from ..sorting.runs import Run


class PQError(MachineError):
    """Invariant violation or misuse of the external priority queue."""


class _StoredRun:
    """A sorted external run with a consumption cursor.

    ``cursor`` counts atoms already handed to the delete buffer; runs are
    always consumed prefix-wise (the refill takes globally smallest atoms
    and every run is sorted).
    """

    __slots__ = ("run", "cursor", "level")

    def __init__(self, run: Run, level: int):
        self.run = run
        self.cursor = 0
        self.level = level

    @property
    def remaining(self) -> int:
        return self.run.length - self.cursor

    def block_of(self, pos: int, B: int) -> tuple[int, int]:
        """(block index, offset) of the absolute atom position ``pos``."""
        return pos // B, pos % B


class ExternalPQ:
    """Buffered external-memory min-priority queue of atoms."""

    def __init__(
        self,
        machine: AEMMachine,
        params: AEMParams,
        *,
        insert_capacity: Optional[int] = None,
        delete_capacity: Optional[int] = None,
        fan_in: Optional[int] = None,
    ):
        self.machine = machine
        self.params = params
        B = params.B
        self.Mi = insert_capacity or max(B, params.M // 4)
        self.Md = delete_capacity or max(B, params.M // 4)
        self.k = fan_in or max(2, min(params.m - 1, params.fanout))
        if self.k < 2:
            raise PQError("fan-in must be at least 2")
        # In-memory state. Atoms in both buffers occupy machine slots.
        self._insert: list = []  # heapq of (token, atom)
        self._delete: list = []  # ascending list of atoms (smallest first)
        self._runs: list[_StoredRun] = []
        self._size = 0
        # Per-run cursors are auxiliary in-memory words, charged like the
        # merge's pointer table (2 words per run).
        self._cursor_words = 0

    # ------------------------------------------------------------------
    # Size and peeking.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self._size > 0

    def peek(self) -> Optional[Atom]:
        """The minimum atom, without removing it (may trigger a refill)."""
        if self._size == 0:
            return None
        self._ensure_delete_head()
        return self._min_source()[1]

    # ------------------------------------------------------------------
    # Core operations.
    # ------------------------------------------------------------------
    def push(self, atom: Atom) -> None:
        """Insert an atom the caller already holds in internal memory."""
        heapq.heappush(self._insert, (token_of(atom), atom))
        self._size += 1
        self.machine.touch()
        if len(self._insert) > self.Mi:
            self._spill_insert_buffer()

    def push_new(self, atom: Atom) -> None:
        """Insert an atom created in internal memory (acquires its slot)."""
        self.machine.acquire(1, "pq insert")
        self.push(atom)

    def pop(self) -> Atom:
        """Remove and return the minimum atom (ownership to the caller)."""
        if self._size == 0:
            raise PQError("pop from an empty priority queue")
        self._ensure_delete_head()
        source, _ = self._min_source()
        self._size -= 1
        self.machine.touch()
        if source == "insert":
            return heapq.heappop(self._insert)[1]
        return self._delete.pop(0)

    def drain(self) -> list[int]:
        """Pop everything into fresh output blocks; returns the addresses.

        Equivalent to N pops + writes but batched through a BlockWriter.
        """
        writer = BlockWriter(self.machine)
        while self._size:
            writer.push(self.pop())
        addrs = writer.close()
        self.close()
        return addrs

    def close(self) -> None:
        """Release all internal-memory state (buffers and cursor words).

        Atoms still queued are discarded; a queue abandoned without
        draining must be closed to keep the machine's ledger exact.
        """
        self.machine.release(len(self._insert) + len(self._delete))
        self._insert = []
        self._delete = []
        for _ in self._runs:
            self.machine.release(2)
        self._cursor_words = 0
        self._runs = []
        self._size = 0

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _min_source(self) -> tuple[str, Atom]:
        """Which buffer currently holds the global minimum."""
        best: tuple[str, Atom] | None = None
        if self._insert:
            best = ("insert", self._insert[0][1])
        if self._delete:
            cand = self._delete[0]
            if best is None or cand < best[1]:
                best = ("delete", cand)
        if best is None:
            raise PQError("no atoms buffered despite non-zero size")
        return best

    def _ensure_delete_head(self) -> None:
        """Refill the delete buffer if runs hold atoms but it is empty."""
        if not self._delete and any(r.remaining for r in self._runs):
            self._refill()

    # ----------------------- insert spills ----------------------------
    def _spill_insert_buffer(self) -> None:
        """Flush the insert buffer into a new level-0 run.

        The batch is split at the delete buffer's maximum to preserve the
        run/delete-buffer threshold invariant.
        """
        batch = [atom for _, atom in sorted(self._insert)]
        self.machine.touch(len(batch))
        self._insert = []

        if self._delete:
            threshold = token_of(self._delete[-1])
            below = [a for a in batch if token_of(a) <= threshold]
            batch = batch[len(below):]
            if below:
                merged = sorted(self._delete + below)
                self.machine.touch(len(merged))
                self._delete = merged
                # Trim an overfull delete buffer: its largest atoms become
                # a run of their own; the new (smaller) maximum keeps the
                # invariant for every stored run.
                if len(self._delete) > self.Md:
                    spill = self._delete[self.Md:]
                    self._delete = self._delete[: self.Md]
                    self._store_run(spill)
        if batch:
            self._store_run(batch)
        self._compact()

    def _store_run(self, atoms: list) -> None:
        """Write a sorted in-memory batch out as a stored run."""
        writer = BlockWriter(self.machine)
        for atom in atoms:
            writer.push(atom)
        run = Run.of(writer.close(), len(atoms))
        level = self._level_of(run.length)
        self._runs.append(_StoredRun(run, level))
        self.machine.acquire(2, "pq run cursor")
        self._cursor_words += 2

    def _level_of(self, length: int) -> int:
        level = 0
        cap = max(1, self.Mi)
        while length > cap:
            cap *= self.k
            level += 1
        return level

    # ----------------------- leveled compaction ------------------------
    def _compact(self) -> None:
        """Merge runs level by level while any level holds >= k runs."""
        while True:
            by_level: dict[int, list[_StoredRun]] = {}
            for sr in self._runs:
                if sr.remaining > 0:
                    by_level.setdefault(sr.level, []).append(sr)
            target = next(
                (lv for lv, group in sorted(by_level.items()) if len(group) >= self.k),
                None,
            )
            if target is None:
                break
            group = by_level[target][: self.params.fanout]
            self._merge_group(group)
            # Drop exhausted runs' cursors.
            kept = []
            for sr in self._runs:
                if sr.remaining > 0:
                    kept.append(sr)
                else:
                    self.machine.release(2)
                    self._cursor_words -= 2
            self._runs = kept

    def _merge_group(self, group: list[_StoredRun]) -> None:
        """Merge a group of (possibly partially consumed) runs."""
        pieces = [self._compact_remaining(sr) for sr in group]
        pieces = [r for r in pieces if not r.is_empty()]
        for sr in group:
            sr.cursor = sr.run.length  # consumed into the merge
        if not pieces:
            return
        merged = multiway_merge(self.machine, pieces, self.params)
        level = self._level_of(merged.length)
        self._runs.append(_StoredRun(merged, level))
        self.machine.acquire(2, "pq run cursor")
        self._cursor_words += 2

    def _compact_remaining(self, sr: _StoredRun) -> Run:
        """The unconsumed suffix of a run as a standalone Run.

        Fully unconsumed runs are reused as-is; a partially consumed first
        block is rewritten fresh (one read + one write).
        """
        B = self.params.B
        if sr.cursor == 0:
            return sr.run
        if sr.remaining == 0:
            return Run.of((), 0)
        first_block, offset = sr.block_of(sr.cursor, B)
        addrs = list(sr.run.addrs[first_block:])
        if offset == 0:
            return Run.of(addrs, sr.remaining)
        blk = self.machine.read(addrs[0])
        keep = blk[offset:]
        self.machine.release(len(blk) - len(keep))
        fresh = self.machine.write_fresh(keep)
        return Run.of([fresh] + addrs[1:], sr.remaining)

    # ----------------------- delete-buffer refill ----------------------
    def _refill(self) -> None:
        """Selection round: move the up-to-Md smallest run atoms into the
        delete buffer, advancing each run's cursor past its contribution.

        Mirrors Section 3.1's round structure with in-memory cursors:
        initialize from (up to) two blocks per run, identify the runs that
        can still contribute, then merge deeper from the run with the
        smallest loaded maximum.
        """
        B = self.params.B
        # buffer entries: (atom, run index); sorted ascending by atom.
        buffer: list = []
        taken: dict[int, int] = {}

        def offer(atom, ridx) -> bool:
            """Try to place an atom into the selection buffer."""
            self.machine.touch()
            if len(buffer) < self.Md:
                _insort_entry(buffer, (atom, ridx))
                taken[ridx] = taken.get(ridx, 0) + 1
                return True
            if atom < buffer[-1][0]:
                _, evicted_ridx = buffer.pop()
                taken[evicted_ridx] -= 1
                self.machine.release(1)
                _insort_entry(buffer, (atom, ridx))
                taken[ridx] = taken.get(ridx, 0) + 1
                return True
            self.machine.release(1)
            return False

        # Phase A: two blocks per run, from the cursor.
        frontier: dict[int, int] = {}  # run idx -> next unread block index
        for ridx, sr in enumerate(self._runs):
            if sr.remaining == 0:
                continue
            first_block, offset = sr.block_of(sr.cursor, B)
            loaded = 0
            for bidx in (first_block, first_block + 1):
                if bidx >= sr.run.blocks:
                    break
                blk = self.machine.read(sr.run.addrs[bidx])
                skip = offset if bidx == first_block else 0
                self.machine.release(skip)
                for atom in blk[skip:]:
                    offer(atom, ridx)
                loaded = bidx + 1
            frontier[ridx] = loaded

        # Phase B/C: merge deeper from runs that may still contribute.
        # A run is active while its last loaded atom sits in the buffer.
        def run_max_token(ridx):
            sr = self._runs[ridx]
            end = min(frontier[ridx] * B, sr.run.length)
            if end <= sr.cursor:
                return None
            last_bidx = frontier[ridx] - 1
            blk = self.machine.peek(sr.run.addrs[last_bidx])
            return token_of(blk[-1])

        active: dict[int, tuple] = {}
        for ridx in frontier:
            sr = self._runs[ridx]
            if frontier[ridx] >= sr.run.blocks:
                continue  # fully loaded
            token = run_max_token(ridx)
            if token is None:
                continue
            buf_full = len(buffer) >= self.Md
            if not buf_full or token < token_of(buffer[-1][0]):
                active[ridx] = token
        while active:
            ridx = min(active, key=active.get)
            sr = self._runs[ridx]
            bidx = frontier[ridx]
            blk = self.machine.read(sr.run.addrs[bidx])
            for atom in blk:
                offer(atom, ridx)
            frontier[ridx] = bidx + 1
            token = token_of(blk[-1])
            buf_full = len(buffer) >= self.Md
            exhausted = frontier[ridx] >= sr.run.blocks
            if exhausted or (buf_full and token > token_of(buffer[-1][0])):
                del active[ridx]
            else:
                active[ridx] = token

        # Commit: the buffer holds the Md smallest stored atoms; advance
        # each run's cursor by its contribution.
        for ridx, count in taken.items():
            if count:
                self._runs[ridx].cursor += count
        self._delete = [atom for atom, _ in buffer]
        if not self._delete:
            raise PQError("refill produced nothing despite stored atoms")
        self._drop_exhausted_runs()

    def _drop_exhausted_runs(self) -> None:
        kept = []
        for sr in self._runs:
            if sr.remaining > 0:
                kept.append(sr)
            else:
                self.machine.release(2)
                self._cursor_words -= 2
        self._runs = kept


def _insort_entry(buffer: list, entry: tuple) -> None:
    """Insert (atom, ridx) keeping the buffer sorted by atom."""
    lo, hi = 0, len(buffer)
    atom = entry[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if buffer[mid][0] < atom:
            lo = mid + 1
        else:
            hi = mid
    buffer.insert(lo, entry)


def pq_sort(
    machine: AEMMachine, addrs, params: AEMParams
) -> list[int]:
    """Sort by pushing everything through an :class:`ExternalPQ`.

    The classic heapsort-via-priority-queue: cost
    ``O((1 + omega) * n * log_k(n/m))`` with the queue's fan-in ``k``.
    Registered as ``aem_pqsort`` in the sorter registry.
    """
    from ..machine.streams import BlockReader

    pq = ExternalPQ(machine, params)
    reader = BlockReader(machine, addrs)
    for atom in reader:
        pq.push(atom)  # ownership transfers from the reader
    return pq.drain()
