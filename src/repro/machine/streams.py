"""Sequential block streams over an :class:`~repro.machine.aem.AEMMachine`.

Nearly every external-memory algorithm is built from two motifs:

* *scanning* a run of blocks, consuming the atoms in order, and
* *emitting* a stream of atoms into freshly written blocks.

:class:`BlockReader` and :class:`BlockWriter` implement these motifs with
honest cost and capacity accounting, so the algorithms read like their
pseudo-code. A reader holds at most one block (``B`` atoms) resident; a
writer buffers at most one block before flushing. Both therefore add only
``O(B)`` to an algorithm's internal footprint.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .aem import AEMMachine


class BlockReader:
    """Consume the atoms stored in a sequence of blocks, one block resident.

    The reader ``read``-s a block (acquiring its atoms) and hands them out
    via :meth:`take` / :meth:`peek` / iteration. A taken atom *stays
    resident*: its slot transfers to the caller, who releases it either by
    writing it out (``machine.write`` / ``BlockWriter.push`` + flush) or by
    discarding it (``machine.release(1)`` / :meth:`drop`). This keeps the
    ledger exact across the ubiquitous read-transform-write pipelines.
    """

    def __init__(self, machine: AEMMachine, addrs: Sequence[int]):
        self.machine = machine
        self.addrs = list(addrs)
        self._next_block = 0
        self._buf: list = []
        self._pos = 0

    def _fill(self) -> bool:
        """Load the next non-empty block; False when the run is exhausted."""
        while self._pos >= len(self._buf):
            if self._buf:
                # Release atoms of the exhausted block that were never taken
                # (all were taken: _pos >= len) — nothing held; reset buffer.
                self._buf = []
                self._pos = 0
            if self._next_block >= len(self.addrs):
                return False
            addr = self.addrs[self._next_block]
            self._next_block += 1
            # read() acquires the block's atoms; they remain counted until a
            # caller takes (and later releases/writes) them or close() runs.
            self._buf = self.machine.read(addr)
            self._pos = 0
        return True

    def exhausted(self) -> bool:
        return self._pos >= len(self._buf) and self._next_block >= len(self.addrs)

    def peek(self):
        """The next atom without consuming it, or None when exhausted."""
        if not self._fill():
            return None
        return self._buf[self._pos]

    def take(self):
        """Consume and return the next atom; its slot transfers to the caller.

        Raises StopIteration when the run is exhausted.
        """
        if not self._fill():
            raise StopIteration("block run exhausted")
        item = self._buf[self._pos]
        self._pos += 1
        return item

    def drop(self):
        """Consume the next atom and immediately release its slot."""
        item = self.take()
        self.machine.release(1)
        return item

    def __iter__(self) -> Iterator:
        # Yields straight from the resident block. _pos and _buf are
        # re-read after every yield, so a caller mixing iteration with
        # peek/take/drop/close sees (and leaves) the exact position.
        while self._fill():
            buf = self._buf
            while self._buf is buf and self._pos < len(buf):
                pos = self._pos
                self._pos = pos + 1
                yield buf[pos]

    def close(self) -> None:
        """Release any atoms still staged in the current block."""
        remaining = len(self._buf) - self._pos
        if remaining > 0:
            self.machine.release(remaining)
        self._buf = []
        self._pos = 0
        self._next_block = len(self.addrs)


class BlockWriter:
    """Buffer atoms and flush full blocks to freshly allocated addresses.

    ``push`` takes ownership of an atom that the caller already holds in
    internal memory (no extra acquire: the slot simply transfers). ``flush``
    writes the buffer out, releasing the slots. The writer's buffer is part
    of the algorithm's internal footprint; it never exceeds ``B`` atoms.
    """

    def __init__(self, machine: AEMMachine, addrs: Optional[Iterable[int]] = None):
        self.machine = machine
        self._buf: list = []
        self._preallocated: list[int] = list(addrs) if addrs is not None else []
        self._prealloc_pos = 0
        self.addrs: list[int] = []
        self.count = 0

    def _next_addr(self) -> int:
        if self._prealloc_pos < len(self._preallocated):
            addr = self._preallocated[self._prealloc_pos]
            self._prealloc_pos += 1
            return addr
        return self.machine.allocate_one()

    def push(self, item) -> None:
        """Append one atom (already resident) to the output stream."""
        self._buf.append(item)
        self.count += 1
        if len(self._buf) == self.machine.params.B:
            self._flush_block()

    def push_new(self, item) -> None:
        """Append an atom created in internal memory (acquires its slot)."""
        self.machine.acquire(1)
        self.push(item)

    def extend(self, items: Sequence) -> None:
        """``push`` every atom of ``items`` in order, a block at a time.

        Fills the pending block first, then writes whole B-slices, so the
        writes land at exactly the addresses, lengths and points the
        per-atom ``push`` loop produces.
        """
        B = self.machine.params.B
        n = len(items)
        self.count += n
        i = 0
        if self._buf:
            i = min(n, B - len(self._buf))
            self._buf.extend(items[:i])
            if len(self._buf) < B:
                return
            self._flush_block()
        while n - i >= B:
            addr = self._next_addr()
            self.machine.write(addr, items[i : i + B])
            self.addrs.append(addr)
            i += B
        self._buf = list(items[i:])

    def _flush_block(self) -> None:
        addr = self._next_addr()
        self.machine.write(addr, self._buf)
        self.addrs.append(addr)
        self._buf = []

    def close(self) -> list[int]:
        """Flush any partial final block; returns all written addresses."""
        if self._buf:
            self._flush_block()
        return self.addrs

    @property
    def buffered(self) -> int:
        return len(self._buf)


def scan_copy(machine: AEMMachine, addrs: Sequence[int]) -> list[int]:
    """Copy a run of blocks (one read + one write each); returns new run.

    The canonical "read and write scan over the input" used e.g. to
    normalize programs in Lemma 4.3, with cost ``n`` reads + ``n`` writes.
    """
    if machine.counting:
        # Whole-block fast path with the event stream of the per-atom loop:
        # the reader reads each input block exactly when its buffer runs
        # dry, and the writer flushes mid-block whenever B atoms are
        # pending — since every input block adds <= B atoms, at most one
        # flush falls between consecutive reads, which is exactly what the
        # chunking below produces (then one final partial flush).
        pending: list = []
        out_addrs: list[int] = []
        B = machine.params.B
        for addr in addrs:
            items = machine.read(addr)
            if not pending and len(items) == B:
                # Aligned case (every full input block while no partial
                # carry is pending): the read IS the chunk — the write
                # lands at the same point in the event stream the
                # buffered path would produce, without the buffer churn.
                out_addrs.append(machine.write_fresh(items))
                continue
            pending.extend(items)
            while len(pending) >= B:
                chunk = pending[:B]
                del pending[:B]
                out_addrs.append(machine.write_fresh(chunk))
        if pending:
            out_addrs.append(machine.write_fresh(pending))
        return out_addrs
    reader = BlockReader(machine, addrs)
    writer = BlockWriter(machine)
    for item in reader:
        writer.push(item)
    return writer.close()
