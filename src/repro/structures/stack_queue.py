"""External stack and FIFO queue — the textbook amortized structures.

Both keep O(B) atoms of in-memory buffer and move data in whole blocks, so
every operation costs amortized ``O(1/B)`` read I/Os and ``O(omega/B)``
write I/Os — the baseline every external data structure is measured
against, and a gentle first example of the buffering idiom the rest of the
repository uses everywhere.

* :class:`ExternalStack` — a hot block in memory; pushes spill a full
  block, pops reload one. The classic double-buffering refinement (keep
  the boundary from thrashing) is implemented: the stack only spills when
  *two* blocks are full and only reloads when the buffer runs empty, so an
  adversarial push/pop alternation at a block boundary cannot force one
  I/O per operation.
* :class:`ExternalQueue` — a head buffer (reading side) and a tail buffer
  (writing side) over a list of full blocks.

Slot discipline as everywhere: push takes ownership, pop returns it;
``push_new`` acquires for freshly created items.
"""

from __future__ import annotations

from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.errors import MachineError


class StructureEmptyError(MachineError):
    """Pop from an empty external structure."""


class ExternalStack:
    """LIFO stack with amortized O(1/B) I/Os per operation."""

    def __init__(self, machine: AEMMachine, params: AEMParams):
        self.machine = machine
        self.B = params.B
        self._buffer: list = []  # top of the stack at the end; <= 2B atoms
        self._blocks: list[int] = []  # full spilled blocks, bottom first
        self._spilled = 0

    def __len__(self) -> int:
        return self._spilled + len(self._buffer)

    def push(self, item) -> None:
        """Push an atom the caller holds (amortized O(omega/B))."""
        self._buffer.append(item)
        self.machine.touch()
        if len(self._buffer) == 2 * self.B:
            # Spill the *bottom* block of the buffer, keeping a full block
            # in memory so a pop right after cannot force a read.
            addr = self.machine.write_fresh(self._buffer[: self.B])
            self._blocks.append(addr)
            self._buffer = self._buffer[self.B :]
            self._spilled += self.B

    def push_new(self, item) -> None:
        self.machine.acquire(1, "stack push")
        self.push(item)

    def pop(self):
        """Pop the top atom (amortized O(1/B) reads)."""
        if not self._buffer:
            if not self._blocks:
                raise StructureEmptyError("pop from an empty stack")
            addr = self._blocks.pop()
            self._buffer = self.machine.read(addr)
            self.machine.free(addr)
            self._spilled -= len(self._buffer)
        self.machine.touch()
        return self._buffer.pop()

    def peek(self):
        if self._buffer:
            return self._buffer[-1]
        if not self._blocks:
            return None
        # Peek must not lose the block: read, keep as the buffer.
        addr = self._blocks.pop()
        self._buffer = self.machine.read(addr)
        self.machine.free(addr)
        self._spilled -= len(self._buffer)
        return self._buffer[-1]

    def close(self) -> None:
        self.machine.release(len(self._buffer))
        self._buffer = []
        self._blocks = []
        self._spilled = 0


class ExternalQueue:
    """FIFO queue with amortized O(1/B) I/Os per operation."""

    def __init__(self, machine: AEMMachine, params: AEMParams):
        self.machine = machine
        self.B = params.B
        self._head: list = []  # next to pop at position 0; <= B atoms
        self._blocks: list[int] = []  # full middle blocks, oldest first
        self._middle = 0
        self._tail: list = []  # most recent pushes; <= B atoms

    def __len__(self) -> int:
        return len(self._head) + self._middle + len(self._tail)

    def push(self, item) -> None:
        self._tail.append(item)
        self.machine.touch()
        if len(self._tail) == self.B:
            addr = self.machine.write_fresh(self._tail)
            self._blocks.append(addr)
            self._middle += self.B
            self._tail = []

    def push_new(self, item) -> None:
        self.machine.acquire(1, "queue push")
        self.push(item)

    def pop(self):
        if not self._head:
            if self._blocks:
                addr = self._blocks.pop(0)
                self._head = self.machine.read(addr)
                self.machine.free(addr)
                self._middle -= len(self._head)
            elif self._tail:
                self._head = self._tail
                self._tail = []
            else:
                raise StructureEmptyError("pop from an empty queue")
        self.machine.touch()
        return self._head.pop(0)

    def peek(self):
        if self._head:
            return self._head[0]
        if self._blocks:
            addr = self._blocks.pop(0)
            self._head = self.machine.read(addr)
            self.machine.free(addr)
            self._middle -= len(self._head)
            return self._head[0]
        if self._tail:
            return self._tail[0]
        return None

    def close(self) -> None:
        self.machine.release(len(self._head) + len(self._tail))
        self._head = []
        self._tail = []
        self._blocks = []
        self._middle = 0
