"""Columnar event batches: the delivery form of ``on_batch`` consumers.

A :class:`~repro.machine.core.MachineCore` calls an observer's
overridden handlers once per event, unless the observer overrides
:meth:`MachineObserver.on_batch`: then its batchable events
(read/write/acquire/release/touch) reach it as one reused set of
parallel columns, flushed at phase boundaries, round boundaries,
attach/detach, every ``MachineCore.flush_interval`` events, and on
demand (``core.flush_events()``). The core appends to the batch only
while such a consumer is attached; phase and round events are never
batched, because they are the flush boundaries.

Layout: parallel lists ``kinds``/``addrs``/``lengths``/``costs``/``occs``
(one entry per event; ``whats`` is a side list holding acquire labels in
order), and ``n``, the number of buffered events.

The batch object and its column lists are **reused** across flushes
(``clear()`` empties them in place). ``on_batch`` implementations must
therefore copy any column they want to keep (``list(batch.addrs)``) —
retaining a reference is analysis rule AEM203.
"""

from __future__ import annotations

#: Event kind codes, one per batchable event. Phase and round events are
#: never batched: they *are* the flush boundaries.
KIND_READ = 0
KIND_WRITE = 1
KIND_ACQUIRE = 2
KIND_RELEASE = 3
KIND_TOUCH = 4

#: Human-readable names, indexed by kind code.
KIND_NAMES = ("read", "write", "acquire", "release", "touch")

#: The events that flow through batches (the rest are always per-event).
BATCHED_EVENTS = ("on_read", "on_write", "on_acquire", "on_release", "on_touch")


class EventBatch:
    """One reused columnar buffer of machine events.

    Columns (parallel, one entry per buffered event):

    ``kinds``
        Kind code (:data:`KIND_READ` ... :data:`KIND_TOUCH`).
    ``addrs``
        Block address for I/O events; ``-1`` for ledger/touch events.
    ``lengths``
        ``len(items)`` for I/O events; ``k`` for acquire/release/touch.
    ``costs``
        The model's charge for I/O events; ``0`` otherwise.
    ``occs``
        Ledger occupancy *after* the event applied — the same value a
        per-event handler would read from ``core.mem.occupancy``, so
        capacity checks vectorize without live ledger reads.
    ``whats``
        Side list: the ``what`` labels of acquire events, in order.

    ``n`` counts the buffered events.
    """

    __slots__ = ("kinds", "addrs", "lengths", "costs", "occs", "whats", "n")

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.addrs: list[int] = []
        self.lengths: list[int] = []
        self.costs: list[float] = []
        self.occs: list[int] = []
        self.whats: list[str] = []
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def clear(self) -> None:
        """Empty the batch in place (the column lists are reused)."""
        self.kinds.clear()
        self.addrs.clear()
        self.lengths.clear()
        self.costs.clear()
        self.occs.clear()
        self.whats.clear()
        self.n = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventBatch({self.n} events)"
