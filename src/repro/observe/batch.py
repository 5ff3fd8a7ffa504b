"""Columnar event batches: the vectorized half of the machine event bus.

Per-event dispatch costs one Python call per observer per I/O — the
dominant wall-time term once counting mode removed payload copies.
:class:`EventBatch` is the fix: a :class:`~repro.machine.core.MachineCore`
appends each batchable event (read/write/acquire/release/touch) to one
reused set of parallel columns and *flushes* the batch to consumers at
phase boundaries, round boundaries, attach/detach, every ``flush_every``
events, and on demand (``core.flush_events()``).

Consumers come in two tiers:

* observers declaring ``needs_events = True`` (or ``needs_payloads``,
  which implies it) keep exact synchronous per-event delivery with the
  real payloads — batching never touches them;
* every other observer gets one :meth:`MachineObserver.on_batch` call
  per flush: its own vectorized override, or the inherited default,
  which replays the columns to its per-event handlers in original order
  with sized placeholder payloads.

Layout: parallel lists ``kinds``/``addrs``/``lengths``/``costs``/``occs``
(one entry per event; ``whats`` is a side list holding acquire labels in
order), plus O(1) running aggregates (``reads``, ``writes``,
``read_cost``, ``write_cost``, ``touches``) maintained at append time so
aggregate-only consumers (the cost ledger, progress readouts) never need
the columns at all. When *no* attached consumer needs columns the core
skips filling them entirely — the per-I/O cost of the default machine
(one :class:`~repro.observe.CostObserver`) drops to a few inline
increments. The ``write_addrs`` side list (the address of every write,
in order) is filled whenever the core buffers, columns or not, so
per-block write counters (wear maps, metrics) stay column-free.

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

#: The events that flow through batches (the rest stay synchronous).
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
        synchronous handler would read from ``core.mem.occupancy``, so
        capacity checks vectorize without live ledger reads.
    ``whats``
        Side list: the ``what`` labels of acquire events, in order.
    ``write_addrs``
        Side list: the address of every write event, in order. Unlike
        the columns it is recorded whenever the core buffers.

    Aggregates (maintained inline at append time, valid even when the
    columns are not being recorded): ``n`` (buffered events), ``reads``,
    ``writes``, ``read_cost``, ``write_cost``, ``touches`` (summed ``k``),
    ``touch_events`` (number of touch events).
    """

    __slots__ = (
        "kinds",
        "addrs",
        "lengths",
        "costs",
        "occs",
        "whats",
        "write_addrs",
        "n",
        "reads",
        "writes",
        "read_cost",
        "write_cost",
        "touches",
        "touch_events",
    )

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.addrs: list[int] = []
        self.lengths: list[int] = []
        self.costs: list[float] = []
        self.occs: list[int] = []
        self.whats: list[str] = []
        self.write_addrs: list[int] = []
        self.n = 0
        self.reads = 0
        self.writes = 0
        self.read_cost = 0.0
        self.write_cost = 0.0
        self.touches = 0
        self.touch_events = 0

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
        self.write_addrs.clear()
        self.n = 0
        self.reads = 0
        self.writes = 0
        self.read_cost = 0.0
        self.write_cost = 0.0
        self.touches = 0
        self.touch_events = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventBatch({self.n} events: {self.reads}r/{self.writes}w, "
            f"columns={'on' if self.kinds else 'off'})"
        )
