"""The shared machine substrate: storage, ledger, and the event bus.

Every memory-model machine in this repository — the (M, B, omega)-AEM and
its EM/ARAM special cases, and the unit-cost flash model — is the same
three ingredients with different cost semantics on top:

* a :class:`~repro.machine.blockstore.BlockStore` (unbounded block-addressed
  external memory),
* an :class:`~repro.machine.internal.InternalMemory` ledger (the capacity
  ``M``), and
* a stream of *machine events* consumed by attached
  :class:`~repro.observe.MachineObserver` instances (cost accounting,
  trace recording, wear profiling, progress display, ...).

:class:`MachineCore` packages the three. The concrete machines own a core,
translate their model's operations into core calls, and supply the
per-I/O ``cost`` their model charges (``1``/``omega`` for the AEM, the
transferred volume for the flash model), so every consumer downstream sees
one uniform event stream regardless of which model produced it.

Every AEM event is one Python frame: ``read_block``, ``peek_block``,
``write_block``, ``acquire``, ``release`` and ``touch`` (bound by
:class:`~repro.machine.aem.AEMMachine` as its ``read``, ``peek``,
``write``, ``acquire``, ``release`` and ``touch``) do their store and
ledger steps inline, charge the cost ledger inline and emit inline.
:meth:`MachineCore.emit_read` and :meth:`MachineCore.emit_write` are the
raw entry for machines with bespoke transfer shapes (the flash model's
sub-block reads), and the only other emission code.

The cost ledger is the core's own :class:`~repro.machine.cost.CostCounter`
(:attr:`MachineCore.counter`): every read, write and touch is charged to
it, attributed to the phase path :meth:`MachineCore.phase` keeps open, in
the frame that performs the operation, so no observer sits between an
I/O and ``Q``.

An observer's overridden handlers are called once per event, with the
real payload. The one exception is an observer that overrides
``on_batch`` (and does not declare ``needs_payloads``): it receives its
batchable events (read/write/acquire/release/touch) as columnar
:class:`~repro.observe.batch.EventBatch` batches, flushed at phase
enter/exit, round boundaries, attach/detach, every
:attr:`MachineCore.flush_interval` events, on explicit
:meth:`flush_events` calls, and when the core is finalized (observers
hold their core weakly, so a finished machine is freed as soon as its
last reference goes, and an observer that outlives it still reads every
event). The core appends to the batch only while such a consumer is
attached. Phase and round events are never buffered — they are the flush
boundaries, so per-phase attribution and round-form checks see complete,
correctly segmented streams.

Emitting an event that nobody listens to is one truthiness check on an
empty list, and batching at the semantic level still applies —
``touch(k)`` reports ``k`` internal operations in one event, and block
transfers are one event per I/O, never per atom.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Sized, Union

from ..observe.base import EVENTS, MachineObserver
from ..observe.batch import (
    BATCHED_EVENTS,
    KIND_ACQUIRE,
    KIND_READ,
    KIND_RELEASE,
    KIND_TOUCH,
    KIND_WRITE,
    EventBatch,
)
from .blockstore import BlockStore
from .cost import CostCounter
from .errors import BlockSizeError
from .internal import InternalMemory
from .phantom import PhantomBlock, is_phantom_payload

#: Lifecycle hooks, called at attach/detach rather than dispatched.
_LIFECYCLE = ("on_attach", "on_detach")

_BATCHED_SET = frozenset(BATCHED_EVENTS)

#: Installed by :mod:`repro.telemetry.spans`: a zero-argument callable
#: returning an observer to auto-attach to every new core (or ``None``
#: when no trace is active). The machine layer stays import-free of
#: telemetry; the factory is the one seam between them.
_SPAN_OBSERVER_FACTORY = None


def install_span_observer_factory(factory) -> None:
    """Register the ambient span-recorder factory (telemetry's hook).

    ``factory()`` is called once per :class:`MachineCore` construction
    and must be cheap when no trace is active (return ``None``); a
    non-``None`` return value is attached like any other observer.
    """
    global _SPAN_OBSERVER_FACTORY
    _SPAN_OBSERVER_FACTORY = factory


def _validate_handler_names(observer: MachineObserver) -> None:
    """Reject ``on_*`` methods that match no machine event.

    Overriding is opt-in by name, so a typo'd handler (``on_raed``)
    would otherwise just never fire. Every class in the observer's MRO
    below :class:`MachineObserver` is checked, so typos in mixins and
    base classes surface too.
    """
    allowed = set(EVENTS) | set(_LIFECYCLE) | {"on_batch"}
    for klass in type(observer).__mro__:
        if klass in (MachineObserver, object):
            continue
        for name, value in vars(klass).items():
            if name.startswith("on_") and callable(value) and name not in allowed:
                raise ValueError(
                    f"{klass.__name__}.{name} matches no machine event; "
                    f"known events are {EVENTS} (plus on_batch and "
                    f"lifecycle {_LIFECYCLE})"
                )


def _block_read(keep: bool):
    """The one-frame body of :meth:`MachineCore.read_block` (``keep=True``)
    and :meth:`MachineCore.peek_block` (``keep=False``)."""

    def block_read(
        self: MachineCore, addr: int, cost: Optional[float] = None
    ) -> Sequence:
        """Read one block (cost :attr:`read_cost` unless given).

        ``read_block`` (the machine's ``read``) acquires the block's atoms
        in the ledger, and the caller now owns their slots;
        ``peek_block`` (its ``peek``) only checks they *would* fit. A
        full store hands out a list copy of the block (algorithms mutate
        the lists they hold). A phantom store hands out the tuple the
        block holds (its input tokens, or what was last written to it),
        or a sized :class:`~repro.machine.phantom.PhantomBlock` for a
        block written as a phantom payload.
        """
        try:
            blk = self.disk._blocks[addr]
        except KeyError:
            self.disk.get(addr)  # raises the store's AddressError
            raise
        if self.payloads:
            items = list(blk)
        else:
            items = PhantomBlock(blk) if blk.__class__ is int else blk
        k = len(items)
        mem = self.mem
        if keep:
            occ = mem.occupancy + k
            if mem.enforce and occ > mem.capacity:
                mem.acquire(k)  # raises the ledger's CapacityError
            mem.occupancy = occ
            if occ > mem.peak:
                mem.peak = occ
        elif mem.enforce and mem.occupancy + k > mem.capacity:
            mem.require(k)  # raises the ledger's CapacityError
        if cost is None:
            cost = self.read_cost
        self.io_count += 1
        counter = self.counter
        counter.reads += 1
        counter.read_cost += cost
        bucket = counter._bucket
        bucket[0] += 1
        bucket[2] += cost
        if self._on_read:
            for cb in self._on_read:
                cb(addr, items, cost)
        if self._buffering:
            batch = self.batch
            batch.kinds.append(KIND_READ)
            batch.addrs.append(addr)
            batch.lengths.append(k)
            batch.costs.append(cost)
            batch.occs.append(mem.occupancy)
            batch.n += 1
            if batch.n >= self.flush_interval:
                self.flush_events()
        return items

    block_read.__name__ = "read_block" if keep else "peek_block"
    block_read.__qualname__ = "MachineCore." + block_read.__name__
    return block_read


class MachineCore:
    """Block storage + capacity ledger + cost ledger + observer event bus.

    ``omega`` is the write/read cost ratio its :attr:`counter` prices
    ``Q = Qr + omega*Qw`` with (``1`` for symmetric models, including the
    flash model, whose asymmetry lives in the per-event ``cost``).
    """

    #: Buffered events between forced flushes while an ``on_batch``
    #: consumer is attached: large enough to amortize dispatch, small
    #: enough that no consumer sits on an unbounded buffer.
    flush_interval = 512

    def __init__(
        self,
        disk: BlockStore,
        mem: InternalMemory,
        observers: Sequence[MachineObserver] = (),
        *,
        omega: float = 1.0,
    ):
        # The bus state comes first: __del__ flushes, and must find it even
        # when a later argument check fails.
        self.batch = EventBatch()
        self._flushing = False
        self._on_batch: list = []  # bound on_batch methods, attach order
        #: The cost ledger: every read, write and touch, by phase path.
        self.counter = CostCounter(omega)
        self.disk = disk
        self.mem = mem
        # Counting-mode cores sit on a PhantomBlockStore and carry no atom
        # payloads; observers that need contents are rejected at attach.
        self.payloads = not getattr(disk, "phantom", False)
        #: Default charges of read_block/write_block; the machine on top
        #: sets its model's (the AEM: 1 and omega).
        self.read_cost: float = 1
        self.write_cost: float = 1
        self.io_count = 0  # total I/O events emitted (reads + writes)
        self.last_drained = 0  # slots drained by the most recent round boundary
        self.observers: list[MachineObserver] = []
        self._buffering = False  # some on_batch consumer is attached
        for name in EVENTS:
            setattr(self, "_" + name, [])
        for obs in observers:
            self.attach(obs)
        if _SPAN_OBSERVER_FACTORY is not None:
            span_observer = _SPAN_OBSERVER_FACTORY()
            if span_observer is not None:
                self.attach(span_observer)

    # ------------------------------------------------------------------
    # Observer management.
    # ------------------------------------------------------------------
    def attach(self, observer: MachineObserver) -> MachineObserver:
        """Attach ``observer``; only its overridden handlers are dispatched.

        Handler names are validated against the event vocabulary: an
        ``on_``-prefixed method that matches no known event (``on_raed``)
        raises :class:`ValueError` here, at attach time, instead of
        silently never firing. Any buffered events are flushed first, so
        the new observer sees nothing that happened before it attached.
        """
        if observer in self.observers:
            raise ValueError(f"observer {observer!r} is already attached")
        if getattr(observer, "needs_payloads", False) and not self.payloads:
            raise ValueError(
                f"{type(observer).__name__} declares needs_payloads=True "
                "(it reads atom contents), but this machine runs in counting "
                "mode and its event stream carries block sizes only; attach "
                "it to a full (counting=False) machine instead"
            )
        _validate_handler_names(observer)
        self.flush_events()
        self.observers.append(observer)
        self._rebuild_dispatch()
        hook = getattr(observer, "on_attach", None)
        if hook is not None:
            hook(self)
        return observer

    def detach(self, observer: MachineObserver) -> None:
        """Detach ``observer`` (buffered events are delivered to it first)."""
        self.flush_events()
        self.observers.remove(observer)
        self._rebuild_dispatch()
        hook = getattr(observer, "on_detach", None)
        if hook is not None:
            hook(self)

    def __del__(self) -> None:
        # Observers hold their core weakly, so a finished machine is freed
        # by reference counting while its observers may live on; hand the
        # batch consumers what is still buffered so their readouts stay
        # exact.
        self.flush_events()

    def _rebuild_dispatch(self) -> None:
        """Recompute every dispatch list from ``self.observers``.

        An observer that overrides ``on_batch`` and does not declare
        ``needs_payloads`` (batches carry lengths, not atoms) receives
        its batchable events in batches; every other overridden handler
        of every observer goes into its event's per-event list. Phase and
        round handlers are always per-event (those events are flush
        points, fired after the flush).
        """
        base = MachineObserver
        for name in EVENTS:
            getattr(self, "_" + name).clear()
        self._on_batch.clear()
        for obs in self.observers:
            cls = type(obs)
            overrides = getattr(cls, "on_batch", base.on_batch) is not base.on_batch
            batched = overrides and not getattr(obs, "needs_payloads", False)
            if batched:
                self._on_batch.append(obs.on_batch)
            for name in EVENTS:
                handler = getattr(cls, name, None)
                if handler is None or handler is getattr(base, name):
                    continue
                if not (batched and name in _BATCHED_SET):
                    getattr(self, "_" + name).append(getattr(obs, name))
        self._buffering = bool(self._on_batch)

    def find(self, kind: type) -> list:
        """All attached observers that are instances of ``kind``."""
        return [obs for obs in self.observers if isinstance(obs, kind)]

    # ------------------------------------------------------------------
    # Batch flushing.
    # ------------------------------------------------------------------
    def flush_events(self) -> None:
        """Deliver all buffered events to the ``on_batch`` consumers.

        Safe to call at any time (no-op when the buffer is empty or when
        already mid-flush); readout paths on batch consumers call this so
        that what they report is exact regardless of buffer state.
        """
        batch = self.batch
        if not batch.n or self._flushing:
            return
        self._flushing = True
        try:
            for cb in self._on_batch:
                cb(batch)
        finally:
            batch.clear()
            self._flushing = False

    # ------------------------------------------------------------------
    # Raw event emission (machines with bespoke transfer shapes, e.g. the
    # flash model's sub-block reads, charge the store themselves and emit).
    # ------------------------------------------------------------------
    def emit_read(self, addr: int, items: Sequence, cost: float) -> None:
        self.io_count += 1
        counter = self.counter
        counter.reads += 1
        counter.read_cost += cost
        bucket = counter._bucket
        bucket[0] += 1
        bucket[2] += cost
        if self._on_read:
            for cb in self._on_read:
                cb(addr, items, cost)
        if self._buffering:
            batch = self.batch
            batch.kinds.append(KIND_READ)
            batch.addrs.append(addr)
            batch.lengths.append(len(items))
            batch.costs.append(cost)
            batch.occs.append(self.mem.occupancy)
            batch.n += 1
            if batch.n >= self.flush_interval:
                self.flush_events()

    def emit_write(self, addr: int, items: Sequence, cost: float) -> None:
        self.io_count += 1
        counter = self.counter
        counter.writes += 1
        counter.write_cost += cost
        bucket = counter._bucket
        bucket[1] += 1
        bucket[3] += cost
        if self._on_write:
            for cb in self._on_write:
                cb(addr, items, cost)
        if self._buffering:
            batch = self.batch
            batch.kinds.append(KIND_WRITE)
            batch.addrs.append(addr)
            batch.lengths.append(len(items))
            batch.costs.append(cost)
            batch.occs.append(self.mem.occupancy)
            batch.n += 1
            if batch.n >= self.flush_interval:
                self.flush_events()

    # ------------------------------------------------------------------
    # The AEM's per-event operations, one frame each. AEMMachine binds
    # them as read/peek/write/acquire/release/touch. Each does its store
    # and ledger step inline, charges the cost ledger and emits inline
    # (as emit_read/emit_write do); the store and the ledger are called
    # only to raise their exact errors, so a failing operation leaves the
    # state a call through them would.
    # ------------------------------------------------------------------
    # Built from one source by _block_read (above the class): a peek is a
    # read whose atoms only have to fit, and neither carries that flag
    # through its call (a functools.partial binding keep=False costs a
    # kwargs dict per call, more than the frame it saves).
    read_block = _block_read(keep=True)
    peek_block = _block_read(keep=False)

    def write_block(
        self,
        addr: int,
        items: Sequence,
        cost: Optional[float] = None,
        *,
        release: bool = True,
    ) -> None:
        """Write up to ``B`` atoms to block ``addr`` (cost :attr:`write_cost`
        unless given); with ``release=True`` their slots leave the ledger.

        The store keeps ``tuple(items)``; a phantom store keeps only the
        size of a phantom payload. Observers see the stored tuple, so a
        caller mutating its list afterwards changes nothing they hold.
        """
        n = len(items)
        disk = self.disk
        if n > disk.B:
            raise BlockSizeError(f"write of {n} atoms exceeds block size B={disk.B}")
        blocks = disk._blocks
        if addr not in blocks:
            disk.set(addr, items)  # raises the store's AddressError
        mem = self.mem
        if release:
            occ = mem.occupancy - n
            if occ < 0:
                mem.release(n)  # raises the ledger's ReleaseError
            mem.occupancy = occ
        cls = items.__class__
        if (
            self.payloads
            or cls is list
            or cls is tuple
            or not is_phantom_payload(items)
        ):
            blocks[addr] = items = tuple(items)
        else:
            blocks[addr] = n
        counts = disk.write_counts
        counts[addr] = counts.get(addr, 0) + 1
        if cost is None:
            cost = self.write_cost
        self.io_count += 1
        counter = self.counter
        counter.writes += 1
        counter.write_cost += cost
        bucket = counter._bucket
        bucket[1] += 1
        bucket[3] += cost
        if self._on_write:
            for cb in self._on_write:
                cb(addr, items, cost)
        if self._buffering:
            batch = self.batch
            batch.kinds.append(KIND_WRITE)
            batch.addrs.append(addr)
            batch.lengths.append(n)
            batch.costs.append(cost)
            batch.occs.append(mem.occupancy)
            batch.n += 1
            if batch.n >= self.flush_interval:
                self.flush_events()

    def acquire(self, k: Union[int, Sized], what: str = "atoms") -> None:
        """Claim slots for ``k`` atoms created in internal memory (no I/O
        cost); ``k`` is a count or a sized sequence of the atoms."""
        if k.__class__ is not int and not isinstance(k, int):
            k = len(k)
        mem = self.mem
        occ = mem.occupancy + k
        if k < 0 or (mem.enforce and occ > mem.capacity):
            mem.acquire(k, what)  # raises the ledger's ValueError/CapacityError
        mem.occupancy = occ
        if occ > mem.peak:
            mem.peak = occ
        for cb in self._on_acquire:
            cb(k, what)
        if self._buffering:
            batch = self.batch
            batch.kinds.append(KIND_ACQUIRE)
            batch.addrs.append(-1)
            batch.lengths.append(k)
            batch.costs.append(0)
            batch.occs.append(occ)
            batch.whats.append(what)
            batch.n += 1
            if batch.n >= self.flush_interval:
                self.flush_events()

    def release(self, k: Union[int, Sized]) -> None:
        """Discard ``k`` atoms from internal memory (no I/O cost); ``k`` is
        a count or a sized sequence of the atoms."""
        if k.__class__ is not int and not isinstance(k, int):
            k = len(k)
        mem = self.mem
        occ = mem.occupancy - k
        if k < 0 or occ < 0:
            mem.release(k)  # raises the ledger's ValueError/ReleaseError
        mem.occupancy = occ
        for cb in self._on_release:
            cb(k)
        if self._buffering:
            batch = self.batch
            batch.kinds.append(KIND_RELEASE)
            batch.addrs.append(-1)
            batch.lengths.append(k)
            batch.costs.append(0)
            batch.occs.append(occ)
            batch.n += 1
            if batch.n >= self.flush_interval:
                self.flush_events()

    # ------------------------------------------------------------------
    # Time, phases, rounds.
    # ------------------------------------------------------------------
    def touch(self, k: int = 1) -> None:
        """Record ``k`` internal operations (the model's time ``T``)."""
        if k < 0:
            raise ValueError("cannot record a negative number of touches")
        counter = self.counter
        counter.touches += k
        counter._bucket[4] += k
        for cb in self._on_touch:
            cb(k)
        if self._buffering:
            batch = self.batch
            batch.kinds.append(KIND_TOUCH)
            batch.addrs.append(-1)
            batch.lengths.append(k)
            batch.costs.append(0)
            batch.occs.append(self.mem.occupancy)
            batch.n += 1
            if batch.n >= self.flush_interval:
                self.flush_events()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        # Phase boundaries are exact flush points: everything buffered
        # belongs to the enclosing phase and is delivered before the
        # enter/exit callbacks fire, so per-phase attribution in batch
        # consumers (which charge a whole batch to the innermost phase)
        # matches per-event dispatch bit-for-bit. The ledger moves first:
        # callbacks see the path already entered (or exited), and a
        # mismatched exit raises PhaseError before any of them runs.
        self.flush_events()
        self.counter.enter_phase(name)
        for cb in self._on_phase_enter:
            cb(name)
        try:
            yield
        finally:
            self.flush_events()
            self.counter.exit_phase(name)
            for cb in self._on_phase_exit:
                cb(name)

    def round_boundary(self) -> int:
        """Declare a round boundary: drain internal memory, notify.

        Returns the number of slots that were drained. Round-based
        programs (Section 4) have empty internal memory between rounds;
        the declared boundaries flow into recorded programs'
        ``round_boundaries``. Like phase boundaries, this is an exact
        flush point: buffered events land before ``on_round_boundary``
        fires, so per-round accounting sees the complete round.
        """
        held = self.mem.drain()
        # Recorded before the callbacks run: observers fired by this
        # boundary (e.g. the round-form sanitizer) can see how many slots
        # were still occupied when the round ended.
        self.last_drained = held
        self.flush_events()
        for cb in self._on_round_boundary:
            cb(self.io_count)
        return held

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MachineCore({len(self.disk)} blocks, {self.mem!r}, "
            f"{len(self.observers)} observers)"
        )
