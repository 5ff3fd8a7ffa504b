"""The machine-event observer protocol.

:class:`MachineObserver` is a base class of no-op handlers, one per event a
:class:`~repro.machine.core.MachineCore` can emit. Subclasses override only
the events they care about; the core inspects each attached observer and
builds per-event dispatch lists from the *overridden* methods only, so an
observer that ignores an event adds zero cost to it.

Event vocabulary (``EVENTS``):

``on_read(addr, items, cost)``
    One read I/O brought ``items`` (a sequence of atoms) in from external
    block ``addr``. ``cost`` is the model's charge for the transfer: ``1``
    on an AEM/EM/ARAM machine, the read-block size ``Br`` (the I/O volume)
    on a flash machine.
``on_write(addr, items, cost)``
    One write I/O sent ``items`` to block ``addr``; ``cost`` is ``omega``
    on an AEM machine and the write-block size ``Bw`` on a flash machine.
``on_acquire(k, what)`` / ``on_release(k)``
    ``k`` internal-memory slots were explicitly claimed/discarded by the
    program (atom creation/destruction inside internal memory). The
    implicit ledger movements of ``read``/``write`` are *not* re-emitted —
    they are derivable from the I/O events themselves.
``on_touch(k)``
    ``k`` internal operations (the model's time ``T``), batched: algorithms
    report whole chunks of internal work in one event.
``on_phase_enter(name)`` / ``on_phase_exit(name)``
    Lexical phase boundaries (cost attribution, progress display).
``on_round_boundary(index)``
    The program declared a round boundary (Section 4's round-based
    programs): internal memory has just been drained. ``index`` is the
    machine's running I/O count at the boundary.

Handlers must not mutate ``items``; the sequence is shared with the
running algorithm (observation is free in the model and must stay free in
the simulation).

Observers that *read* the atoms inside ``items`` — trace recorders
capturing payloads, provenance checks following uids — must declare
``needs_payloads = True``. On a counting-mode machine (whose store is a
:class:`~repro.machine.phantom.PhantomBlockStore`, so ``items`` carries
lengths but no contents) attaching such an observer raises ``ValueError``
at attach time instead of silently feeding it placeholders. Observers
that use only ``len(items)``, addresses, and costs — the default — keep
the class-level ``needs_payloads = False`` and work on both kinds of
machine unchanged.

Delivery: each overridden handler is called once per event, as it
happens, with the real payload. An observer that overrides
``on_batch(batch)`` (and does not declare ``needs_payloads``) opts into
columnar delivery instead: its read/write/acquire/release/touch events
reach it as :class:`~repro.observe.batch.EventBatch` columns, one call
per flush, while its phase and round handlers still fire per event,
after the flush. The batch object and its column lists are reused by
the bus; copy anything you keep (analysis rule AEM203). The per-event
handlers of such an observer are not dispatched, but stay useful as the
reference its ``on_batch`` is tested against.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence

EVENTS = (
    "on_read",
    "on_write",
    "on_acquire",
    "on_release",
    "on_touch",
    "on_phase_enter",
    "on_phase_exit",
    "on_round_boundary",
)


class MachineObserver:
    """No-op base implementation of every machine event handler.

    Subclass and override the events you need. ``on_attach`` /
    ``on_detach`` are lifecycle hooks, not dispatched events: they run
    once when the observer joins/leaves a machine core and receive the
    core itself (e.g. to inspect its block store or parameters). The
    default ``on_attach`` keeps a *weak* reference to the core for
    :meth:`flush_core`, so an observer never keeps a finished machine
    alive.
    """

    #: Set True in subclasses whose handlers read atom contents (not just
    #: ``len(items)``); such observers cannot attach to counting machines,
    #: and are always dispatched per event.
    needs_payloads = False

    def on_batch(self, batch) -> None:
        """Consume one flushed :class:`~repro.observe.batch.EventBatch`.

        A no-op hook: overriding it moves the observer's batchable events
        from per-event calls to one call per flush (see the module doc).
        The batch (and its column lists) are reused after this call
        returns — copy, don't retain.
        """

    #: Weak reference to the attached core (``None`` while detached).
    _core_ref: Optional[weakref.ReferenceType] = None

    def on_attach(self, core) -> None:
        self._core_ref = weakref.ref(core)

    def on_detach(self, core) -> None:
        self._core_ref = None

    def flush_core(self) -> None:
        """Deliver the attached core's buffered events (readouts of
        ``on_batch`` consumers call this).

        A batch consumer's totals trail the run by whatever the core still
        buffers; flushing first makes every readout exact. A core that is
        gone flushed itself when it was finalized, so there is nothing
        left to deliver.
        """
        ref = self._core_ref
        core = ref() if ref is not None else None
        if core is not None:
            core.flush_events()

    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        pass

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        pass

    def on_acquire(self, k: int, what: str) -> None:
        pass

    def on_release(self, k: int) -> None:
        pass

    def on_touch(self, k: int) -> None:
        pass

    def on_phase_enter(self, name: str) -> None:
        pass

    def on_phase_exit(self, name: str) -> None:
        pass

    def on_round_boundary(self, index: int) -> None:
        pass
