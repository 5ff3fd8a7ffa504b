"""Cost accounting as an observer.

:class:`CostObserver` is the event-bus re-implementation of the accounting
that used to be hard-wired into :class:`~repro.machine.aem.AEMMachine` and
:class:`~repro.machine.flash.FlashMachine`. It drives a
:class:`~repro.machine.cost.CostCounter`, so everything downstream —
snapshots, ``Q = Qr + omega*Qw``, the phase-path table — keeps its exact
semantics. The counter also sums the *model cost* each event carries: on
an AEM machine that sum is redundant with the counts, on a flash machine
it is the I/O volume (``Br`` per small read, ``Bw`` per write), which is
that model's notion of cost.

Every machine attaches one of these at construction; ``machine.counter``,
``machine.snapshot()`` and friends read through to it, and so do the
observers that report costs by phase (:mod:`repro.observe.ledger`).

Under batched dispatch this observer is an aggregates-only batch consumer
(``batch_columns = False``): one ``on_batch`` call per flush adds the
batch's totals to the counter, attributed to the open phase path — exact,
because phase boundaries force a flush. Every readout path (the
properties and ``snapshot()``/``describe()``) first flushes the owning
core (held weakly, see
:meth:`~repro.observe.base.MachineObserver.flush_core`), so totals read
back exact at any moment.
"""

from __future__ import annotations

from typing import Sequence

from ..machine.cost import CostCounter, CostSnapshot
from .base import MachineObserver


class CostObserver(MachineObserver):
    """Count reads/writes/touches and attribute them to phases.

    Parameters
    ----------
    omega:
        The write/read cost ratio of the machine being observed (``1`` for
        symmetric models, including the flash model, whose asymmetry lives
        in the per-event ``cost`` instead).
    """

    batch_columns = False

    def __init__(self, omega: float = 1.0):
        self._counter = CostCounter(omega)

    # ------------------------------------------------------------------
    # Per-event handlers (``needs_events`` delivery; the reference the
    # batch path is tested against).
    # ------------------------------------------------------------------
    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self._counter.add_read(1, cost)

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self._counter.add_write(1, cost)

    def on_touch(self, k: int) -> None:
        self._counter.touch(k)

    def on_phase_enter(self, name: str) -> None:
        self._counter.enter_phase(name)

    def on_phase_exit(self, name: str) -> None:
        self._counter.exit_phase(name)

    def on_batch(self, batch) -> None:
        # Charging the whole batch to the open path is exact: phase
        # transitions flush, so a batch never straddles a boundary. The
        # underscore field is used directly — the ``counter`` property
        # would re-enter the flush this call is part of.
        counter = self._counter
        counter.add_read(batch.reads, batch.read_cost)
        counter.add_write(batch.writes, batch.write_cost)
        counter.touch(batch.touches)

    # ------------------------------------------------------------------
    # Readout (the CostCounter surface, passed through).
    # ------------------------------------------------------------------
    @property
    def counter(self) -> CostCounter:
        self.flush_core()
        return self._counter

    @property
    def path(self) -> tuple:
        """The open phase path (phase events are never buffered, so this
        reads without a flush)."""
        return self._counter.path

    @property
    def read_cost(self) -> float:
        return self.counter.read_cost

    @read_cost.setter
    def read_cost(self, value: float) -> None:
        self.counter.read_cost = value

    @property
    def write_cost(self) -> float:
        return self.counter.write_cost

    @write_cost.setter
    def write_cost(self, value: float) -> None:
        self.counter.write_cost = value

    @property
    def reads(self) -> int:
        return self.counter.reads

    @property
    def writes(self) -> int:
        return self.counter.writes

    @property
    def Q(self) -> float:
        return self.counter.Q

    @property
    def total_cost(self) -> float:
        """Sum of per-event costs (the flash model's total volume)."""
        counter = self.counter
        return counter.read_cost + counter.write_cost

    def snapshot(self) -> CostSnapshot:
        return self.counter.snapshot()

    def reset(self) -> None:
        self.counter.reset()

    def describe(self) -> str:
        return self.counter.describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostObserver({self.describe()})"
