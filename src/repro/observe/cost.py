"""Cost accounting as an observer.

:class:`CostObserver` is the event-bus re-implementation of the accounting
that used to be hard-wired into :class:`~repro.machine.aem.AEMMachine` and
:class:`~repro.machine.flash.FlashMachine`. It wraps a
:class:`~repro.machine.cost.CostCounter`, so everything downstream —
snapshots, ``Q = Qr + omega*Qw``, named phase attribution — keeps its exact
legacy semantics, and additionally accumulates the *model cost* each event
carries: on an AEM machine that sum is redundant with the counter, on a
flash machine it is the I/O volume (``Br`` per small read, ``Bw`` per
write), which is that model's notion of cost.

Every machine attaches one of these at construction; ``machine.counter``,
``machine.snapshot()`` and friends read through to it.

Under batched dispatch this observer is an aggregates-only batch consumer
(``batch_columns = False``): one ``on_batch`` call per flush adds the
batch's read/write/touch totals to the counter, attributed to the
innermost phase — exact, because phase boundaries force a flush. Every
readout path (the properties and ``snapshot()``/``describe()``) first
flushes the owning core (held weakly, see
:meth:`~repro.observe.base.MachineObserver.flush_core`), so totals read
back exact at any moment.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    counter:
        An existing :class:`CostCounter` to drive, for callers that share
        one counter across machines; a fresh one is created by default.
    """

    batch_columns = False

    def __init__(self, omega: float = 1.0, counter: Optional[CostCounter] = None):
        self._counter = counter if counter is not None else CostCounter(omega)
        # Accumulated per-event costs. For the AEM these mirror the counter
        # (read_cost == Qr, write_cost == omega*Qw); for the flash model
        # they are the read/write I/O volumes.
        self._read_cost: float = 0
        self._write_cost: float = 0

    # ------------------------------------------------------------------
    # Per-event handlers (``needs_events`` delivery; the reference the
    # batch path is tested against).
    # ------------------------------------------------------------------
    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self._counter.add_read()
        self._read_cost += cost

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self._counter.add_write()
        self._write_cost += cost

    def on_touch(self, k: int) -> None:
        self._counter.touch(k)

    def on_phase_enter(self, name: str) -> None:
        self._counter.enter_phase(name)

    def on_phase_exit(self, name: str) -> None:
        self._counter.exit_phase(name)

    def on_batch(self, batch) -> None:
        # Whole-batch attribution to the innermost phase is exact: phase
        # transitions flush, so a batch never straddles a boundary. The
        # underscore fields are used directly — the properties would
        # re-enter the flush this call is part of.
        counter = self._counter
        if batch.reads:
            counter.add_read(batch.reads)
        if batch.writes:
            counter.add_write(batch.writes)
        if batch.touches:
            counter.touch(batch.touches)
        self._read_cost += batch.read_cost
        self._write_cost += batch.write_cost

    # ------------------------------------------------------------------
    # Readout (the CostCounter surface, passed through).
    # ------------------------------------------------------------------
    @property
    def counter(self) -> CostCounter:
        self.flush_core()
        return self._counter

    @property
    def read_cost(self) -> float:
        self.flush_core()
        return self._read_cost

    @read_cost.setter
    def read_cost(self, value: float) -> None:
        self.flush_core()
        self._read_cost = value

    @property
    def write_cost(self) -> float:
        self.flush_core()
        return self._write_cost

    @write_cost.setter
    def write_cost(self, value: float) -> None:
        self.flush_core()
        self._write_cost = value

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
        self.flush_core()
        return self._read_cost + self._write_cost

    def snapshot(self) -> CostSnapshot:
        return self.counter.snapshot()

    def reset(self) -> None:
        self.flush_core()
        self._counter.reset()
        self._read_cost = 0
        self._write_cost = 0

    def describe(self) -> str:
        return self.counter.describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostObserver({self.describe()})"
