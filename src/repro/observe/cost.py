"""The machine's cost ledger, as an observer handle.

Every :class:`~repro.machine.core.MachineCore` owns a
:class:`~repro.machine.cost.CostCounter` (``core.counter``) and charges
it inline at every read, write and touch, attributed to the phase path
open when it happened — ``Q = Qr + omega*Qw``, the phase-path table, and
the summed *model cost* of the events: on an AEM machine that sum is
redundant with the counts, on a flash machine it is the I/O volume
(``Br`` per small read, ``Bw`` per write), which is that model's notion
of cost.

:class:`CostObserver` handles no events: it binds to the counter of the
core it is attached to and passes its readout surface through. Every
machine attaches one at construction (``core.find(CostObserver)`` finds
the ledger of any machine); ``machine.counter``, ``machine.snapshot()``
and friends read the core's counter directly.
"""

from __future__ import annotations

from typing import Optional

from ..machine.cost import CostCounter, CostSnapshot
from .base import MachineObserver


class CostObserver(MachineObserver):
    """The attached core's reads/writes/touches, attributed to phases."""

    def __init__(self) -> None:
        self._counter: Optional[CostCounter] = None

    def on_attach(self, core) -> None:
        super().on_attach(core)
        self._counter = core.counter

    # ------------------------------------------------------------------
    # Readout (the CostCounter surface, passed through).
    # ------------------------------------------------------------------
    @property
    def counter(self) -> CostCounter:
        if self._counter is None:
            raise RuntimeError("CostObserver reads a machine's ledger; attach it first")
        return self._counter

    @property
    def read_cost(self) -> float:
        return self.counter.read_cost

    @property
    def write_cost(self) -> float:
        return self.counter.write_cost

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

    def describe(self) -> str:
        return self.counter.describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostObserver({self.describe()})"
