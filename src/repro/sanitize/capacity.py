"""CapacitySanitizer: the AEM's defining constraint, ``occupancy <= M``.

The model (Section 2) allows at most ``M`` atoms resident in internal
memory and moves data in blocks of at most ``B`` atoms. The machines
normally enforce the first through the
:class:`~repro.machine.internal.InternalMemory` ledger, but enforcement
can be disabled (``enforce_capacity=False``) — and the flash machine runs
with it off by design. This sanitizer re-checks both constraints from the
*outside*, at every event, so a run that cheats the ledger (or a ledger
bug itself) is caught regardless of the enforcement switch.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..observe.batch import KIND_READ, KIND_TOUCH, KIND_WRITE
from .base import Sanitizer


class CapacitySanitizer(Sanitizer):
    """Internal memory never exceeds its capacity; transfers never exceed B.

    Parameters
    ----------
    capacity:
        Atom capacity to check against; defaults to the attached core's
        ledger capacity (the machine's ``M``).
    block_size:
        Maximum atoms per block transfer; defaults to the attached core's
        block store ``B``.
    """

    rule = "CAPACITY"

    def __init__(
        self, *, capacity: Optional[int] = None, block_size: Optional[int] = None
    ):
        super().__init__()
        self.capacity = capacity
        self.block_size = block_size
        self.peak = 0

    def on_attach(self, core) -> None:
        super().on_attach(core)
        if self.capacity is None:
            self.capacity = core.mem.capacity
        if self.block_size is None:
            self.block_size = core.disk.B

    # ------------------------------------------------------------------
    # Checks.
    # ------------------------------------------------------------------
    def _check_occupancy(self) -> None:
        occ = self.core.mem.occupancy
        if occ > self.peak:
            self.peak = occ
        if occ > self.capacity:
            self.flag(
                f"internal memory holds {occ} atoms, capacity is {self.capacity}",
                where=self._where(),
            )

    def _check_block(self, kind: str, addr: int, items: Sequence) -> None:
        if len(items) > self.block_size:
            self.flag(
                f"{kind} of {len(items)} atoms at block {addr} exceeds "
                f"block size B={self.block_size}",
                where=self._where(),
            )

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------
    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self.events += 1
        self._check_block("read", addr, items)
        self._check_occupancy()

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self.events += 1
        self._check_block("write", addr, items)
        self._check_occupancy()

    def on_acquire(self, k: int, what: str) -> None:
        self.events += 1
        self._check_occupancy()

    def on_release(self, k: int) -> None:
        self.events += 1
        self._check_occupancy()

    # ------------------------------------------------------------------
    # Vectorized delivery. The batch's ``occs`` column records ledger
    # occupancy *after* each event — exactly what the per-event
    # handlers read live — so a clean batch reduces to two max() calls.
    # ------------------------------------------------------------------
    def on_batch(self, batch) -> None:
        mx = max(batch.occs)
        if mx > self.peak:
            self.peak = mx
        if mx <= self.capacity and max(batch.lengths) <= self.block_size:
            # Touch events are not capacity events (no per-event
            # handler exists for them); everything else counts. A touch
            # whose k exceeds B can land us in the slow loop below, but
            # the loop filters by kind, so that costs time, not verdicts.
            self.events += batch.n - batch.kinds.count(KIND_TOUCH)
            return
        capacity = self.capacity
        block_size = self.block_size
        for kind, addr, length, occ in zip(
            batch.kinds, batch.addrs, batch.lengths, batch.occs
        ):
            if kind == KIND_TOUCH:
                continue
            self.events += 1
            if kind <= KIND_WRITE and length > block_size:
                name = "read" if kind == KIND_READ else "write"
                self.flag(
                    f"{name} of {length} atoms at block {addr} exceeds "
                    f"block size B={block_size}",
                    where=self._where(),
                )
            if occ > capacity:
                self.flag(
                    f"internal memory holds {occ} atoms, capacity is {capacity}",
                    where=self._where(),
                )
