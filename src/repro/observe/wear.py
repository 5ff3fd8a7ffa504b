"""Write-endurance observation.

NVM cells wear out after a bounded number of writes — the paper's second
motivation (besides latency/energy) for write-avoidance, and the quantity
the write-endurance literature (Gu et al., *Algorithmic Building Blocks
for Asymmetric Memories*) budgets per block. :class:`WearMap` listens to
write events and maintains the per-block histogram, independent of any
particular machine: attach it to an AEM machine, an EM baseline, or a
flash machine and compare profiles on equal terms.

Unlike :meth:`repro.machine.blockstore.BlockStore.wear` (which summarizes
the store's whole lifetime), a ``WearMap`` sees only the events emitted
while it was attached, so it can scope wear to one algorithm, one phase,
or one round of a longer run. Its ``on_write`` runs once per write, so
the histogram is exact whenever it is read.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..machine.blockstore import WearStats
from .base import MachineObserver


class WearMap(MachineObserver):
    """Per-block write counts, accumulated from write events."""

    def __init__(self):
        #: The per-block write counts.
        self.counts: Dict[int, int] = {}

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self.counts[addr] = self.counts.get(addr, 0) + 1

    # ------------------------------------------------------------------
    # Readout.
    # ------------------------------------------------------------------

    @property
    def total_writes(self) -> int:
        """Total write I/Os seen — equals ``CostSnapshot.writes`` for a
        machine observed over its whole run."""
        return sum(self.counts.values())

    @property
    def blocks_written(self) -> int:
        return len(self.counts)

    @property
    def max_writes(self) -> int:
        return max(self.counts.values(), default=0)

    @property
    def hottest(self) -> Optional[int]:
        counts = self.counts
        if not counts:
            return None
        return max(counts, key=counts.get)  # type: ignore[arg-type]

    def stats(self) -> WearStats:
        """The same summary shape as ``BlockStore.wear()``."""
        return WearStats(
            total_writes=self.total_writes,
            blocks_written=self.blocks_written,
            max_writes=self.max_writes,
            hottest=self.hottest,
        )

    def histogram(self) -> Dict[int, int]:
        """Map ``write count -> number of blocks written that many times``."""
        hist: Dict[int, int] = {}
        for c in self.counts.values():
            hist[c] = hist.get(c, 0) + 1
        return hist

    def clear(self) -> None:
        self.counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"WearMap({s.total_writes} writes over {s.blocks_written} blocks, "
            f"max {s.max_writes})"
        )
