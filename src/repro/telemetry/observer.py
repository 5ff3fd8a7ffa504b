"""Machine events and the cost ledger → metrics registry.

:class:`MetricsObserver` reads the quantities the asymmetric-memory
analysis cares about, labeled by innermost phase, from the phase-path
ledger of each machine it is attached to (it is a
:class:`~repro.observe.ledger.LedgerReadout`):

* read/write I/O counts per phase (the ``Qr``/``Qw`` split of
  ``Q = Qr + omega*Qw``);
* read/write *cost* per phase — on an AEM machine the model's charge
  (``1``/``omega``), on a flash machine the transferred volume;
* internal-operation counts (``T``) per phase;

and counts two things itself from the event bus: round boundaries, and
per-block writes, whose percentiles summarize wear the way the
write-endurance literature budgets it.

Like every observer, attaching one is the *opt-in*: a machine with no
``MetricsObserver`` never pays a single instruction for any of this —
the core's per-event callback lists stay exactly as short as before.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..machine.cost import by_innermost
from ..observe.ledger import LedgerReadout
from .metrics import MetricsRegistry

#: Label applied to events that happen outside any declared phase.
NO_PHASE = "-"


class MetricsObserver(LedgerReadout):
    """Aggregate the ledger and machine events into a
    :class:`MetricsRegistry` (``.registry`` to read it out; reading it
    fills the per-phase families and the wear histogram from the ledger
    as it stands)."""

    def __init__(self) -> None:
        super().__init__()
        self._registry = reg = MetricsRegistry()
        self._families = {
            "reads": reg.counter(
                "machine_reads_total", "read I/Os by phase", labels=("phase",)
            ),
            "writes": reg.counter(
                "machine_writes_total", "write I/Os by phase", labels=("phase",)
            ),
            "read_cost": reg.counter(
                "machine_read_cost_total",
                "summed per-event read cost by phase (AEM: Qr; flash: read volume)",
                labels=("phase",),
            ),
            "write_cost": reg.counter(
                "machine_write_cost_total",
                "summed per-event write cost by phase (AEM: omega*Qw; flash: write volume)",
                labels=("phase",),
            ),
            "touches": reg.counter(
                "machine_touches_total",
                "internal operations (T) by phase",
                labels=("phase",),
            ),
        }
        self._rounds = reg.counter(
            "machine_rounds_total", "declared round boundaries"
        )
        # Per-block write counts, folded into the wear histogram at
        # readout (a percentile over *final* counts, not running ones).
        self._block_writes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Event handlers: wear and rounds (the ledger has the rest).
    # ------------------------------------------------------------------
    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self._block_writes[addr] = self._block_writes.get(addr, 0) + 1

    def on_round_boundary(self, index: int) -> None:
        self._rounds.inc()

    # ------------------------------------------------------------------
    # Readout.
    # ------------------------------------------------------------------
    def wear_histogram(self):
        """Per-block write counts as a :class:`~repro.telemetry.metrics.Histogram`."""
        hist = self._registry.histogram(
            "machine_block_writes", "writes per external block (wear)"
        )
        solo = hist.labels()
        solo.values = list(self._block_writes.values())
        return solo

    def per_phase(self) -> Dict[str, dict]:
        """``{phase: {reads, writes, read_cost, write_cost, touches}}``.

        The ledger's paths grouped by innermost phase (``-`` outside any
        phase); a phase lists reads and read cost if it read, writes and
        write cost if it wrote, and touches if it touched. The registry's
        per-phase families are set to the same values.
        """
        out: Dict[str, dict] = {}
        for name, s in by_innermost(self._paths(), outside=NO_PHASE).items():
            fields: dict = {}
            if s.reads:
                fields.update(reads=s.reads, read_cost=s.read_cost)
            if s.writes:
                fields.update(writes=s.writes, write_cost=s.write_cost)
            if s.touches:
                fields["touches"] = s.touches
            if fields:
                out[name] = fields
            for field, value in fields.items():
                self._families[field].labels(phase=name).value = value
        return out

    def summary(self) -> dict:
        """The manifest-ready aggregate: totals, phase split, wear."""
        wear = self.wear_histogram().summary()
        per_phase = self.per_phase()
        return {
            "reads": sum(p.get("reads", 0) for p in per_phase.values()),
            "writes": sum(p.get("writes", 0) for p in per_phase.values()),
            "read_cost": sum(p.get("read_cost", 0) for p in per_phase.values()),
            "write_cost": sum(p.get("write_cost", 0) for p in per_phase.values()),
            "rounds": self._rounds.labels().value,
            "per_phase": per_phase,
            "wear": {**wear, "blocks_written": wear["count"]},
        }

    @property
    def registry(self) -> MetricsRegistry:
        """The registry, its per-phase families and wear histogram filled
        from the ledger as it stands."""
        self.wear_histogram()
        self.per_phase()
        return self._registry

    def collect(self) -> dict:
        """The full registry dump (includes the wear histogram)."""
        return self.registry.collect()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        return f"MetricsObserver(Qr={s['reads']} Qw={s['writes']})"
