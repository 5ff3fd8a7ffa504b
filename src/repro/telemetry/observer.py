"""Machine events → metrics registry.

:class:`MetricsObserver` sits on a machine's event bus and aggregates the
quantities the asymmetric-memory analysis cares about, labeled by the
innermost phase the machine was in when they happened:

* read/write I/O counts per phase (the ``Qr``/``Qw`` split of
  ``Q = Qr + omega*Qw``);
* read/write *cost* per phase — on an AEM machine the model's charge
  (``1``/``omega``), on a flash machine the transferred volume;
* internal-operation counts (``T``) per phase, round boundaries;
* a per-block write histogram, whose percentiles summarize wear the way
  the write-endurance literature budgets it.

Like every observer, attaching one is the *opt-in*: a machine with no
``MetricsObserver`` never pays a single instruction for any of this —
the core's per-event callback lists stay exactly as short as before.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..observe.base import MachineObserver
from .metrics import MetricsRegistry

#: Label applied to events that happen outside any declared phase.
NO_PHASE = "-"


class MetricsObserver(MachineObserver):
    """Aggregate machine events into a :class:`MetricsRegistry`.

    Parameters
    ----------
    registry:
        The registry to populate; a private one is created by default
        (``.registry`` to read it out either way).
    """

    #: Batch aggregates plus the ``write_addrs`` side list: no columns.
    batch_columns = False

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._reads = reg.counter(
            "machine_reads_total", "read I/Os by phase", labels=("phase",)
        )
        self._writes = reg.counter(
            "machine_writes_total", "write I/Os by phase", labels=("phase",)
        )
        self._read_cost = reg.counter(
            "machine_read_cost_total",
            "summed per-event read cost by phase (AEM: Qr; flash: read volume)",
            labels=("phase",),
        )
        self._write_cost = reg.counter(
            "machine_write_cost_total",
            "summed per-event write cost by phase (AEM: omega*Qw; flash: write volume)",
            labels=("phase",),
        )
        self._touches = reg.counter(
            "machine_touches_total", "internal operations (T) by phase", labels=("phase",)
        )
        self._rounds = reg.counter(
            "machine_rounds_total", "declared round boundaries"
        )
        self._phase_stack: list[str] = []
        # Per-block write counts, folded into the wear histogram at
        # readout (a percentile over *final* counts, not running ones).
        self._block_writes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------
    def _phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else NO_PHASE

    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        phase = self._phase()
        self._reads.labels(phase=phase).inc()
        self._read_cost.labels(phase=phase).inc(cost)

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        phase = self._phase()
        self._writes.labels(phase=phase).inc()
        self._write_cost.labels(phase=phase).inc(cost)
        self._block_writes[addr] = self._block_writes.get(addr, 0) + 1

    def on_touch(self, k: int) -> None:
        self._touches.labels(phase=self._phase()).inc(k)

    def on_phase_enter(self, name: str) -> None:
        self._phase_stack.append(name)

    def on_phase_exit(self, name: str) -> None:
        if self._phase_stack:
            self._phase_stack.pop()

    def on_round_boundary(self, index: int) -> None:
        self._rounds.inc()

    def on_batch(self, batch) -> None:
        # One labels() resolution per family per flush instead of one per
        # event; the whole batch shares the innermost phase (exact, since
        # phase boundaries flush). The ``touch_events`` guard — not
        # ``touches`` — keeps series creation identical to synchronous
        # dispatch when a phase only ever reports touch(0).
        phase = self._phase()
        if batch.reads:
            self._reads.labels(phase=phase).inc(batch.reads)
            self._read_cost.labels(phase=phase).inc(batch.read_cost)
        if batch.writes:
            self._writes.labels(phase=phase).inc(batch.writes)
            self._write_cost.labels(phase=phase).inc(batch.write_cost)
            block_writes = self._block_writes
            get = block_writes.get
            for addr in batch.write_addrs:
                block_writes[addr] = get(addr, 0) + 1
        if batch.touch_events:
            self._touches.labels(phase=phase).inc(batch.touches)

    # ------------------------------------------------------------------
    # Readout (buffered events are flushed first, so reads are exact).
    # ------------------------------------------------------------------
    def wear_histogram(self):
        """Per-block write counts as a :class:`~repro.telemetry.metrics.Histogram`."""
        self.flush_core()
        hist = self.registry.histogram(
            "machine_block_writes", "writes per external block (wear)"
        )
        solo = hist.labels()
        solo.values = list(self._block_writes.values())
        return solo

    def per_phase(self) -> Dict[str, dict]:
        """``{phase: {reads, writes, read_cost, write_cost, touches}}``."""
        self.flush_core()
        out: Dict[str, dict] = {}
        for family, field in (
            (self._reads, "reads"),
            (self._writes, "writes"),
            (self._read_cost, "read_cost"),
            (self._write_cost, "write_cost"),
            (self._touches, "touches"),
        ):
            for labels, metric in family.series():
                out.setdefault(labels["phase"], {})[field] = metric.value
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

    def collect(self) -> dict:
        """The full registry dump (includes the wear histogram)."""
        self.wear_histogram()  # materialize before collecting
        return self.registry.collect()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        return f"MetricsObserver(Qr={s['reads']} Qw={s['writes']})"
