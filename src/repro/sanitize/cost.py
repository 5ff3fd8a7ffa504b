"""CostSanitizer: the asymmetric cost identity ``Q = Qr + omega * Qw``.

The paper's whole object of study is the cost functional
``Q = Qr + omega * Qw`` (Section 2). Every machine core accounts for it
in its own :class:`~repro.machine.cost.CostCounter` ("the ledger",
``core.counter``), whose phase-path table every cost-by-phase readout
(profiler, metrics, progress) reads. This sanitizer is the referee: it shares no code with
the ledger, recomputes everything independently from the raw event
stream — per-event charges, running totals, and the attribution to
every phase path — and reconciles against the ledger at the end of the
run. A machine that charges the wrong per-I/O cost, or a ledger that was
tampered with (counters reset mid-run, totals patched, costs charged to
the wrong path), is reported with the exact discrepancy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..machine.cost import CostCounter
from ..observe.batch import KIND_READ, KIND_TOUCH, KIND_WRITE
from .base import Sanitizer

_TOL = 1e-9

#: The shadow table's columns, in the ledger's order.
_FIELDS = ("reads", "writes", "read_cost", "write_cost", "touches")


def _describe(row) -> str:
    return " ".join(f"{field}={value:g}" for field, value in zip(_FIELDS, row))


class CostSanitizer(Sanitizer):
    """Recompute ``Qr``/``Qw``/``Q`` from raw events; reconcile the ledger.

    Parameters
    ----------
    read_cost / write_cost:
        The model's expected per-event charges. Default ``None`` infers
        them at attach time from the core's ledger: reads cost ``1`` and
        writes cost ``omega`` (correct for AEM/EM/ARAM machines). For a flash
        machine pass ``read_cost=Br, write_cost=Bw`` explicitly.
    """

    rule = "COST"

    def __init__(
        self,
        *,
        read_cost: Optional[float] = None,
        write_cost: Optional[float] = None,
    ):
        super().__init__()
        self.read_cost = read_cost
        self.write_cost = write_cost
        self.reads = 0
        self.writes = 0
        self.touches = 0
        self.read_cost_total = 0.0
        self.write_cost_total = 0.0
        # Shadow attribution: phase path -> [reads, writes, read_cost,
        # write_cost, touches], ``()`` for events outside any phase.
        self.phases: dict[tuple[str, ...], list[float]] = {(): [0, 0, 0, 0, 0]}
        self._stack: list[str] = []
        self._shadow = self.phases[()]
        self._ledger: Optional[CostCounter] = None
        self._reconciled = False

    def on_attach(self, core) -> None:
        super().on_attach(core)
        self._ledger = core.counter
        if self.read_cost is None:
            self.read_cost = 1
        if self.write_cost is None:
            self.write_cost = self._ledger.omega

    # ------------------------------------------------------------------
    # Event handlers: independent recount.
    # ------------------------------------------------------------------
    def _charge(self, slot: int, cost: float) -> None:
        # Mirror the ledger's discipline: costs go to the open path.
        # Slot 0 counts reads (their cost in slot 2), slot 1 writes (slot 3).
        shadow = self._shadow
        shadow[slot] += 1
        shadow[slot + 2] += cost

    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self.events += 1
        self.reads += 1
        self.read_cost_total += cost
        self._charge(0, cost)
        if abs(cost - self.read_cost) > _TOL:
            self.flag(
                f"read of block {addr} charged {cost}, the model's read "
                f"cost is {self.read_cost}",
                where=self._where(),
            )

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self.events += 1
        self.writes += 1
        self.write_cost_total += cost
        self._charge(1, cost)
        if abs(cost - self.write_cost) > _TOL:
            self.flag(
                f"write of block {addr} charged {cost}, the model's write "
                f"cost is {self.write_cost}",
                where=self._where(),
            )

    def on_touch(self, k: int) -> None:
        self.events += 1
        self.touches += k
        self._shadow[4] += k

    def on_batch(self, batch) -> None:
        # Per-event recount in original order (accumulation order and the
        # ``events`` counter match per-event dispatch exactly); whole-
        # batch phase attribution is valid because phase boundaries flush.
        # Acquire/release carry no cost and are skipped, as per event
        # (no handlers for them).
        expected_read = self.read_cost
        expected_write = self.write_cost
        for kind, addr, length, cost in zip(
            batch.kinds, batch.addrs, batch.lengths, batch.costs
        ):
            if kind == KIND_READ:
                self.events += 1
                self.reads += 1
                self.read_cost_total += cost
                self._charge(0, cost)
                if abs(cost - expected_read) > _TOL:
                    self.flag(
                        f"read of block {addr} charged {cost}, the model's "
                        f"read cost is {expected_read}",
                        where=self._where(),
                    )
            elif kind == KIND_WRITE:
                self.events += 1
                self.writes += 1
                self.write_cost_total += cost
                self._charge(1, cost)
                if abs(cost - expected_write) > _TOL:
                    self.flag(
                        f"write of block {addr} charged {cost}, the model's "
                        f"write cost is {expected_write}",
                        where=self._where(),
                    )
            elif kind == KIND_TOUCH:
                self.events += 1
                self.touches += length
                self._shadow[4] += length

    def _open_path(self) -> None:
        self._shadow = self.phases.setdefault(tuple(self._stack), [0, 0, 0, 0, 0])

    def on_phase_enter(self, name: str) -> None:
        self.events += 1
        self._stack.append(name)
        self._open_path()

    def on_phase_exit(self, name: str) -> None:
        self.events += 1
        if not self._stack or self._stack[-1] != name:
            self.flag(
                f"phase exit {name!r} does not match the open phase "
                f"{self._stack[-1]!r}" if self._stack
                else f"phase exit {name!r} with no phase open",
                where=self._where(),
            )
            return
        self._stack.pop()
        self._open_path()

    # ------------------------------------------------------------------
    # End-of-run reconciliation against the machine's ledger.
    # ------------------------------------------------------------------
    @property
    def Q(self) -> float:
        """Total cost recomputed from raw events."""
        return self.read_cost_total + self.write_cost_total

    def _finalize(self) -> None:
        if self._reconciled or self._ledger is None:
            return
        self._reconciled = True
        counter = self._ledger
        checks = (
            ("Qr (read count)", counter.reads, self.reads),
            ("Qw (write count)", counter.writes, self.writes),
            ("T (touches)", counter.touches, self.touches),
            ("accumulated read cost", counter.read_cost, self.read_cost_total),
            ("accumulated write cost", counter.write_cost, self.write_cost_total),
            (
                "Q = Qr + omega*Qw",
                counter.Q,
                self.reads + counter.omega * self.writes,
            ),
        )
        for label, ledger_value, recomputed in checks:
            if abs(ledger_value - recomputed) > _TOL:
                self.flag(
                    f"ledger {label} is {ledger_value:g}, raw events give "
                    f"{recomputed:g}"
                )
        # Every phase path's attribution must agree with the ledger's.
        ledger_paths = counter.paths()
        for path in dict.fromkeys([*self.phases, *ledger_paths]):
            name = "/".join(path) or "(no phase)"
            stats = ledger_paths.get(path)
            if stats is None:
                self.flag(f"path {name!r} seen on the bus but missing from the ledger")
                continue
            ledger_row = [getattr(stats, field) for field in _FIELDS]
            recounted = self.phases.get(path, [0] * len(_FIELDS))
            if any(abs(a - b) > _TOL for a, b in zip(ledger_row, recounted)):
                self.flag(
                    f"path {name!r}: ledger says {_describe(ledger_row)}, "
                    f"raw events give {_describe(recounted)}"
                )
