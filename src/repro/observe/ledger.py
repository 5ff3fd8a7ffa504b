"""Readouts of the machine's phase-path cost ledger.

Every machine keeps one ledger: its core's
:class:`~repro.machine.cost.CostCounter` (``core.counter``), charged at
every read, write and touch and attributing each to the phase path open
when it happened. The observers that report costs by phase — the
profiler, the metrics observer, the progress line — read that table
through :class:`LedgerReadout` instead of keeping phase stacks of their
own.

A :class:`LedgerWindow` is the one rule for "what the ledger charged
since I attached": it records the ledger, and the table and totals as
they stood at attach, and reports what was added since. The ledger
only grows (nothing resets it), so that difference is never negative.
The readouts and :class:`~repro.telemetry.spans.SpanPhaseRecorder`
measure through one.

A readout may watch several machines, and may attach mid-run; it keeps
one window per machine. When it is
detached, or its machine is gone, the window is folded into plain totals
and the ledger dropped, so a readout shared by many short-lived machines
keeps no finished machine's ledger. A gone machine is folded at the next
attach or readout, not from a weak-reference callback or a finalizer,
which the garbage collector may run in the middle of unrelated code;
until then its window keeps only the machine's counter alive, never the
machine.
"""

from __future__ import annotations

import weakref

from ..machine.cost import CostCounter, CostRecord, CostSnapshot, Paths, PathStats
from .base import MachineObserver

_NOTHING = CostRecord(Q=0, Qr=0, Qw=0, T=0, peak_mem=0)


def _add_paths(into: Paths, paths: Paths) -> None:
    for path, stats in paths.items():
        into[path] = into[path].merged(stats) if path in into else stats


def _add_records(a: CostRecord, b: CostRecord) -> CostRecord:
    return CostRecord(
        Q=a.Q + b.Q,
        Qr=a.Qr + b.Qr,
        Qw=a.Qw + b.Qw,
        T=a.T + b.T,
        peak_mem=max(a.peak_mem, b.peak_mem),
    )


def _ledger_totals(ledger: CostCounter) -> PathStats:
    return PathStats(
        ledger.reads, ledger.writes, ledger.read_cost, ledger.write_cost,
        ledger.touches,
    )


class LedgerWindow:
    """One watched machine: its ledger, and what that held at attach."""

    __slots__ = ("core", "ledger", "mem", "base", "base_totals")

    def __init__(self, core):
        self.core = weakref.ref(core)
        self.ledger: CostCounter = core.counter
        self.mem = core.mem
        self.base = self.ledger.paths()
        self.base_totals = _ledger_totals(self.ledger)

    def paths(self) -> Paths:
        """The table since attach."""
        base = self.base
        return {
            path: stats - base[path] if path in base else stats
            for path, stats in self.ledger.paths().items()
        }

    def spent(self) -> PathStats:
        """The ledger's totals since attach."""
        return _ledger_totals(self.ledger) - self.base_totals

    def totals(self) -> CostRecord:
        """:meth:`spent` as a cost record, with the machine's peak."""
        spent = self.spent()
        snap = CostSnapshot(
            reads=spent.reads, writes=spent.writes, touches=spent.touches,
            omega=self.ledger.omega,
        )
        return CostRecord.from_snapshot(snap, peak=self.mem.peak)


class LedgerReadout(MachineObserver):
    """Base of the observers that read the ledger of each machine they
    are attached to; see the module doc."""

    def __init__(self) -> None:
        self._windows: list[LedgerWindow] = []
        self._folded: Paths = {}
        self._folded_totals = _NOTHING

    def on_attach(self, core) -> None:
        super().on_attach(core)
        self._live()
        self._windows.append(LedgerWindow(core))

    def on_detach(self, core) -> None:
        super().on_detach(core)
        for window in self._windows:
            if window.core() is core:
                self._fold(window)
                break

    def _fold(self, window: LedgerWindow) -> None:
        self._windows.remove(window)
        _add_paths(self._folded, window.paths())
        self._folded_totals = _add_records(self._folded_totals, window.totals())

    def _live(self) -> list[LedgerWindow]:
        """The windows of machines still alive, after folding the rest."""
        for window in [w for w in self._windows if w.core() is None]:
            self._fold(window)
        return self._windows

    def _paths(self) -> Paths:
        """Every window's table, summed per path (folded machines first)."""
        windows = self._live()
        paths = dict(self._folded)
        for window in windows:
            _add_paths(paths, window.paths())
        return paths

    def _totals(self) -> CostRecord:
        """Every window's ledger totals, summed (the peak is the largest)."""
        windows = self._live()
        total = self._folded_totals
        for window in windows:
            total = _add_records(total, window.totals())
        return total
