"""Machine instrumentation: one event bus under every memory model.

Every machine in :mod:`repro.machine` (the AEM, its EM/ARAM special cases,
and the unit-cost flash model) is built on a shared
:class:`~repro.machine.core.MachineCore` that emits a uniform stream of
*machine events* — one per I/O, ledger movement, phase transition, and
round boundary. Anything that wants per-I/O observability implements the
:class:`MachineObserver` protocol and attaches to a machine; the machine
itself stays a thin model-semantics veneer.

The cost ledger is the core's own: it charges every read, write and
touch to its :class:`~repro.machine.cost.CostCounter` (``core.counter``).
The observers shipped here:

* :class:`CostObserver` — a handle on that ledger (``Q = Qr + omega*Qw``,
  attributed by phase path; for the flash model, I/O *volume*), attached
  to every machine.
* :class:`TraceRecorder` — straight-line program recording, emitting the
  exact :class:`~repro.trace.ops.ReadOp` / :class:`~repro.trace.ops.WriteOp`
  sequences the Section 4–5 lower-bound machinery consumes.
* :class:`WearMap` — per-block write-endurance histogram (NVM wear).
* :class:`ProgressObserver` — live I/O/phase readout for long CLI runs.
* :class:`LedgerReadout` — the base of the observers that report costs
  by phase (progress, and telemetry's profiler and metrics): they read
  the ledger's phase-path table instead of keeping phase stacks.

Dispatch is cheap by construction: a machine core keeps one callback list
per event kind, populated only with observers that *override* that event,
so un-observed events cost a single truthiness check, and each overridden
handler is called once per event. An observer that overrides ``on_batch``
receives its read/write/acquire/release/touch events as a reused
columnar :class:`EventBatch` instead, flushed at phase and round
boundaries (exact flush points), attach/detach, and every
``MachineCore.flush_interval`` events — see :mod:`repro.observe.batch`.
"""

from .base import EVENTS, MachineObserver
from .batch import BATCHED_EVENTS, EventBatch
from .cost import CostObserver
from .ledger import LedgerReadout
from .progress import ProgressObserver
from .trace import TraceRecorder
from .wear import WearMap

__all__ = [
    "BATCHED_EVENTS",
    "EVENTS",
    "CostObserver",
    "EventBatch",
    "LedgerReadout",
    "MachineObserver",
    "ProgressObserver",
    "TraceRecorder",
    "WearMap",
]
