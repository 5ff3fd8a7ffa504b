"""End-to-end trace propagation: span contexts + machine span recording.

A :class:`SpanContext` is the identity of one unit of traced work —
``trace_id`` names the whole request chain, ``span_id`` this hop,
``parent_id`` the hop that caused it. The serving layer mints a root
context per admitted query, returns it in the ``/evaluate`` response,
and threads it through :func:`repro.api.sweep` →
:meth:`repro.engine.core.SweepEngine.map` → (pickled) into pool workers,
where it is re-established around the machine run. The pieces of one
request then stitch into a single navigable Perfetto timeline via flow
events (``s``/``t``/``f`` — see
:meth:`~repro.telemetry.perfetto.ChromeTraceBuilder.flow_start`).

Propagation is *ambient* inside one process: :func:`use_span` installs
the current span, :func:`use_collector` the segment sink, and any
:class:`~repro.machine.core.MachineCore` constructed while both are
active auto-attaches a :class:`SpanPhaseRecorder` (the machine layer
stays import-free of telemetry — it only calls a factory this module
installs via
:func:`repro.machine.core.install_span_observer_factory`). Workers
re-establish the span explicitly from the pickled context and ship their
recorded segments back as plain dicts.

The machine has no wall clock — its timeline is the logical one
microsecond per I/O, read from the core's cost ledger (the recorder
counts nothing itself) — so each recorded segment also carries the
``time.perf_counter()`` at which its machine was built. Rendering
(:func:`render_machine_segments`) anchors the logical timeline at that
wall instant relative to the trace's ``t0``, which keeps the flow chain
monotonic: request lane → engine task lane → machine phases.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Sequence

from ..machine.core import install_span_observer_factory
from ..machine.cost import PathStats
from ..observe.base import MachineObserver
from ..observe.ledger import LedgerWindow
from .perfetto import MACHINE_PID, ChromeTraceBuilder

#: Category stamped on every flow event a span chain emits; the flow
#: name/cat/id triple must match across s/t/f for viewers to bind them.
FLOW_CAT = "flow"
FLOW_NAME = "query"


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class SpanContext:
    """One hop of a traced request: (trace_id, span_id, parent_id).

    Frozen and trivially picklable — it crosses the process boundary
    into pool workers and comes back in JSON responses and manifests.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    @classmethod
    def root(cls) -> "SpanContext":
        """Mint a fresh root span (new trace)."""
        return cls(trace_id=_new_id(), span_id=_new_id())

    def child(self) -> "SpanContext":
        """A new span in the same trace, parented to this one."""
        return SpanContext(
            trace_id=self.trace_id, span_id=_new_id(), parent_id=self.span_id
        )

    @property
    def flow_id(self) -> str:
        """The Perfetto flow-event id: the whole chain shares the trace."""
        return self.trace_id

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanContext":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
        )


# ----------------------------------------------------------------------
# Ambient propagation (one process, one strand of execution at a time:
# the engine runs batches sequentially and workers re-establish their
# own span, so plain module state is sufficient and cheap).
# ----------------------------------------------------------------------
_SPAN_STACK: list[SpanContext] = []
_COLLECTOR: Optional["SpanCollector"] = None


def current_span() -> Optional[SpanContext]:
    """The innermost span installed by :func:`use_span`, or ``None``."""
    return _SPAN_STACK[-1] if _SPAN_STACK else None


def current_collector() -> Optional["SpanCollector"]:
    """The segment sink installed by :func:`use_collector`, or ``None``."""
    return _COLLECTOR


@contextmanager
def use_span(span: SpanContext) -> Iterator[SpanContext]:
    """Install ``span`` as the ambient span for the ``with`` block."""
    _SPAN_STACK.append(span)
    try:
        yield span
    finally:
        _SPAN_STACK.pop()


def set_collector(
    collector: Optional["SpanCollector"],
) -> Optional["SpanCollector"]:
    """Install the ambient segment collector; returns the previous one.

    The server uses this across its whole lifetime (start → drain);
    scoped callers should prefer :func:`use_collector`.
    """
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = collector
    return previous


@contextmanager
def use_collector(collector: "SpanCollector") -> Iterator["SpanCollector"]:
    """Install ``collector`` as the ambient sink for the ``with`` block."""
    previous = set_collector(collector)
    try:
        yield collector
    finally:
        set_collector(previous)


class SpanPhaseRecorder(MachineObserver):
    """Record one machine run's phase timeline under a span context.

    Attached automatically (via the machine-core factory hook) to every
    machine built while an ambient span *and* collector are active. The
    timeline uses the machine's logical clock, one tick per I/O: each
    ``B``/``E`` mark is stamped with the I/O count of the core's cost
    ledger since attach, and the exported totals are the ledger's
    deltas since attach, both read through a
    :class:`~repro.observe.ledger.LedgerWindow`, as every readout is. It
    handles no I/O events itself.
    """

    def __init__(self, span: SpanContext):
        self.span = span
        self.wall_start = time.perf_counter()
        self.timeline: list[tuple] = []  # ("B"|"E", phase name, tick)
        self._window: Optional[LedgerWindow] = None

    def on_attach(self, core) -> None:
        super().on_attach(core)
        self._window = LedgerWindow(core)

    @property
    def clock(self) -> int:
        """The logical clock: I/Os since attach."""
        window = self._window
        return 0 if window is None else window.spent().io

    def on_phase_enter(self, name: str) -> None:
        self.timeline.append(("B", name, self.clock))

    def on_phase_exit(self, name: str) -> None:
        self.timeline.append(("E", name, self.clock))

    def export(self) -> dict:
        """The segment as a plain picklable dict."""
        window = self._window
        spent = PathStats() if window is None else window.spent()
        return {
            "span": self.span.as_dict(),
            "wall_start": self.wall_start,
            "io": spent.io,
            "reads": spent.reads,
            "writes": spent.writes,
            "read_cost": spent.read_cost,
            "write_cost": spent.write_cost,
            "timeline": list(self.timeline),
        }


class SpanCollector:
    """Gathers the machine segments recorded under one trace sink.

    Local machine runs contribute live :class:`SpanPhaseRecorder`
    instances (created by the factory hook); pool workers contribute
    already-exported dicts shipped back through the engine.
    """

    def __init__(self) -> None:
        self._recorders: list[SpanPhaseRecorder] = []
        self._imported: list[dict] = []

    def make_recorder(self, span: SpanContext) -> SpanPhaseRecorder:
        recorder = SpanPhaseRecorder(span)
        self._recorders.append(recorder)
        return recorder

    def extend(self, segments: Sequence[Mapping]) -> None:
        """Absorb exported segments (e.g. shipped back from a worker)."""
        self._imported.extend(dict(seg) for seg in segments)

    def export(self) -> list[dict]:
        """Every segment, exported, in recording order."""
        return [r.export() for r in self._recorders] + list(self._imported)

    def __len__(self) -> int:
        return len(self._recorders) + len(self._imported)


def _ambient_recorder() -> Optional[SpanPhaseRecorder]:
    """The machine-core factory: record only inside an active trace."""
    span = current_span()
    collector = current_collector()
    if span is None or collector is None:
        return None
    return collector.make_recorder(span)


install_span_observer_factory(_ambient_recorder)


# ----------------------------------------------------------------------
# Rendering: machine segments → pid-1 tracks + flow terminations.
# ----------------------------------------------------------------------
def render_machine_segments(
    builder: ChromeTraceBuilder,
    segments: Sequence[Mapping],
    *,
    t0: float,
    pid: int = MACHINE_PID,
    flow: bool = True,
) -> ChromeTraceBuilder:
    """Render exported machine segments into a shared trace builder.

    Each segment gets its own thread lane: a root ``machine run`` span
    anchored at ``(wall_start - t0)`` wall microseconds, its phase
    timeline at ``anchor + logical tick`` (one microsecond per I/O), and
    — when ``flow`` is set — the terminating ``f`` flow event of the
    segment's trace, landing on the root span so the chain
    request lane → engine task → machine phases is navigable.
    """
    if segments:
        builder.process_name(pid, "machine runs (logical I/O clock)")
    for lane, seg in enumerate(segments, start=1):
        span = SpanContext.from_dict(seg["span"])
        anchor = (float(seg["wall_start"]) - t0) * 1e6
        builder.thread_name(pid, lane, f"machine run {span.span_id[:8]}")
        builder.begin(
            "machine run",
            anchor,
            pid=pid,
            tid=lane,
            cat="machine",
            args={  # trace args, not a cost record  # lint: disable=AEM104
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "Qr": seg["reads"],
                "Qw": seg["writes"],
            },
        )
        if flow:
            builder.flow_end(
                FLOW_NAME, anchor, id=span.flow_id, pid=pid, tid=lane,
                cat=FLOW_CAT,
            )
        for kind, name, tick in seg["timeline"]:
            ts = anchor + tick
            if kind == "B":
                builder.begin(name, ts, pid=pid, tid=lane, cat="phase")
            else:
                builder.end(name, ts, pid=pid, tid=lane)
        builder.end("machine run", anchor + seg["io"], pid=pid, tid=lane)
    return builder
