"""Chrome-trace/Perfetto export of machine and engine activity.

Emits the `Trace Event Format`_ JSON that ``ui.perfetto.dev`` (and
``chrome://tracing``) loads directly:

* :class:`ChromeTraceBuilder` — the low-level event sink: duration
  begin/end pairs (``B``/``E``), complete spans (``X``), counter samples
  (``C``), instants (``i``), and process/thread-name metadata (``M``),
  serialized as ``{"traceEvents": [...]}``.
* :class:`PerfettoObserver` — a machine observer that renders a run's
  event stream onto a builder: declared phases become nested duration
  spans, every I/O advances counter tracks (``Qr``/``Qw`` and their
  summed costs), and round boundaries become instant markers.
* :func:`validate_trace` — the structural checks the test suite (and the
  CLI, cheaply) run on every exported trace: required keys, monotonic
  timestamps, matched ``B``/``E`` nesting per thread, and flow-event
  integrity (every ``s``/``t``/``f`` flow lands on a real slice and
  forms a well-ordered chain per id; see
  :meth:`ChromeTraceBuilder.flow_start`).

The simulator has no wall clock of its own, so the machine timeline uses
a *logical* clock: one microsecond per I/O event. That makes span widths
in Perfetto directly proportional to I/O counts — the model's actual
notion of time — rather than to Python's execution speed. Engine worker
spans (:meth:`repro.telemetry.engine_metrics.EngineTelemetry.to_trace`)
use real wall-clock microseconds on their own process track; the two
clocks never share a track, so mixing them in one file is safe.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Mapping, Optional, Sequence, Union

from ..observe.base import MachineObserver
from ..observe.batch import KIND_READ, KIND_WRITE

#: pid assigned to machine-event tracks (engine tracks use ENGINE_PID).
MACHINE_PID = 1
ENGINE_PID = 2

#: Keys every trace event must carry to be loadable.
REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")


class ChromeTraceBuilder:
    """Accumulates trace events; serializes the Chrome trace JSON object."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    # ------------------------------------------------------------------
    # Event constructors.
    # ------------------------------------------------------------------
    def _event(self, **fields) -> dict:
        if fields.get("args") is None:
            fields.pop("args", None)
        if not fields.get("cat"):
            fields.pop("cat", None)
        self.events.append(fields)
        return fields

    def begin(
        self,
        name: str,
        ts: float,
        *,
        pid: int = MACHINE_PID,
        tid: int = 1,
        cat: str = "",
        args: Optional[Mapping] = None,
    ) -> dict:
        return self._event(name=name, ph="B", ts=ts, pid=pid, tid=tid, cat=cat, args=args)

    def end(self, name: str, ts: float, *, pid: int = MACHINE_PID, tid: int = 1) -> dict:
        return self._event(name=name, ph="E", ts=ts, pid=pid, tid=tid)

    def complete(
        self,
        name: str,
        ts: float,
        dur: float,
        *,
        pid: int = MACHINE_PID,
        tid: int = 1,
        cat: str = "",
        args: Optional[Mapping] = None,
    ) -> dict:
        return self._event(
            name=name, ph="X", ts=ts, dur=dur, pid=pid, tid=tid, cat=cat, args=args
        )

    def counter(
        self,
        name: str,
        ts: float,
        values: Mapping[str, float],
        *,
        pid: int = MACHINE_PID,
        tid: int = 1,
    ) -> dict:
        return self._event(name=name, ph="C", ts=ts, pid=pid, tid=tid, args=dict(values))

    def instant(
        self,
        name: str,
        ts: float,
        *,
        pid: int = MACHINE_PID,
        tid: int = 1,
        scope: str = "t",
        args: Optional[Mapping] = None,
    ) -> dict:
        return self._event(
            name=name, ph="i", ts=ts, pid=pid, tid=tid, s=scope, args=args
        )

    def _flow(
        self,
        ph: str,
        name: str,
        ts: float,
        *,
        id: str,
        pid: int,
        tid: int,
        cat: str,
    ) -> dict:
        fields = dict(name=name, ph=ph, ts=ts, pid=pid, tid=tid, cat=cat, id=id)
        if ph == "f":
            # Bind the termination to its enclosing slice (not the next
            # slice to start), matching how s/t bind.
            fields["bp"] = "e"
        return self._event(**fields)

    def flow_start(
        self,
        name: str,
        ts: float,
        *,
        id: str,
        pid: int = MACHINE_PID,
        tid: int = 1,
        cat: str = "flow",
    ) -> dict:
        """Open a flow (``ph="s"``); must land inside a slice on (pid, tid).

        Flow events stitch slices on different tracks into one causal
        chain: the viewer draws an arrow from each flow event to the
        next one carrying the same ``name``/``cat``/``id``. Exactly one
        ``s`` starts a chain; ``t`` steps continue it; ``f`` ends it.
        """
        return self._flow("s", name, ts, id=id, pid=pid, tid=tid, cat=cat)

    def flow_step(
        self,
        name: str,
        ts: float,
        *,
        id: str,
        pid: int = MACHINE_PID,
        tid: int = 1,
        cat: str = "flow",
    ) -> dict:
        """Continue a flow (``ph="t"``) on another slice."""
        return self._flow("t", name, ts, id=id, pid=pid, tid=tid, cat=cat)

    def flow_end(
        self,
        name: str,
        ts: float,
        *,
        id: str,
        pid: int = MACHINE_PID,
        tid: int = 1,
        cat: str = "flow",
    ) -> dict:
        """Terminate a flow (``ph="f"``, bound to the enclosing slice)."""
        return self._flow("f", name, ts, id=id, pid=pid, tid=tid, cat=cat)

    def process_name(self, pid: int, name: str) -> dict:
        return self._event(
            name="process_name", ph="M", ts=0, pid=pid, tid=0, args={"name": name}
        )

    def thread_name(self, pid: int, tid: int, name: str) -> dict:
        return self._event(
            name="thread_name", ph="M", ts=0, pid=pid, tid=tid, args={"name": name}
        )

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def trace(self) -> dict:
        """The JSON object Perfetto loads.

        Events are stably sorted by timestamp (metadata first), so a
        builder fed by several sources still reads in time order;
        same-timestamp events keep their emission order, preserving
        ``B``-before-``E`` nesting.
        """
        meta = [e for e in self.events if e["ph"] == "M"]
        rest = sorted(
            (e for e in self.events if e["ph"] != "M"), key=lambda e: e["ts"]
        )
        return {"traceEvents": meta + rest, "displayTimeUnit": "ms"}

    def write(self, destination: Union[str, Path, IO[str]]) -> None:
        blob = json.dumps(self.trace())
        if hasattr(destination, "write"):
            destination.write(blob)
            return
        path = Path(destination)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(blob, encoding="utf-8")

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChromeTraceBuilder({len(self.events)} events)"


class PerfettoObserver(MachineObserver):
    """Render a machine's event stream as a Perfetto-loadable timeline.

    Parameters
    ----------
    builder:
        Sink shared with other sources (engine spans, a second machine on
        another ``tid``); private by default.
    label:
        Process name shown in the Perfetto track list.
    tid:
        Thread track for this machine's spans/counters.
    every:
        Sample the counter tracks every this-many I/Os (default 1 =
        every I/O; raise it for very long runs to bound trace size).
    """

    def __init__(
        self,
        builder: Optional[ChromeTraceBuilder] = None,
        *,
        label: str = "machine",
        pid: int = MACHINE_PID,
        tid: int = 1,
        every: int = 1,
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.builder = builder if builder is not None else ChromeTraceBuilder()
        self.pid = pid
        self.tid = tid
        self.every = every
        self.clock = 0  # logical microseconds: one per I/O event
        self._reads = 0
        self._writes = 0
        self._read_cost = 0.0
        self._write_cost = 0.0
        self._open_phases: list[str] = []
        self.builder.process_name(pid, label)
        self.builder.thread_name(pid, tid, "machine events")

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------
    def _sample_counters(self) -> None:
        io = self._reads + self._writes
        if io % self.every:
            return
        self.builder.counter(
            "I/O", self.clock,
            {"Qr": self._reads, "Qw": self._writes},  # lint: disable=AEM104
            pid=self.pid, tid=self.tid,
        )
        self.builder.counter(
            "cost", self.clock,
            {"read": self._read_cost, "write": self._write_cost},
            pid=self.pid, tid=self.tid,
        )

    def on_read(self, addr: int, items: Sequence, cost: float) -> None:
        self.clock += 1
        self._reads += 1
        self._read_cost += cost
        self._sample_counters()

    def on_write(self, addr: int, items: Sequence, cost: float) -> None:
        self.clock += 1
        self._writes += 1
        self._write_cost += cost
        self._sample_counters()

    def on_batch(self, batch) -> None:
        # The logical clock advances one tick per I/O, and counter
        # sampling keys off the running totals, so batched delivery walks
        # the kind/cost columns and produces the identical event list a
        # synchronous run would. Phase/round marks stay synchronous and
        # land at the right clock because boundaries flush first.
        for kind, cost in zip(batch.kinds, batch.costs):
            if kind == KIND_READ:
                self.clock += 1
                self._reads += 1
                self._read_cost += cost
                self._sample_counters()
            elif kind == KIND_WRITE:
                self.clock += 1
                self._writes += 1
                self._write_cost += cost
                self._sample_counters()

    def on_phase_enter(self, name: str) -> None:
        self._open_phases.append(name)
        self.builder.begin(name, self.clock, pid=self.pid, tid=self.tid, cat="phase")

    def on_phase_exit(self, name: str) -> None:
        if self._open_phases:
            self._open_phases.pop()
        self.builder.end(name, self.clock, pid=self.pid, tid=self.tid)

    def on_round_boundary(self, index: int) -> None:
        self.builder.instant(
            "round boundary", self.clock, pid=self.pid, tid=self.tid,
            args={"io_count": index},
        )

    # ------------------------------------------------------------------
    # Finalization.
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close any phases left open (e.g. a run aborted mid-phase), so
        the exported trace always has matched ``B``/``E`` pairs. Buffered
        batch events are flushed first so the timeline is complete."""
        self.flush_core()
        while self._open_phases:
            self.builder.end(
                self._open_phases.pop(), self.clock, pid=self.pid, tid=self.tid
            )

    def write(self, destination: Union[str, Path, IO[str]]) -> None:
        """Finalize and serialize this observer's builder."""
        self.close()
        self.builder.write(destination)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PerfettoObserver({len(self.builder)} events, clock={self.clock})"


def validate_trace(trace: Mapping) -> None:
    """Raise ``ValueError`` unless ``trace`` is structurally loadable.

    Checks the invariants the exporters guarantee: a ``traceEvents``
    list; every event carrying :data:`REQUIRED_EVENT_KEYS` with sane
    types; per-``(pid, tid)`` non-decreasing timestamps; strictly
    matched, properly nested ``B``/``E`` pairs; non-negative ``X``
    durations; counter samples with numeric values; flow-event
    integrity — every ``s``/``t``/``f`` carries an ``id``, lands inside
    a real slice on its track, and each flow id forms a well-ordered
    chain (exactly one ``s``, opening the chain; at most one ``f``,
    closing it; one flow name throughout).
    """
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace must carry a 'traceEvents' list")
    last_ts: dict = {}
    stacks: dict = {}  # track -> [(name, begin ts), ...] open B events
    slices: dict = {}  # track -> [(start, end), ...] closed B/E + X spans
    flows: list = []  # (event index, event)
    for i, ev in enumerate(events):
        for key in REQUIRED_EVENT_KEYS:
            if key not in ev:
                raise ValueError(f"event {i} missing required key {key!r}: {ev}")
        if not isinstance(ev["ts"], (int, float)):
            raise ValueError(f"event {i} has non-numeric ts: {ev['ts']!r}")
        if ev["ph"] == "M":
            continue
        track = (ev["pid"], ev["tid"])
        if ev["ts"] < last_ts.get(track, float("-inf")):
            raise ValueError(
                f"event {i} goes backwards on track {track}: "
                f"ts {ev['ts']} after {last_ts[track]}"
            )
        last_ts[track] = ev["ts"]
        if ev["ph"] == "B":
            stacks.setdefault(track, []).append((ev["name"], ev["ts"]))
        elif ev["ph"] == "E":
            stack = stacks.get(track) or []
            if not stack:
                raise ValueError(f"event {i}: 'E' {ev['name']!r} with no open 'B'")
            top, begin_ts = stack.pop()
            if top != ev["name"]:
                raise ValueError(
                    f"event {i}: 'E' {ev['name']!r} closes open 'B' {top!r}"
                )
            slices.setdefault(track, []).append((begin_ts, ev["ts"]))
        elif ev["ph"] == "X":
            if ev.get("dur", -1) < 0:
                raise ValueError(f"event {i}: 'X' span needs a dur >= 0: {ev}")
            slices.setdefault(track, []).append((ev["ts"], ev["ts"] + ev["dur"]))
        elif ev["ph"] == "C":
            args = ev.get("args", {})
            if not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                raise ValueError(f"event {i}: counter needs numeric args: {ev}")
        elif ev["ph"] in ("s", "t", "f"):
            if "id" not in ev:
                raise ValueError(f"event {i}: flow event needs an 'id': {ev}")
            flows.append((i, ev))
    for track, stack in stacks.items():
        if stack:
            raise ValueError(
                f"track {track} has unclosed 'B' events: "
                f"{[name for name, _ in stack]}"
            )
    _validate_flows(flows, slices)


def _validate_flows(flows: list, slices: Mapping) -> None:
    """Flow integrity: every flow lands on a real span, chains are sane."""
    chains: dict = {}
    for i, ev in flows:
        track = (ev["pid"], ev["tid"])
        ts = ev["ts"]
        if not any(
            start <= ts <= end for start, end in slices.get(track, ())
        ):
            raise ValueError(
                f"event {i}: flow '{ev['ph']}' (id {ev['id']!r}) at ts {ts} "
                f"lands on no slice of track {track}"
            )
        chains.setdefault(ev["id"], []).append((ts, i, ev))
    for flow_id, chain in chains.items():
        chain.sort(key=lambda item: item[:2])
        starts = [item for item in chain if item[2]["ph"] == "s"]
        ends = [item for item in chain if item[2]["ph"] == "f"]
        if len(starts) != 1:
            raise ValueError(
                f"flow id {flow_id!r} has {len(starts)} 's' events (need 1)"
            )
        if chain[0][2]["ph"] != "s":
            raise ValueError(
                f"flow id {flow_id!r} does not open with its 's' event"
            )
        if len(ends) > 1:
            raise ValueError(
                f"flow id {flow_id!r} has {len(ends)} 'f' events (max 1)"
            )
        if ends and chain[-1][2]["ph"] != "f":
            raise ValueError(
                f"flow id {flow_id!r} continues past its 'f' event"
            )
        names = {item[2]["name"] for item in chain}
        if len(names) != 1:
            raise ValueError(
                f"flow id {flow_id!r} mixes names {sorted(names)}; viewers "
                "bind flows by (name, cat, id)"
            )
