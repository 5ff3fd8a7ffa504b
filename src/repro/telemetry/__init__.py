"""Telemetry: durable, comparable observability artifacts.

PR 1 put an event bus under every machine and PR 2 made sweeps parallel
and cached; this package turns those signals into things you can keep,
diff, and load into other tools:

* :mod:`~repro.telemetry.metrics` — a lightweight labeled metrics
  registry (:class:`MetricsRegistry`: counters, gauges, exact-storage
  histograms with percentiles);
* :mod:`~repro.telemetry.observer` — :class:`MetricsObserver`, the event
  bus → registry bridge (per-phase ``Qr``/``Qw``/cost splits, wear
  percentiles);
* :mod:`~repro.telemetry.engine_metrics` — :class:`EngineTelemetry`,
  the sweep engine's task-span recorder (per-task wall time, cache
  hit/miss provenance, worker utilization);
* :mod:`~repro.telemetry.perfetto` — Chrome-trace/Perfetto export
  (:class:`ChromeTraceBuilder`, :class:`PerfettoObserver`,
  :func:`validate_trace`): phases as duration spans, I/Os as counter
  tracks, rounds as instants, engine tasks as worker-lane spans, all in
  one ``trace.json`` loadable at ``ui.perfetto.dev``;
* :mod:`~repro.telemetry.spans` — end-to-end trace propagation
  (:class:`SpanContext`, :class:`SpanCollector`,
  :class:`SpanPhaseRecorder`): one id minted per serve request, carried
  through the engine into the machine, stitched back together as
  Perfetto flow events;
* :mod:`~repro.telemetry.profile` — :class:`CostProfiler`, the
  I/O cost-attribution profiler (per-phase-path ``Qr``/``Qw``/``Q``
  attribution, folded-stack and speedscope export);
* :mod:`~repro.telemetry.manifest` — the JSONL run manifest every
  ``--telemetry-dir`` invocation appends to.

Everything is attach-to-observe: a run without telemetry observers pays
nothing beyond the machine core's empty-callback-list check.
"""

from .engine_metrics import EngineTelemetry, TaskSpan
from .manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    append_record,
    read_manifest,
    run_record,
)
from .metrics import Counter, Gauge, Histogram, MetricFamily, MetricsRegistry
from .observer import MetricsObserver
from .perfetto import (
    ChromeTraceBuilder,
    PerfettoObserver,
    validate_trace,
)
from .profile import (
    WEIGHTS,
    CostProfiler,
    PathStats,
    folded,
    merge_paths,
    render_table,
    speedscope,
)
from .spans import (
    SpanCollector,
    SpanContext,
    SpanPhaseRecorder,
    current_collector,
    current_span,
    render_machine_segments,
    set_collector,
    use_collector,
    use_span,
)

__all__ = [
    "ChromeTraceBuilder",
    "CostProfiler",
    "Counter",
    "EngineTelemetry",
    "Gauge",
    "Histogram",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "MetricFamily",
    "MetricsObserver",
    "MetricsRegistry",
    "PathStats",
    "PerfettoObserver",
    "SpanCollector",
    "SpanContext",
    "SpanPhaseRecorder",
    "TaskSpan",
    "WEIGHTS",
    "append_record",
    "current_collector",
    "current_span",
    "folded",
    "merge_paths",
    "read_manifest",
    "render_machine_segments",
    "render_table",
    "run_record",
    "set_collector",
    "speedscope",
    "use_collector",
    "use_span",
    "validate_trace",
]
