"""Span tracing from the outside: wrappers around the program's entry points.

:func:`install` replaces module and class attributes of an imported
``repro`` with thin wrappers that record one span per call — name,
start, end, parent, key — into a :class:`Tracer` kept in memory. Nothing
under ``src/`` is edited; per-I/O machine methods are never wrapped, so
machine time comes from phases, flushes, observer callbacks and counts.

Keys tie spans together: a served request's spans share the trace id
``/evaluate`` returns; a measurement's spans share its index (or, inside
the server, the trace id of the request that caused it).

:func:`layer_metrics` turns spans into the per-layer figures. A layer's
self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

from common import median, pct

perf = time.perf_counter

#: Declared machine phases reported as ``phase.<name>_s`` (``/`` -> ``-``):
#: every phase the workloads enter. Others still count toward their
#: parents' self time being excluded, but get no metric of their own.
PHASES = (
    "index/runs", "index/merge", "index/postings",
    "mergesort/base", "small_sort/scan", "small_sort/emit",
    "merge/init", "merge/identify", "merge/active", "merge/emit",
    "merge/pointers",
    "query/lookup", "query/match",
    "permute_naive/gather", "permute_sort/relabel", "permute_sort/strip",
    "spmxv_naive/rows", "spmxv_sort/products", "spmxv_sort/meta-sort",
    "spmxv_sort/add", "spmxv_sort/densify",
)

MEASURES = {
    "measure_sort": "measure.sort",
    "measure_permute": "measure.permute",
    "measure_spmxv": "measure.spmxv",
    "measure_index_build": "measure.index_build",
    "measure_search_query": "measure.search_query",
}

OBSERVERS = ("CostObserver", "CostProfiler", "MetricsObserver", "TraceRecorder")

_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request")


class Span:
    __slots__ = ("name", "start", "end", "parent", "key", "tid", "child")

    def __init__(self, name, start, parent, key, tid):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.key = key
        self.tid = tid
        self.child = 0.0  # time covered by direct children

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - self.child


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)
        self.totals: dict = defaultdict(float)
        self.cores: list = []
        self.machine = {"io": 0, "touches": 0}
        self.measurement = 0
        self.key: Any = None
        self._local = threading.local()
        self.t0 = perf()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if key is None:
            if parent is not None:
                key = parent.key
            else:
                key = _REQUEST.get(None) or self.key
        span = Span(name, perf(), parent, key, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent is not None:
            span.parent.child += span.dur

    def leaf(self, name: str, start: float, end: float, key: Any, tid: Any) -> Span:
        """A span recorded after the fact (async code has no call stack)."""
        span = Span(name, start, None, key, tid)
        span.end = end
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def wrap_total(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, but only sums time: for high-frequency calls.

        Flushes and observer callbacks fire thousands of times a pass; a
        span object each would dominate the tracing overhead. Their time
        still leaves the enclosing span's self time (once, at the
        outermost such call).
        """
        tracer = self
        totals = self.totals

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            local = tracer._local
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                local.depth = depth
                totals[name] += dur
                if not depth:
                    stack = tracer._stack()
                    if stack:
                        stack[-1].child += dur

        return timed


# ----------------------------------------------------------------------
# Installation.
# ----------------------------------------------------------------------
def _patch_function(original: Callable, replacement: Callable, undo: list) -> None:
    """Rebind every ``repro`` module global that holds ``original``."""
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _patch_attr(owner: Any, attr: str, replacement: Any, undo: list) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def install(tracer: Tracer, *, serve: bool = False) -> Callable[[], None]:
    """Install every wrapper; returns a function that removes them all."""
    import repro.api as api
    import repro.api.measures as measures
    import repro.api.registry as registry
    import repro.experiments  # noqa: F401  (populates the registry)
    import repro.experiments.common as exp_common
    import repro.spmxv.matrix as spmxv_matrix
    import repro.workloads.generators as generators
    import repro.workloads.search.corpus as corpus
    import repro.workloads.search.index as search_index
    import repro.workloads.search.measures as search_measures
    import repro.workloads.search.query as search_query
    from repro.engine.cache import ResultCache
    from repro.engine.core import SweepEngine
    from repro.machine.aem import AEMMachine
    from repro.machine.core import MachineCore
    from repro.observe.cost import CostObserver
    from repro.observe.trace import TraceRecorder
    from repro.permute.base import verify_permutation_output
    from repro.sorting.base import verify_sorted_output
    from repro.telemetry import CostProfiler, MetricsObserver, current_span

    undo: list = []
    t = tracer

    # repro.api
    for fname, label in (("query_key", "api.query_key"), ("sweep", "api.sweep")):
        fn = getattr(api, fname)
        _patch_function(fn, t.wrap(label, fn), undo)

    # repro.engine
    _patch_attr(SweepEngine, "map", t.wrap("engine.map", SweepEngine.map), undo)
    _patch_attr(ResultCache, "get", t.wrap("engine.cache_get", ResultCache.get), undo)
    _patch_attr(ResultCache, "put", t.wrap("engine.cache_put", ResultCache.put), undo)

    # measure functions: one key per measurement (its index, or the trace
    # id of the served request it belongs to), machine counts at exit.
    def measure_wrapper(label: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = t.key
            if outer is None:
                ctx = current_span()
                t.measurement += 1
                t.key = ctx.trace_id if ctx is not None else t.measurement
            first_core = len(t.cores)
            span = t.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                t.close(span)
                for core in t.cores[first_core:]:
                    t.machine["io"] += core.io_count
                    t.machine["touches"] += sum(
                        obs.counter.touches for obs in core.find(CostObserver)
                    )
                del t.cores[first_core:]
                t.key = outer

        return traced

    replaced = {}
    for module in (measures, search_measures):
        for fname, label in MEASURES.items():
            fn = getattr(module, fname, None)
            if fn is not None and fname not in replaced:
                replaced[fname] = measure_wrapper(label, fn)
                _patch_function(fn, replaced[fname], undo)
    for name, spec in list(registry.WORKLOADS.items()):
        wrapped = replaced.get(spec.measure.__name__)
        if wrapped is not None:
            undo.append((registry.WORKLOADS, name, spec))
            registry.WORKLOADS[name] = _replace_measure(spec, wrapped)

    # search layers, inputs and verification
    groups = (
        ("search.build", (search_index.build_index,)),
        ("search.queries", (search_query.run_queries,)),
        ("search.reference", (search_query.reference_search,)),
        ("input", (generators.sort_input, generators.permutation,
                   generators.spmxv_instance, corpus.corpus_postings,
                   corpus.query_stream, corpus.posting_atoms,
                   corpus.posting_tokens, spmxv_matrix.load_matrix,
                   spmxv_matrix.load_vector)),
        ("verify", (verify_sorted_output, verify_permutation_output,
                    spmxv_matrix.verify_spmxv_output, search_index.verify_index)),
    )
    for label, fns in groups:
        for fn in fns:
            _patch_function(fn, t.wrap(label, fn), undo)
    _patch_attr(AEMMachine, "load_input", t.wrap("input", AEMMachine.load_input), undo)

    # experiments
    for eid, runner in list(exp_common.REGISTRY.items()):
        undo.append((exp_common.REGISTRY, eid, runner))
        exp_common.REGISTRY[eid] = t.wrap(f"exp.{eid}", runner)

    # machine: phases, flushes (observer dispatch), core registration
    original_phase = MachineCore.phase.__wrapped__

    @contextmanager
    def phase(core, name):
        span = t.open(f"phase.{name}")
        try:
            yield from original_phase(core, name)
        finally:
            t.close(span)

    _patch_attr(MachineCore, "phase", phase, undo)
    original_flush = MachineCore.flush_events
    timed_flush = t.wrap_total("machine.flush", original_flush)

    def flush_events(core):
        if not core.batch.n:
            return original_flush(core)
        t.counts["flushes"] += 1
        return timed_flush(core)

    _patch_attr(MachineCore, "flush_events", flush_events, undo)
    original_init = MachineCore.__init__

    def init(core, *args, **kwargs):
        original_init(core, *args, **kwargs)
        if t.key is not None:  # counted when its measurement ends
            t.cores.append(core)

    _patch_attr(MachineCore, "__init__", init, undo)

    # observers: every handler the class itself defines
    for cls in (CostObserver, CostProfiler, MetricsObserver, TraceRecorder):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("on_") and attr not in ("on_attach", "on_detach") \
                    and callable(value):
                _patch_attr(
                    cls, attr, t.wrap_total(f"observe.{cls.__name__}", value), undo
                )
    for cls, attrs in ((CostProfiler, ("conservation_errors", "paths")),
                       (MetricsObserver, ("collect", "summary", "per_phase"))):
        for attr in attrs:
            _patch_attr(cls, attr, t.wrap("telemetry.readout", vars(cls)[attr]), undo)

    if serve:
        _install_serve(t, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        undo.clear()

    return uninstall


def _replace_measure(spec, wrapped):
    import dataclasses

    return dataclasses.replace(spec, measure=wrapped)


def _install_serve(t: Tracer, undo: list) -> None:
    """Wrappers for the asyncio serving layer (runs inside the server)."""
    import repro.serve.server as server_mod
    from repro.serve.server import CostServer

    original_handle = CostServer._handle_connection

    async def handle_connection(self, reader, writer):
        # One box per connection (= per request); filled with the trace id
        # once /evaluate answers. Tasks spawned below inherit it.
        _REQUEST.set({"key": None})
        await original_handle(self, reader, writer)

    _patch_attr(CostServer, "_handle_connection", handle_connection, undo)

    original_read = server_mod.read_request

    async def read_request(reader):
        start = perf()
        try:
            return await original_read(reader)
        finally:
            t.leaf("serve.parse", start, perf(), _REQUEST.get(None), "serve")

    _patch_attr(server_mod, "read_request", read_request, undo)

    original_respond = server_mod.response_bytes

    def response_bytes(*args, **kwargs):
        start = perf()
        try:
            return original_respond(*args, **kwargs)
        finally:
            t.leaf("serve.respond", start, perf(), _REQUEST.get(None), "serve")

    _patch_attr(server_mod, "response_bytes", response_bytes, undo)

    def admit_wrapper(fn):
        @functools.wraps(fn)
        def admit(self, *args, **kwargs):
            start = perf()
            try:
                return fn(self, *args, **kwargs)
            finally:
                t.leaf("serve.admit", start, perf(), _REQUEST.get(None), "serve")

        return admit

    for attr in ("_new_unique_count", "_admit"):
        _patch_attr(CostServer, attr, admit_wrapper(vars(CostServer)[attr]), undo)

    original_evaluate = CostServer._evaluate

    async def evaluate(self, req):
        start = perf()
        status, payload, headers = await original_evaluate(self, req)
        request = _REQUEST.get(None)
        if request is not None and isinstance(payload, dict):
            spans = payload.get("spans") or [payload.get("span")]
            if spans and spans[0]:
                request["key"] = spans[0]["trace_id"]
        t.leaf("serve.evaluate", start, perf(), request, "serve")
        t.counts["requests"] += 1
        if status == 200 and isinstance(payload, dict):
            t.counts["queries"] += len(payload.get("results") or [None])
        return status, payload, headers

    _patch_attr(CostServer, "_evaluate", evaluate, undo)

    original_run_batch = CostServer._run_batch

    async def run_batch(self, batch):
        start = perf()
        now_us = self._now()
        for task in batch:
            waited = (now_us - task.t_admit) / 1e6
            t.leaf("serve.batch_wait", start - waited, start,
                   task.span.trace_id, "serve")
        try:
            return await original_run_batch(self, batch)
        finally:
            keys = [task.span.trace_id for task in batch]
            t.leaf("serve.dispatch", start, perf(), keys[0] if keys else None, "serve")

    _patch_attr(CostServer, "_run_batch", run_batch, undo)


# ----------------------------------------------------------------------
# Readout.
# ----------------------------------------------------------------------
def _key_of(span: Span) -> Any:
    key = span.key
    if isinstance(key, dict):  # a request box filled in once /evaluate answered
        return key.get("key")
    return key


def layer_metrics(tracer: Tracer, *, per: float = 1.0) -> dict:
    """Per-layer figures from the spans; totals are divided by ``per``.

    ``per`` is the number of workload passes the spans cover, so time and
    count totals read per pass (``1`` for ``serve``, where they are
    totals over the traced load window).
    """
    total: dict = defaultdict(float, tracer.totals)
    self_t: dict = defaultdict(float)
    durs: dict = defaultdict(list)
    for span in tracer.spans:
        name = span.name
        total[name] += span.dur
        self_t[name] += span.self_time
        durs[name].append(span.dur)

    def top_level(prefix: str) -> float:
        """Time in spans named ``prefix`` not nested in another of them."""
        out = 0.0
        for span in tracer.spans:
            if span.name != prefix:
                continue
            parent = span.parent
            while parent is not None and parent.name != prefix:
                parent = parent.parent
            if parent is None:
                out += span.dur
        return out

    def p(name: str, q: float, scale: float) -> float:
        values = durs.get(name)
        return pct(values, q) * scale if values else 0.0

    m: dict = {}
    for label in MEASURES.values():
        m[f"{label}_s"] = total[label] / per
    for label in ("search.build", "search.queries", "search.reference"):
        m[f"{label}_s"] = total[label] / per
    m["input_s"] = top_level("input") / per
    m["verify_s"] = top_level("verify") / per
    for name in PHASES:
        m[f"phase.{name.replace('/', '-')}_s"] = self_t[f"phase.{name}"] / per

    measured = sum(total[label] for label in MEASURES.values())
    m["machine.io"] = tracer.machine["io"] / per
    m["machine.touches"] = tracer.machine["touches"] / per
    m["machine.io_per_s"] = tracer.machine["io"] / measured if measured else 0.0
    m["machine.flushes"] = tracer.counts["flushes"] / per
    m["machine.flush_s"] = total["machine.flush"] / per
    for cls in OBSERVERS:
        m[f"observe.{cls}_s"] = total[f"observe.{cls}"] / per
    m["telemetry.readout_s"] = top_level("telemetry.readout") / per

    m["engine.cache_get_us.p50"] = p("engine.cache_get", 0.5, 1e6)
    m["engine.cache_put_us.p50"] = p("engine.cache_put", 0.5, 1e6)
    m["engine.map_self_s"] = self_t["engine.map"] / per
    m["api.query_key_us.p50"] = p("api.query_key", 0.5, 1e6)

    exp_total = 0.0
    for name in list(total):
        if name.startswith("exp."):
            m[f"{name}_s"] = total[name] / per
            exp_total += self_t[name]
    m["exp.self_s"] = exp_total / per

    if tracer.counts["requests"]:
        admit_per_request: dict = defaultdict(float)
        for span in tracer.spans:
            if span.name == "serve.admit":
                admit_per_request[id(span.key)] += span.dur
        m["serve.parse_us.p50"] = p("serve.parse", 0.5, 1e6)
        m["serve.admit_us.p50"] = (
            median(admit_per_request.values()) * 1e6 if admit_per_request else 0.0
        )
        m["serve.batch_wait_ms.p50"] = p("serve.batch_wait", 0.5, 1e3)
        m["serve.batch_wait_ms.p99"] = p("serve.batch_wait", 0.99, 1e3)
        m["serve.dispatch_ms.p50"] = p("serve.dispatch", 0.5, 1e3)
        m["serve.dispatch_ms.p99"] = p("serve.dispatch", 0.99, 1e3)
        m["serve.respond_us.p50"] = p("serve.respond", 0.5, 1e6)
        queries = tracer.counts["queries"]
        m["api.query_key_calls_per_query"] = (
            len(durs.get("api.query_key", [])) / queries if queries else 0.0
        )
    return m


def write_trace(tracer: Tracer, path, *, pid: int, label: str) -> int:
    """Write the spans as a Chrome trace, validate it; returns event count."""
    from repro.telemetry import ChromeTraceBuilder, validate_trace

    chrome = ChromeTraceBuilder()
    chrome.process_name(pid, label)
    lanes: dict = {}

    def lane(span: Span) -> int:
        # Nested (call-stack) spans stay on their thread's lane; leaf
        # spans of concurrent requests get a lane per request key.
        ident = span.tid if span.tid != "serve" else ("req", id(span.key) % 64)
        if ident not in lanes:
            lanes[ident] = len(lanes) + 1
            chrome.thread_name(pid, lanes[ident], f"lane {lanes[ident]}")
        return lanes[ident]

    for span in tracer.spans:
        key = _key_of(span)
        chrome.complete(
            span.name,
            (span.start - tracer.t0) * 1e6,
            max(0.0, span.dur) * 1e6,
            pid=pid,
            tid=lane(span),
            cat=span.name.split(".", 1)[0],
            args={"key": str(key)} if key is not None else None,
        )
    trace = chrome.trace()
    validate_trace(trace)
    chrome.write(path)
    return len(trace["traceEvents"])


def scan_probe(*, counting: bool) -> float:
    """ns per I/O of ``streams.scan_copy`` on a bare machine (median of 5).

    Each sample copies 32768 atoms three times with B = 32, M = 256.
    """
    from repro.atoms.atom import make_atoms
    from repro.core.params import AEMParams
    from repro.machine.aem import AEMMachine
    from repro.machine.streams import scan_copy

    samples = []
    for _ in range(5):
        machine = AEMMachine.for_algorithm(
            AEMParams(M=256, B=32, omega=8), counting=counting
        )
        addrs = machine.load_input(make_atoms(range(32768)))
        io0 = machine.core.io_count
        start = perf()
        for _ in range(3):
            scan_copy(machine, addrs)
        elapsed = perf() - start
        samples.append(elapsed / (machine.core.io_count - io0) * 1e9)
    return median(samples)
