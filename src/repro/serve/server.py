"""The AEM cost-oracle server: async serving over :mod:`repro.api`.

One :class:`CostServer` owns a :class:`~repro.engine.core.SweepEngine`
and answers HTTP/JSON cost queries by routing them through the
:mod:`repro.api` facade — never by constructing machines itself (lint
rule AEM108 enforces that structurally). Three serving mechanisms sit
between the socket and the engine:

* **batching** — group commit: as soon as the engine is free, every
  admitted query waiting for it (up to :data:`MAX_BATCH`) dispatches as
  *one* :func:`repro.api.sweep` call, and queries that arrive during
  that call form the next batch. A burst of arrivals costs one pass
  over the engine instead of one engine entry per request, and an idle
  engine takes a lone query at once;
* **deduplication** — queries are identified by
  :func:`repro.api.query_key` (the same content hash the result cache
  files measurements under). A query identical to one already in flight
  shares its future and is never admitted twice; completed queries hit
  the engine's content-addressed :class:`~repro.engine.cache.ResultCache`
  when caching is enabled;
* **backpressure** — at most ``max_pending`` unique queries may be in
  flight; past that the server answers ``429`` with a ``Retry-After``
  header (:data:`RETRY_AFTER_S`) instead of queueing without bound.
  Each request also carries a ``request_timeout`` after which *it*
  gives up (``504``) while the shared evaluation keeps running for
  whoever else wants it.

Shutdown is a graceful drain: stop accepting, finish every admitted
query, answer every open connection, then flush telemetry (a Perfetto
trace of the serving pipeline — admission → batch window (the wait for
a free engine) → engine → respond spans per request — plus a manifest
record) and release the engine. ``repro-aem serve`` wires SIGINT/SIGTERM
to that drain.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from .. import api
from ..engine.cache import ResultCache, default_cache_dir
from ..engine.core import SweepEngine
from ..telemetry import (
    ChromeTraceBuilder,
    EngineTelemetry,
    MetricsRegistry,
    SpanCollector,
    SpanContext,
    render_machine_segments,
    set_collector,
)
from ..telemetry.spans import FLOW_CAT, FLOW_NAME
from .http import ProtocolError, Request, read_request, response_bytes

#: pid for serving-pipeline tracks in exported traces (machine tracks use
#: pid 1, engine worker lanes pid 2; see repro.telemetry.perfetto).
SERVE_PID = 3

#: Request spans rotate over this many trace lanes (tids) so a long run
#: stays viewable; lanes are reused, spans never nest across requests.
TRACE_LANES = 32

#: Most queries one engine dispatch takes; the rest wait for the next.
MAX_BATCH = 64

#: Seconds a ``429`` answer's ``Retry-After`` header asks the client to wait.
RETRY_AFTER_S = 1.0

_STOP = object()


@dataclass(frozen=True)
class ServeConfig:
    """Everything the cost-oracle server needs to run.

    Attributes
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`CostServer.port` — the test harness does).
    max_pending:
        Bound on unique in-flight queries; beyond it new work gets 429.
    request_timeout:
        Per-request seconds before the *request* gives up with 504 (the
        shared evaluation keeps running for its other waiters).
    jobs, cache, cache_dir, counting:
        The engine policy, same meaning as
        :class:`~repro.engine.config.ExperimentConfig`: worker fan-out,
        the shared on-disk result cache, and whether queries default to
        payload-free counting machines (a query's explicit ``counting``
        field always wins).
    telemetry_dir:
        When set, shutdown writes ``trace.json`` — the serving pipeline,
        the engine's task lanes, and every machine run's phase spans as
        one flow-linked Perfetto trace — and appends a manifest record
        (including the served trace ids) there.

    Batching has no settings: a batch is what waits when the engine
    comes free, up to :data:`MAX_BATCH` queries.
    """

    host: str = "127.0.0.1"
    port: int = 8177
    max_pending: int = 256
    request_timeout: float = 60.0
    jobs: int = 1
    cache: bool = False
    cache_dir: str = field(default_factory=default_cache_dir)
    counting: bool = False
    telemetry_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")


class _Task:
    """One unique in-flight query: its future plus pipeline timestamps.

    Each task mints one root :class:`SpanContext` at admission — the
    trace identity every downstream layer (engine task lane, machine
    phase segments) links back to, and the id the ``/evaluate`` response
    hands the caller.
    """

    __slots__ = (
        "key", "query", "future", "lane", "span",
        "t_admit", "t_dispatch", "t_engine_start", "t_engine_end",
    )

    def __init__(self, key: str, query: dict, future: "asyncio.Future", lane: int):
        self.key = key
        self.query = query
        self.future = future
        self.lane = lane
        self.span = SpanContext.root()
        self.t_admit = 0.0
        self.t_dispatch = 0.0
        self.t_engine_start = 0.0
        self.t_engine_end = 0.0


class CostServer:
    """The asyncio cost-oracle server; see the module docstring.

    Lifecycle: ``await start()`` binds the socket and spawns the batcher;
    ``await wait_closed()`` parks until a drain completes; ``await
    shutdown()`` drains. The CLI (`repro-aem serve`) and the test/CI
    harness (:class:`repro.serve.testing.ServerThread`) both drive
    exactly this surface.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "serve_requests_total", "requests by endpoint and status",
            labels=("endpoint", "status"),
        )
        self._dedup_hits = self.metrics.counter(
            "serve_dedup_hits_total",
            "queries answered by piggybacking on an identical in-flight one",
        )
        self._rejected = self.metrics.counter(
            "serve_rejected_total", "queries refused with 429 (backpressure)"
        )
        self._batches = self.metrics.counter(
            "serve_batches_total", "engine dispatches (coalesced batches)"
        )
        self._batch_size = self.metrics.histogram(
            "serve_batch_size", "unique queries per engine dispatch"
        )
        self._latency_ms = self.metrics.histogram(
            "serve_latency_ms", "request wall time, admission to response"
        )
        self._inflight_gauge = self.metrics.gauge(
            "serve_inflight", "unique queries currently in flight"
        )
        self.engine: Optional[SweepEngine] = None
        self._engine_thread: Optional[ThreadPoolExecutor] = None
        self._tracer: Optional[ChromeTraceBuilder] = None
        self._engine_tel: Optional[EngineTelemetry] = None
        self._collector: Optional[SpanCollector] = None
        self._trace_ids: list[str] = []
        self._flow_started: set[str] = set()
        self._t0 = 0.0
        self._seq = 0
        self._lanes_named: set[int] = set()
        self._inflight: dict[str, _Task] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._batcher: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._handlers: set[asyncio.Task] = set()
        self._draining = False
        self._closed = asyncio.Event()
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        cfg = self.config
        cache = ResultCache(cfg.cache_dir) if cfg.cache else None
        self.engine = SweepEngine(jobs=cfg.jobs, cache=cache, counting=False)
        # Dispatches are serial (the batch loop awaits each), so one
        # thread carries every engine call off the event loop.
        self._engine_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._t0 = time.perf_counter()
        self._started_at = time.time()
        if cfg.telemetry_dir:
            self._tracer = ChromeTraceBuilder()
            self._tracer.process_name(SERVE_PID, "cost-oracle serving pipeline")
            # Engine task lanes and machine segments share the server's
            # trace clock: telemetry t0 is re-anchored to _t0, and the
            # ambient collector catches every SpanPhaseRecorder export
            # (worker-side segments included; the engine ships them back).
            self._engine_tel = EngineTelemetry()
            self._engine_tel.t0 = self._t0
            self.engine.telemetry = self._engine_tel
            self._collector = SpanCollector()
            set_collector(self._collector)
        self._batcher = asyncio.ensure_future(self._batch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real ephemeral one)."""
        assert self._port is not None, "server not started"
        return self._port

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Graceful drain; see the module docstring. Idempotent."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # The batcher finishes everything admitted before the sentinel.
        await self._queue.put(_STOP)
        if self._batcher is not None:
            await self._batcher
        # Answer every connection still writing its response.
        if self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)
        self._flush_telemetry()
        if self._collector is not None:
            set_collector(None)
            self._collector = None
        if self._engine_thread is not None:
            self._engine_thread.shutdown()
        if self.engine is not None:
            self.engine.close()
        self._closed.set()

    def _flush_telemetry(self) -> None:
        cfg = self.config
        if not cfg.telemetry_dir:
            return
        from ..telemetry import append_record, run_record

        if self._tracer is not None:
            if self._engine_tel is not None and self._engine_tel.spans:
                self._engine_tel.to_trace(self._tracer)
            if self._collector is not None and len(self._collector):
                render_machine_segments(
                    self._tracer, self._collector.export(), t0=self._t0
                )
            self._tracer.write(Path(cfg.telemetry_dir) / "trace.json")
        append_record(
            cfg.telemetry_dir,
            run_record(
                "serve",
                config={
                    "host": cfg.host,
                    "port": cfg.port,
                    "max_pending": cfg.max_pending,
                    "jobs": cfg.jobs,
                    "cache": cfg.cache,
                    "counting": cfg.counting,
                },
                wall_s=time.perf_counter() - self._t0,
                engine=self.engine.stats.as_dict() if self.engine else None,
                metrics=self.metrics.collect(),
                extra={
                    "traces": {
                        "count": len(self._trace_ids),
                        "trace_ids": self._trace_ids,
                    }
                },
            ),
        )

    # ------------------------------------------------------------------
    # Admission + batching.
    # ------------------------------------------------------------------
    def _default_query(self, query: Any) -> Any:
        """Apply server-level execution defaults a query didn't spell out.

        A query that is not a JSON object passes through untouched, so
        :func:`repro.api.query_key` rejects it with a ``QueryError`` (400).
        """
        if not isinstance(query, Mapping):
            return query
        q = dict(query)
        if self.config.counting and "counting" not in q:
            q["counting"] = True
        return q

    def _admit(self, q: dict, key: str) -> _Task:
        """Register one default-applied query under its key; dedups
        against in-flight identical ones.

        The caller keys the query (:meth:`_new_unique_count`) and checks
        capacity *before* calling (so multi-query requests are all-or-
        nothing) — this only ever grows ``_inflight`` by one.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self._dedup_hits.inc()
            return existing
        task = _Task(
            key, q, asyncio.get_running_loop().create_future(),
            lane=self._next_lane(),
        )
        task.t_admit = self._now()
        # A timed-out request may abandon the future; the exception is
        # still "retrieved" so the loop never logs it as unconsumed.
        task.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[key] = task
        self._inflight_gauge.set(len(self._inflight))
        if self.config.telemetry_dir:
            self._trace_ids.append(task.span.trace_id)
        self._queue.put_nowait(task)
        return task

    def _new_unique_count(self, queries: list) -> tuple[list, int]:
        """Key each query once; how many would occupy new in-flight slots.

        Returns the ``(default-applied query, key)`` pairs :meth:`_admit`
        takes, and the count. Raises :class:`api.QueryError` on a bad
        query, before anything is admitted.
        """
        keyed = []
        for query in queries:
            q = self._default_query(query)
            keyed.append((q, api.query_key(q)))
        return keyed, len({key for _, key in keyed} - self._inflight.keys())

    async def _batch_loop(self) -> None:
        """Group commit: each batch is the first waiting query plus what is
        already queued behind it (up to :data:`MAX_BATCH`), dispatched at
        once; queries that arrive during an engine call form the next
        batch."""
        queue = self._queue
        stopping = False
        while not stopping:
            task = await queue.get()
            if task is _STOP:
                break
            batch = [task]
            while len(batch) < MAX_BATCH and not queue.empty():
                nxt = queue.get_nowait()
                if nxt is _STOP:
                    stopping = True
                    break
                batch.append(nxt)
            await self._run_batch(batch)

    async def _run_batch(self, batch: list) -> None:
        loop = asyncio.get_running_loop()
        now = self._now()
        for task in batch:
            task.t_dispatch = now
        self._batches.inc()
        self._batch_size.observe(len(batch))
        queries = [task.query for task in batch]
        spans = [task.span for task in batch]
        engine = self.engine
        try:
            results = await loop.run_in_executor(
                self._engine_thread,
                lambda: api.sweep(queries, engine=engine, spans=spans),
            )
        except Exception as exc:
            done = self._now()
            for task in batch:
                task.t_engine_start, task.t_engine_end = now, done
                if not task.future.done():
                    task.future.set_exception(exc)
        else:
            done = self._now()
            for task, result in zip(batch, results):
                task.t_engine_start, task.t_engine_end = now, done
                if not task.future.done():
                    task.future.set_result(result)
        finally:
            for task in batch:
                self._inflight.pop(task.key, None)
            self._inflight_gauge.set(len(self._inflight))

    # ------------------------------------------------------------------
    # HTTP surface.
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        handler = asyncio.current_task()
        if handler is not None:
            self._handlers.add(handler)
        try:
            try:
                req = await asyncio.wait_for(
                    read_request(reader), self.config.request_timeout
                )
            except (ProtocolError, asyncio.TimeoutError) as exc:
                status = 408 if isinstance(exc, asyncio.TimeoutError) else 400
                # No request line to name an endpoint by: counted as "-".
                self._requests.labels(endpoint="-", status=str(status)).inc()
                writer.write(response_bytes(status, {"error": str(exc) or "timeout"}))
                await writer.drain()
                return
            if req is None:
                return
            status, payload, headers = await self._dispatch(req)
            endpoint = req.path.partition("?")[0]
            self._requests.labels(endpoint=endpoint, status=str(status)).inc()
            writer.write(response_bytes(status, payload, headers=headers))
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-response; nothing to answer
        finally:
            if handler is not None:
                self._handlers.discard(handler)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, req: Request) -> tuple[int, Any, Optional[dict]]:
        path, _, query_string = req.path.partition("?")
        route = (req.method, path)
        if route == ("GET", "/healthz"):
            return 200, {"ok": True, "draining": self._draining}, None
        if route == ("GET", "/metrics"):
            return self._metrics_response(req, query_string)
        if route == ("GET", "/stats"):
            return 200, self.stats(), None
        if route == ("GET", "/workloads"):
            return 200, api.describe_workloads(), None
        if route == ("POST", "/evaluate"):
            return await self._evaluate(req)
        if path in ("/healthz", "/metrics", "/stats", "/workloads", "/evaluate"):
            return 405, {"error": f"method {req.method} not allowed on {path}"}, None
        return 404, {"error": f"no route {req.method} {path}"}, None

    def _metrics_response(
        self, req: Request, query_string: str
    ) -> tuple[int, Any, Optional[dict]]:
        """`/metrics` content negotiation: JSON (default) or Prometheus text.

        ``?format=prometheus|text`` wins; otherwise an ``Accept`` header
        naming ``text/plain`` (and not JSON first) selects the text
        exposition. ``?format=json`` forces JSON regardless of Accept.
        """
        from urllib.parse import parse_qs

        fmt = (parse_qs(query_string).get("format") or [""])[0].lower()
        if fmt in ("prometheus", "text"):
            want_text = True
        elif fmt == "json":
            want_text = False
        elif fmt:
            return 400, {"error": f"unknown metrics format {fmt!r}"}, None
        else:
            accept = req.headers.get("accept", "")
            want_text = "text/plain" in accept and "application/json" not in accept
        if want_text:
            return 200, self.metrics.render_prometheus(), None
        return 200, self.metrics.collect(), None

    async def _evaluate(self, req: Request) -> tuple[int, Any, Optional[dict]]:
        t_arrive = self._now()
        try:
            payload = req.json()
        except ProtocolError as exc:
            return 400, {"error": str(exc)}, None
        batched = isinstance(payload, Mapping) and "queries" in payload
        if batched:
            queries = payload["queries"]
            if not isinstance(queries, list) or not queries:
                return 400, {"error": "'queries' must be a non-empty list"}, None
        else:
            queries = [payload]
        if self._draining:
            return 503, {"error": "server is draining"}, None
        try:
            keyed, new_slots = self._new_unique_count(queries)
        except api.QueryError as exc:
            return 400, {"error": str(exc)}, None
        if len(self._inflight) + new_slots > self.config.max_pending:
            self._rejected.inc()
            return (
                429,
                {
                    "error": "admission queue is full",
                    "pending": len(self._inflight),
                    "max_pending": self.config.max_pending,
                },
                {"retry-after": f"{RETRY_AFTER_S:g}"},
            )
        tasks = [self._admit(q, key) for q, key in keyed]
        try:
            results = await asyncio.wait_for(
                asyncio.gather(*(asyncio.shield(t.future) for t in tasks)),
                self.config.request_timeout,
            )
        except asyncio.TimeoutError:
            return 504, {"error": "evaluation timed out"}, None
        except api.QueryError as exc:
            return 400, {"error": str(exc)}, None
        except Exception as exc:
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, None
        t_done = self._now()
        self._latency_ms.observe((t_done - t_arrive) / 1000.0)
        for task in tasks:
            self._trace_request(task, t_arrive, t_done)
        records = [dict(r) for r in results]
        keys = [t.key for t in tasks]
        if batched:
            return 200, {
                "results": records,
                "keys": keys,
                "spans": [t.span.as_dict() for t in tasks],
            }, None
        return 200, {
            "result": records[0],
            "key": keys[0],
            "span": tasks[0].span.as_dict(),
        }, None

    # ------------------------------------------------------------------
    # Introspection + tracing.
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The `/stats` payload: serving counters + engine/cache stats."""
        engine = self.engine
        cache = engine.cache if engine is not None else None
        return {
            "uptime_s": time.perf_counter() - self._t0,
            "draining": self._draining,
            "inflight": len(self._inflight),
            "requests": {
                "dedup_hits": self._dedup_hits.labels().as_value(),
                "rejected": self._rejected.labels().as_value(),
                "batches": self._batches.labels().as_value(),
                "batch_size": self._batch_size.labels().summary((0.5, 0.95, 0.99)),
                "latency_ms": self._latency_ms.labels().summary((0.5, 0.95, 0.99)),
            },
            "engine": engine.stats.as_dict() if engine is not None else None,
            "cache": cache.stats.as_dict() if cache is not None else None,
        }

    def _now(self) -> float:
        """Wall microseconds since server start (the trace clock)."""
        return (time.perf_counter() - self._t0) * 1e6

    def _next_lane(self) -> int:
        self._seq += 1
        return (self._seq - 1) % TRACE_LANES + 1

    def _trace_request(self, task: _Task, t_arrive: float, t_done: float) -> None:
        """Emit the admission → batch window → engine → respond spans."""
        if self._tracer is None:
            return
        tid = task.lane
        if tid not in self._lanes_named:
            self._tracer.thread_name(SERVE_PID, tid, f"request lane {tid}")
            self._lanes_named.add(tid)
        spans = (
            ("admission", t_arrive, task.t_admit or task.t_dispatch),
            ("batch window", task.t_admit or t_arrive, task.t_dispatch),
            ("engine", task.t_engine_start, task.t_engine_end),
            ("respond", task.t_engine_end, t_done),
        )
        for name, start, end in spans:
            if end >= start:
                self._tracer.complete(
                    name, start, end - start, pid=SERVE_PID, tid=tid,
                    cat="serve", args={
                        "key": task.key[:16],
                        "trace_id": task.span.trace_id,
                        "span_id": task.span.span_id,
                    },
                )
        # Flow origin: the 's' arrow leaves this lane's "engine" span and
        # lands on the engine-task 't', then the machine segment's 'f'.
        # Dedup-shared tasks reach here once per waiting request; a flow
        # id must open exactly once.
        flow_id = task.span.flow_id
        if flow_id not in self._flow_started:
            self._flow_started.add(flow_id)
            self._tracer.flow_start(
                FLOW_NAME, task.t_engine_start, id=flow_id,
                pid=SERVE_PID, tid=tid, cat=FLOW_CAT,
            )
