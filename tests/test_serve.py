"""The cost-oracle server: dedup, batching, backpressure, drain, parity.

The acceptance surface: N identical concurrent queries cost exactly one
engine evaluation; batch coalescing preserves per-request results;
queries that queue during an engine call dispatch together as the next
batch (group commit), at most ``MAX_BATCH`` to a dispatch; saturation
answers 429 with Retry-After; shutdown drains cleanly (the in-process
path and the real SIGTERM path, also with a query still in the engine);
a body that is not a JSON object is a counted 400; and every served
answer is bit-for-bit the direct ``repro.api.evaluate`` result.

Tests that need queries to wait in flight hold the engine with
:class:`repro.serve.testing.EngineHold`, entered inside the server's
``with`` so it is released before the drain. The CLI SIGTERM test runs
its server in a subprocess, so it sends a query that keeps the engine
busy for half a second or more instead.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.serve import (
    BenchConfig,
    ProtocolError,
    ServeConfig,
    ServerThread,
    render_report,
    run_bench,
)
from repro.serve.server import MAX_BATCH, RETRY_AFTER_S
from repro.serve.testing import EngineHold

QUERY = {"workload": "sort", "n": 512, "M": 64, "B": 8, "omega": 4}


def serve_config(**overrides) -> ServeConfig:
    defaults = dict(port=0, counting=True)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _wait_for_stats(host: str, port: int, ready, what: str) -> None:
    """Poll ``/stats`` until ``ready(stats)`` holds."""
    import repro.serve.http as http

    deadline = time.time() + 10
    while time.time() < deadline:
        if ready(http.request(host, port, "GET", "/stats").json()):
            return
        time.sleep(0.005)
    pytest.fail(f"{what} never happened")


def _wait_until_inflight(host: str, port: int, n: int) -> None:
    """Poll ``/stats`` until ``n`` unique queries are in flight."""
    _wait_for_stats(
        host, port, lambda s: s["inflight"] >= n, f"{n} queries in flight"
    )


def _wait_until_admitted(host: str, port: int, n: int) -> None:
    """Poll ``/stats`` until ``n`` requests are in flight or deduped onto
    one that is."""
    _wait_for_stats(
        host, port,
        lambda s: s["inflight"] + s["requests"]["dedup_hits"] >= n,
        f"{n} requests admitted",
    )


@contextlib.contextmanager
def _cli_server(*flags: str):
    """Run ``repro-aem serve`` on an ephemeral port with ``flags``.

    Yields the process and the port its startup line names. On exit a
    process still running is killed, and its stderr pipe is closed.
    """
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"}
    with subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--counting", "--no-cache", *flags,
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    ) as proc:
        try:
            line = proc.stderr.readline()
            assert "listening on" in line
            yield proc, int(line.split("http://127.0.0.1:")[1].split(" ")[0])
        finally:
            if proc.poll() is None:
                proc.kill()


@pytest.fixture(scope="module")
def server():
    with ServerThread(serve_config()) as srv:
        yield srv


# ----------------------------------------------------------------------
# Plumbing endpoints.
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_healthz(self, server):
        resp = server.get("/healthz")
        assert resp.status == 200
        assert resp.json() == {"ok": True, "draining": False}

    def test_workloads_schema_matches_api(self, server):
        resp = server.get("/workloads")
        assert resp.status == 200
        assert resp.json() == json.loads(json.dumps(api.describe_workloads()))

    def test_metrics_and_stats(self, server):
        server.post("/evaluate", QUERY)
        metrics = server.get("/metrics").json()
        assert "serve_requests_total" in metrics
        stats = server.get("/stats").json()
        assert stats["engine"]["measurements"] >= 1
        assert stats["requests"]["latency_ms"]["count"] >= 1

    def test_metrics_prometheus_via_query_param(self, server):
        server.post("/evaluate", QUERY)
        resp = server.get("/metrics?format=prometheus")
        assert resp.status == 200
        assert resp.headers["content-type"].startswith("text/plain")
        text = resp.body.decode("utf-8")
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_requests_total{" in text
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)

    def test_metrics_prometheus_via_accept_header(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request("GET", "/metrics", headers={"Accept": "text/plain"})
            resp = conn.getresponse()
            body = resp.read().decode("utf-8")
        finally:
            conn.close()
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("text/plain")
        assert "# TYPE" in body

    def test_metrics_format_json_forces_json(self, server):
        resp = server.get("/metrics?format=json")
        assert resp.status == 200
        assert resp.headers["content-type"] == "application/json"
        assert "serve_requests_total" in resp.json()

    def test_metrics_unknown_format_400(self, server):
        resp = server.get("/metrics?format=xml")
        assert resp.status == 400
        assert "unknown metrics format" in resp.json()["error"]

    def test_evaluate_response_carries_span(self, server):
        resp = server.post("/evaluate", QUERY)
        assert resp.status == 200
        span = resp.json()["span"]
        assert span["trace_id"] and span["span_id"]
        batched = server.post("/evaluate", {"queries": [QUERY, QUERY]})
        spans = batched.json()["spans"]
        assert len(spans) == 2
        assert all(s["trace_id"] for s in spans)

    def test_unknown_route_404(self, server):
        assert server.post("/nope", {}).status == 404

    def test_wrong_method_405(self, server):
        assert server.get("/evaluate").status == 405
        assert server.post("/healthz", {}).status == 405

    def test_bad_json_400(self, server):
        import repro.serve.http as http

        raw = http.request(server.host, server.port, "POST", "/evaluate")
        assert raw.status == 400

    def test_bad_query_400(self, server):
        resp = server.post("/evaluate", {"workload": "nope"})
        assert resp.status == 400
        assert "unknown workload" in resp.json()["error"]


# ----------------------------------------------------------------------
# Parity: the server is a transparent front-end over repro.api.
# ----------------------------------------------------------------------
class TestParity:
    def test_served_answer_matches_direct_evaluate(self, server):
        resp = server.post("/evaluate", QUERY)
        assert resp.status == 200
        body = resp.json()
        direct = api.evaluate("sort", QUERY, counting=True)
        assert body["result"] == json.loads(json.dumps(dict(direct)))
        assert body["key"] == api.query_key({**QUERY, "counting": True})

    def test_counting_policy_injected_like_engine_policy(self, server):
        # The module server runs counting=True: an unspecified query gets
        # the counting key, an explicit counting=False keeps its own.
        body = server.post("/evaluate", QUERY).json()
        assert body["key"] == api.query_key({**QUERY, "counting": True})
        explicit = server.post(
            "/evaluate", {**QUERY, "counting": False}
        ).json()
        assert explicit["key"] == api.query_key({**QUERY, "counting": False})
        assert explicit["result"] == body["result"]  # same costs either way


# ----------------------------------------------------------------------
# Dedup + batching.
# ----------------------------------------------------------------------
class TestDedupAndBatching:
    def test_identical_concurrent_queries_run_once(self):
        n = 12
        query = {**QUERY, "n": 768}
        with ServerThread(serve_config()) as srv:
            with concurrent.futures.ThreadPoolExecutor(n) as pool, EngineHold() as hold:
                futures = [pool.submit(srv.post, "/evaluate", query) for _ in range(n)]
                _wait_until_admitted(srv.host, srv.port, n)
                hold.release()
                responses = [f.result(timeout=60) for f in futures]
            assert [r.status for r in responses] == [200] * n
            bodies = [r.json() for r in responses]
            assert all(b == bodies[0] for b in bodies)
            stats = srv.get("/stats").json()
            assert stats["engine"]["executed"] == 1
            assert stats["requests"]["dedup_hits"] == n - 1

    def test_batch_coalesces_but_preserves_per_request_results(self):
        sizes = [256, 320, 384, 448, 512, 576]
        queries = [{**QUERY, "n": n} for n in sizes]
        with ServerThread(serve_config()) as srv:
            with concurrent.futures.ThreadPoolExecutor(len(queries)) as pool, \
                    EngineHold() as hold:
                futures = [pool.submit(srv.post, "/evaluate", q) for q in queries]
                _wait_until_inflight(srv.host, srv.port, len(queries))
                hold.release()
                responses = [f.result(timeout=60) for f in futures]
            assert [r.status for r in responses] == [200] * len(queries)
            direct = [dict(api.evaluate("sort", q, counting=True)) for q in queries]
            for resp, expected in zip(responses, direct):
                assert resp.json()["result"] == json.loads(json.dumps(expected))
            stats = srv.get("/stats").json()
            # Six distinct queries in flight behind one engine call: fewer
            # dispatches than queries proves coalescing; per-request
            # bodies prove routing.
            assert stats["requests"]["batches"] < len(queries)
            assert stats["engine"]["executed"] == len(queries)

    def test_bad_generator_name_cannot_fail_its_batch(self):
        # An unknown distribution is a 400 at admission; it never joins
        # (and so never fails) the batch its neighbour waits for.
        with ServerThread(serve_config()) as srv:
            with concurrent.futures.ThreadPoolExecutor(2) as pool, EngineHold() as hold:
                busy = pool.submit(srv.post, "/evaluate", {**QUERY, "n": 520})
                hold.wait_entered()
                good = pool.submit(srv.post, "/evaluate", QUERY)
                _wait_until_inflight(srv.host, srv.port, 2)
                bad = srv.post("/evaluate", {**QUERY, "distribution": "bogus"})
                hold.release()
                responses = [bad, good.result(timeout=60), busy.result(timeout=60)]
            assert [r.status for r in responses] == [400, 200, 200]
            assert "'distribution' must be one of" in responses[0].json()["error"]

    def test_multi_query_request_keeps_order(self, server):
        queries = [
            {**QUERY, "n": 128},
            {"workload": "permute", "n": 64, "M": 64, "B": 8, "omega": 4},
            {**QUERY, "n": 192},
        ]
        resp = server.post("/evaluate", {"queries": queries})
        assert resp.status == 200
        results = resp.json()["results"]
        direct = [
            dict(api.evaluate(q["workload"], q, counting=True)) for q in queries
        ]
        assert results == json.loads(json.dumps(direct))

    def test_each_query_keyed_once_per_request(self, server, monkeypatch):
        keyed = []
        query_key = api.query_key

        def counted(query):
            keyed.append(query)
            return query_key(query)

        monkeypatch.setattr(api, "query_key", counted)
        queries = [{**QUERY, "n": n} for n in (136, 144, 152)]
        resp = server.post("/evaluate", {"queries": queries})
        assert resp.status == 200
        assert len(keyed) == len(queries)

    def test_empty_batch_rejected(self, server):
        assert server.post("/evaluate", {"queries": []}).status == 400


# ----------------------------------------------------------------------
# Group commit: a batch dispatches as soon as the engine is free.
# ----------------------------------------------------------------------
class TestGroupCommit:
    def test_zero_window_dispatches_a_multi_query_request_as_one_batch(self):
        with ServerThread(serve_config()) as srv:
            queries = [{**QUERY, "n": n} for n in (200, 208, 216, 224)]
            resp = srv.post("/evaluate", {"queries": queries})
            assert resp.status == 200
            requests = srv.get("/stats").json()["requests"]
        assert requests["batches"] == 1
        assert (requests["batch_size"]["count"], requests["batch_size"]["max"]) == (1, 4)

    def test_queries_arriving_during_an_engine_call_form_the_next_batch(self):
        queries = [{**QUERY, "n": n} for n in (232, 240, 248, 256)]
        with ServerThread(serve_config()) as srv:
            with concurrent.futures.ThreadPoolExecutor(len(queries)) as pool, \
                    EngineHold() as hold:
                futures = [pool.submit(srv.post, "/evaluate", queries[0])]
                hold.wait_entered()
                futures += [
                    pool.submit(srv.post, "/evaluate", q) for q in queries[1:]
                ]
                _wait_until_inflight(srv.host, srv.port, len(queries))
                hold.release()
                responses = [f.result(timeout=60) for f in futures]
            requests = srv.get("/stats").json()["requests"]
        # The held dispatch took the first query alone; the other three
        # queued behind it and went together.
        sizes = requests["batch_size"]
        assert (requests["batches"], sizes["max"], sizes["sum"]) == (2, 3, 4)
        assert [r.status for r in responses] == [200] * len(queries)
        for resp, query in zip(responses, queries):
            direct = api.evaluate("sort", query, counting=True)
            assert resp.json()["result"] == json.loads(json.dumps(dict(direct)))

    def test_engine_calls_run_on_one_server_thread(self, monkeypatch):
        threads = []
        sweep = api.sweep

        def recording_sweep(queries, **kwargs):
            threads.append(threading.current_thread())
            return sweep(queries, **kwargs)

        monkeypatch.setattr(api, "sweep", recording_sweep)
        queries = [{**QUERY, "n": n} for n in (264, 272, 280, 288)]
        with ServerThread(serve_config()) as srv:
            with concurrent.futures.ThreadPoolExecutor(len(queries)) as pool:
                statuses = [
                    r.status for r in pool.map(
                        lambda q: srv.post("/evaluate", q), queries
                    )
                ]
        assert statuses == [200] * len(queries)
        assert len(threads) >= 1 and len(set(threads)) == 1
        assert threads[0].name.startswith("repro-serve-engine")
        assert not threads[0].is_alive(), "the engine thread outlived the drain"

    def test_a_request_over_the_batch_cap_dispatches_as_two_batches(self):
        queries = [{**QUERY, "n": 16 + i} for i in range(MAX_BATCH + 1)]
        with ServerThread(serve_config()) as srv:
            resp = srv.post("/evaluate", {"queries": queries})
            assert resp.status == 200
            requests = srv.get("/stats").json()["requests"]
        sizes = requests["batch_size"]
        assert (requests["batches"], sizes["max"], sizes["sum"]) == (
            2, MAX_BATCH, MAX_BATCH + 1
        )
        direct = [dict(api.evaluate("sort", q, counting=True)) for q in queries]
        assert resp.json()["results"] == json.loads(json.dumps(direct))


# ----------------------------------------------------------------------
# Backpressure + timeouts.
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_saturation_answers_429_with_retry_after(self):
        with ServerThread(serve_config(max_pending=1)) as srv:
            with concurrent.futures.ThreadPoolExecutor(2) as pool, EngineHold() as hold:
                first = pool.submit(srv.post, "/evaluate", QUERY, timeout=60)
                _wait_until_inflight(srv.host, srv.port, 1)
                resp = srv.post("/evaluate", {**QUERY, "n": 999})
                assert resp.status == 429
                assert resp.headers["retry-after"] == f"{RETRY_AFTER_S:g}"
                assert resp.json()["max_pending"] == 1
                stats = srv.get("/stats").json()
                assert stats["requests"]["rejected"] == 1
                # The identical in-flight query still dedups instead of 429ing.
                again = pool.submit(srv.post, "/evaluate", QUERY, timeout=60)
                _wait_until_admitted(srv.host, srv.port, 2)
                hold.release()
                responses = [first.result(timeout=60), again.result(timeout=60)]
            assert [r.status for r in responses] == [200, 200]

    def test_slow_evaluation_times_out_with_504(self):
        config = serve_config(request_timeout=0.1)
        with ServerThread(config) as srv, EngineHold():
            t0 = time.perf_counter()
            resp = srv.post("/evaluate", QUERY, timeout=30)
            assert resp.status == 504
            assert time.perf_counter() - t0 < 5.0  # gave up, not drained


# ----------------------------------------------------------------------
# Drain.
# ----------------------------------------------------------------------
class TestDrain:
    def test_stop_finishes_admitted_queries(self):
        srv = ServerThread(serve_config()).start()
        with concurrent.futures.ThreadPoolExecutor(2) as pool, EngineHold() as hold:
            pending = pool.submit(srv.post, "/evaluate", QUERY, timeout=30)
            _wait_until_inflight(srv.host, srv.port, 1)
            # The drain starts while the query is held in the engine, and
            # must wait for it.
            stopping = pool.submit(srv.stop)
            deadline = time.time() + 10
            while not srv.server._draining and time.time() < deadline:
                time.sleep(0.005)
            assert srv.server._draining, "the drain never started"
            assert not stopping.done()
            hold.release()
            stopping.result(timeout=60)
            resp = pending.result(timeout=60)
        assert resp.status == 200
        with pytest.raises(OSError):
            socket.create_connection((srv.host, srv.port), timeout=0.5)

    def test_sigterm_drains_the_cli_server(self, tmp_path):
        import repro.serve.http as http

        with _cli_server("--telemetry-dir", str(tmp_path)) as (proc, port):
            assert http.request("127.0.0.1", port, "GET", "/healthz").status == 200
            proc.send_signal(signal.SIGTERM)
            out = proc.stderr.read()
            assert proc.wait(timeout=30) == 0
            assert "drained" in out
        # The drain flushed serving telemetry: a trace + a manifest line.
        assert (tmp_path / "trace.json").exists()
        record = json.loads((tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
        assert record["command"] == "serve"

    def test_sigterm_while_a_query_is_held_answers_it(self):
        import repro.serve.http as http

        # The server runs in another process, so nothing can hold its
        # engine: this query keeps it busy for half a second or more.
        slow = {**QUERY, "n": 60_000}
        with _cli_server() as (proc, port):
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                pending = pool.submit(
                    http.request, "127.0.0.1", port, "POST", "/evaluate", slow,
                    timeout=30,
                )
                _wait_until_inflight("127.0.0.1", port, 1)
                proc.send_signal(signal.SIGTERM)  # the query is in the engine
                resp = pending.result(timeout=60)
            assert proc.wait(timeout=30) == 0
            out = proc.stderr.read()
        assert resp.status == 200
        direct = api.evaluate("sort", slow, counting=True)
        assert resp.json()["result"] == json.loads(json.dumps(dict(direct)))
        assert "drained" in out


# ----------------------------------------------------------------------
# The load generator.
# ----------------------------------------------------------------------
class TestServeBench:
    def test_bench_reports_percentiles_and_dedup(self):
        with ServerThread(serve_config()) as srv:
            report = run_bench(
                BenchConfig(
                    host=srv.host,
                    port=srv.port,
                    requests=60,
                    rate=2000.0,
                    burst=12,
                    distinct=3,
                    n_base=128,
                    seed=7,
                )
            )
        assert report["completed"] == report["sent"] == 60
        assert report["statuses"] == {"200": 60}
        for q in ("p50", "p95", "p99"):
            assert report["latency_ms"][q] > 0
        assert report["server"]["dedup_hits"] > 0
        assert report["server"]["dedup_hit_rate"] > 0
        assert report["metrics"]["bench_latency_all_ms"]["series"]
        text = render_report(report)
        assert "p99=" in text and "dedup:" in text

    def test_trace_spans_cover_the_pipeline(self, tmp_path):
        from repro.telemetry import validate_trace

        config = serve_config(telemetry_dir=str(tmp_path))
        with ServerThread(config) as srv:
            srv.post("/evaluate", QUERY)
        trace = json.loads((tmp_path / "trace.json").read_text())
        validate_trace(trace)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"admission", "batch window", "engine", "respond"} <= names


# ----------------------------------------------------------------------
# HTTP plumbing corners.
# ----------------------------------------------------------------------
def _raw_exchange(server, raw: bytes) -> bytes:
    """Send ``raw``, close the sending side, and read the answer to EOF."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestHttpPlumbing:
    def test_oversized_body_rejected(self, server):
        import repro.serve.http as http

        with pytest.raises(ProtocolError, match="out of range"):
            http._content_length({"content-length": str(http.MAX_BODY_BYTES + 1)})

    def test_chunked_rejected(self):
        import repro.serve.http as http

        with pytest.raises(ProtocolError, match="chunked"):
            http._content_length({"transfer-encoding": "chunked"})

    def test_garbage_request_line_gets_400(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"NOT A REQUEST\r\n\r\n")
            data = sock.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]

    def test_truncated_body_gets_400_and_the_server_keeps_serving(self, server):
        # The client declares 100 body bytes, sends 7, then closes its
        # sending side while it still reads the answer.
        data = _raw_exchange(
            server,
            b"POST /evaluate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"sort\"",
        )
        assert data.split(b"\r\n", 1)[0].split(b" ")[1] == b"400"
        assert b"connection closed mid-body" in data
        assert server.get("/healthz").json() == {"ok": True, "draining": False}

    @pytest.mark.parametrize(
        "raw", ["1_0", "+10", "\u0661\u0660"], ids=["underscore", "plus", "non-ascii"]
    )
    def test_content_length_takes_ascii_digits_only(self, raw):
        import repro.serve.http as http

        assert int(raw) == 10  # what the header must not be read as
        with pytest.raises(ProtocolError, match="bad Content-Length"):
            http._content_length({"content-length": raw})

    def test_malformed_requests_are_counted_in_metrics(self):
        with ServerThread(serve_config()) as srv:
            for raw in (
                b"NOT A REQUEST\r\n\r\n",
                b"POST /evaluate HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n{}",
            ):
                data = _raw_exchange(srv, raw)
                assert data.split(b"\r\n", 1)[0].split(b" ")[1] == b"400"
            series = srv.get("/metrics").json()["serve_requests_total"]["series"]
        counts = {
            (s["labels"]["endpoint"], s["labels"]["status"]): s["value"] for s in series
        }
        assert counts[("-", "400")] == 2

    def test_a_query_that_is_not_a_json_object_gets_400(self):
        bodies = [
            b"[1, 2]", b"42", b'"abc"', b"null",
            b'{"queries": [1, 2]}', b'{"queries": ["ab"]}',
        ]
        with ServerThread(serve_config()) as srv:
            for body in bodies:
                data = _raw_exchange(
                    srv,
                    b"POST /evaluate HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                    % (len(body), body),
                )
                assert data.split(b"\r\n", 1)[0].split(b" ")[1] == b"400", body
                assert b"query must be a JSON object" in data, body
            assert srv.get("/healthz").status == 200
            series = srv.get("/metrics").json()["serve_requests_total"]["series"]
        counts = {
            (s["labels"]["endpoint"], s["labels"]["status"]): s["value"] for s in series
        }
        assert counts[("/evaluate", "400")] == len(bodies)

    def test_explicit_content_length_zero_yields_empty_body(self):
        # Regression: `rest[:0] or rest` used to hand back the *entire*
        # trailing buffer when the server declared an empty body.
        import repro.serve.http as http

        raw = (
            b"HTTP/1.1 204 No Content\r\n"
            b"content-length: 0\r\n"
            b"connection: close\r\n\r\n"
            b"trailing junk that must not become the body"
        )
        resp = http._parse_response(raw)
        assert resp.status == 204
        assert resp.body == b""
        assert resp.json() is None

    def test_declared_content_length_truncates_to_framing(self):
        import repro.serve.http as http

        raw = (
            b"HTTP/1.1 200 OK\r\n"
            b"content-length: 4\r\n\r\n"
            b"bodyEXTRA"
        )
        assert http._parse_response(raw).body == b"body"

    def test_missing_content_length_reads_to_eof(self):
        # Legacy framing (Connection: close without a length header) must
        # keep returning the whole remaining buffer.
        import repro.serve.http as http

        raw = b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\nwhole body"
        assert http._parse_response(raw).body == b"whole body"
