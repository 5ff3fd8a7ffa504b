#!/usr/bin/env python
"""CI smoke for the cost-oracle serving layer.

Boots a real server (ephemeral port, counting mode), then asserts the
serving layer's acceptance surface end to end:

1. every served answer is bit-for-bit the direct ``repro.api.evaluate``
   result (same CostRecord fields, same values);
2. identical concurrent queries dedup to exactly one engine evaluation
   (dedup counters nonzero, executed == unique configs); the engine is
   held (:class:`repro.serve.testing.EngineHold`) until every request
   is in flight, so the count does not depend on thread timing;
3. the bundled load generator reports latency percentiles and a nonzero
   dedup hit-rate under bursty zipfian traffic;
4. the drain path leaves the engine stats consistent (requests served ==
   dedup hits + engine measurements);
5. malformed traffic (a body cut short, a ``Content-Length: 1_0``) gets
   a 400, leaves the server healthy, and is counted in ``/metrics``; so
   does a body that is valid JSON but not a query object.

Run as ``PYTHONPATH=src python scripts/serve_smoke.py``. Exits non-zero
on any violation.
"""

from __future__ import annotations

import concurrent.futures
import json
import socket
import sys
import time

from repro import api
from repro.serve import BenchConfig, ServeConfig, ServerThread, render_report, run_bench
from repro.serve.testing import EngineHold

QUERIES = [
    {"workload": "sort", "n": 512, "M": 64, "B": 8, "omega": 4},
    {"workload": "permute", "n": 256, "M": 64, "B": 8, "omega": 4},
    {"workload": "spmxv", "n": 64, "delta": 2, "M": 64, "B": 8, "omega": 4},
    {"workload": "index_build", "n": 400, "M": 64, "B": 8, "omega": 4},
    {
        "workload": "search_query",
        "n": 400,
        "n_queries": 20,
        "M": 64,
        "B": 8,
        "omega": 4,
    },
]


def fail(msg: str) -> None:
    print(f"serve smoke FAILED: {msg}", file=sys.stderr)
    raise SystemExit(1)


def _wait_until_admitted(srv: ServerThread, n: int) -> None:
    """Poll ``/stats`` until ``n`` requests are in flight or deduped onto
    one that is."""
    deadline = time.time() + 30
    while time.time() < deadline:
        stats = srv.get("/stats").json()
        if stats["inflight"] + stats["requests"]["dedup_hits"] >= n:
            return
        time.sleep(0.005)
    fail(f"{n} requests were never all admitted")


def check_parity_and_dedup() -> None:
    fanout = 8
    requests = fanout * len(QUERIES)
    with ServerThread(ServeConfig(port=0, counting=True)) as srv:
        with concurrent.futures.ThreadPoolExecutor(requests) as pool, \
                EngineHold() as hold:
            futures = [
                pool.submit(srv.post, "/evaluate", q)
                for q in QUERIES
                for _ in range(fanout)
            ]
            _wait_until_admitted(srv, requests)
            hold.release()
            responses = [f.result() for f in futures]
        statuses = sorted({r.status for r in responses})
        if statuses != [200]:
            fail(f"expected all 200s, saw statuses {statuses}")
        # Snapshot the counters before the parity re-queries below add
        # their own (uncached, so re-executed) evaluations.
        stats = srv.get("/stats").json()

        # 1. bit-for-bit parity with the direct facade call.
        for query in QUERIES:
            served = srv.post("/evaluate", query).json()["result"]
            direct = dict(api.evaluate(query["workload"], query, counting=True))
            if served != json.loads(json.dumps(direct)):
                fail(f"server answer diverges from api.evaluate for {query}:\n"
                     f"  served: {served}\n  direct: {direct}")
    executed = stats["engine"]["executed"]
    dedup = stats["requests"]["dedup_hits"]

    # 2. dedup collapsed the fan-out to one evaluation per unique config.
    if executed != len(QUERIES):
        fail(f"expected {len(QUERIES)} engine evaluations, got {executed}")
    if dedup == 0:
        fail("dedup counter is zero under identical concurrent queries")

    # 4. request accounting balances.
    served = dedup + stats["engine"]["measurements"]
    if served < requests:
        fail(f"accounting leak: dedup+measurements={served} < "
             f"{requests} evaluate requests")
    print(
        f"parity+dedup OK: {executed} executed, {dedup} dedup hit(s), "
        f"batches={stats['requests']['batches']}"
    )


def check_bench() -> None:
    with ServerThread(ServeConfig(port=0, counting=True)) as srv:
        report = run_bench(
            BenchConfig(
                host=srv.host,
                port=srv.port,
                requests=80,
                rate=2000.0,
                burst=10,
                distinct=4,
                n_base=128,
                seed=11,
            )
        )
    print(render_report(report))
    if report["completed"] != report["sent"]:
        fail(f"bench lost requests: {report['completed']}/{report['sent']}")
    for q in ("p50", "p95", "p99"):
        if report["latency_ms"].get(q, 0) <= 0:
            fail(f"bench reported no {q} latency")
    if report["server"]["dedup_hit_rate"] <= 0:
        fail("bench saw a zero dedup hit-rate on zipfian traffic")


def check_search() -> None:
    """The search workloads on a tiny corpus: counting==full parity.

    The server boots in counting mode, so the parity loop in
    :func:`check_parity_and_dedup` already pins served-vs-direct
    bit-identity for ``index_build`` and ``search_query``; this check
    adds the other leg — the counting machine's CostRecord must equal
    the full machine's for the same corpus and query stream.
    """
    for query in QUERIES:
        if query["workload"] not in ("index_build", "search_query"):
            continue
        full = dict(api.evaluate(query["workload"], query, counting=False))
        fast = dict(api.evaluate(query["workload"], query, counting=True))
        if full != fast:
            fail(f"counting/full cost divergence for {query}:\n"
                 f"  full:     {full}\n  counting: {fast}")
    print("search counting parity OK: index_build + search_query")


#: Requests the server must answer 400, each on its own connection: a
#: body closed after 7 of its 100 declared bytes, and a Content-Length
#: that only ``int()`` would accept. Neither has a route to count under.
MALFORMED = (
    b"POST /evaluate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"sort\"",
    b"POST /evaluate HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n{}",
)

#: Well-formed requests whose JSON body is not a query object: a 400
#: counted under ``/evaluate``.
NOT_OBJECTS = (
    b"POST /evaluate HTTP/1.1\r\nContent-Length: 6\r\n\r\n[1, 2]",
    b"POST /evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\nnull",
)


def _raw_exchange(srv: ServerThread, raw: bytes) -> bytes:
    """Send ``raw``, close the sending side, and read the answer to EOF."""
    with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def check_malformed() -> None:
    with ServerThread(ServeConfig(port=0, counting=True)) as srv:
        for raw in MALFORMED + NOT_OBJECTS:
            status_line = _raw_exchange(srv, raw).split(b"\r\n", 1)[0]
            if status_line.split(b" ")[1:2] != [b"400"]:
                fail(f"malformed request {raw!r} got {status_line!r}, not a 400")
        health = srv.get("/healthz")
        if health.status != 200 or not health.json().get("ok"):
            fail(f"server unhealthy after malformed traffic: {health.status}")
        series = srv.get("/metrics").json()["serve_requests_total"]["series"]
    for endpoint, sent in (("-", MALFORMED), ("/evaluate", NOT_OBJECTS)):
        counted = sum(
            s["value"]
            for s in series
            if s["labels"] == {"endpoint": endpoint, "status": "400"}
        )
        if counted != len(sent):
            fail(f'serve_requests_total{{endpoint="{endpoint}",status="400"}} '
                 f"is {counted}, expected {len(sent)}")
    print(f"malformed traffic OK: {len(MALFORMED) + len(NOT_OBJECTS)} x 400, "
          f"counted, server healthy")


def main() -> int:
    check_parity_and_dedup()
    check_search()
    check_malformed()
    check_bench()
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
