"""The ``serve`` workload: boot ``repro-aem serve``, drive it open-loop.

The server runs in its own subprocess with CLI defaults apart from an
ephemeral port and a fresh ``--cache-dir``. The load generator is the
benchmark's own: one asyncio thread, a seeded Poisson schedule, at most
:func:`~common.connections` concurrent connections, and a minimal
HTTP/1.1 client, so nothing of the program sits on the client side of
the measurement. Latency runs from a request's *due* time to its last
response byte, which charges a stall to every request queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from common import HERE, child_env, connections, peak_rss_mb_of

#: Seconds a request may take before the client gives up (a failure).
CLIENT_TIMEOUT = 30.0
#: The generator must fire every request within this many ms of its due
#: time; beyond it the run is invalid, not merely slow.
MAX_GEN_LAG_MS = 100.0
BOOT_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    setup_s: float
    started: float
    stderr_lines: list = field(default_factory=list)
    reader: Optional[threading.Thread] = None

    def stderr_text(self) -> str:
        return "".join(self.stderr_lines)


def _pump(stream, sink: list, port_box: dict, ready: threading.Event) -> None:
    for raw in iter(stream.readline, b""):
        line = raw.decode("utf-8", "replace")
        sink.append(line)
        if "listening on http://" in line and "port" not in port_box:
            addr = line.split("listening on http://", 1)[1].split()[0]
            port_box["port"] = int(addr.rsplit(":", 1)[1])
            ready.set()
    ready.set()
    stream.close()


def boot(cache_dir: Path, *, traced_out: Optional[Path] = None) -> Server:
    """Start a server; returns once ``/healthz`` answers 200.

    ``setup_s`` runs from just before the process is spawned until that
    first 200. With ``traced_out`` the benchmark's launcher installs the
    span wrappers in the server process first, then calls the same CLI
    entry point, and writes its spans there on exit.
    """
    serve_args = ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
    if traced_out is None:
        cmd = [sys.executable, "-m", "repro.cli", *serve_args]
    else:
        cmd = [
            sys.executable, str(HERE / "serve_traced.py"),
            "--out", str(traced_out), "--", *serve_args,
        ]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    lines: list = []
    port_box: dict = {}
    ready = threading.Event()
    reader = threading.Thread(
        target=_pump, args=(proc.stderr, lines, port_box, ready), daemon=True
    )
    reader.start()
    server = Server(proc, 0, 0.0, started, lines, reader)
    try:
        if not ready.wait(BOOT_TIMEOUT) or "port" not in port_box:
            raise RuntimeError("server printed no listening line")
        server.port = port_box["port"]
        deadline = started + BOOT_TIMEOUT
        while True:
            try:
                status, _ = http_get(server.port, "/healthz", timeout=1.0)
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline or proc.poll() is not None:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.002)
        server.setup_s = time.perf_counter() - started
    except BaseException:
        kill(server)
        raise
    return server


def kill(server: Server) -> None:
    if server.proc.poll() is None:
        server.proc.kill()
    server.proc.wait()
    if server.reader is not None:
        server.reader.join(5.0)


def _request_bytes(method: str, path: str, body: Optional[bytes]) -> bytes:
    body = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\nhost: 127.0.0.1\r\n"
        f"content-type: application/json\r\ncontent-length: {len(body)}\r\n"
        "connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _split_response(raw: bytes) -> tuple[int, bytes]:
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("response without a header terminator")
    status = int(head.split(b"\r\n", 1)[0].split(b" ", 2)[1])
    return status, body


def http_get(port: int, path: str, *, timeout: float = 10.0) -> tuple[int, object]:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(_request_bytes("GET", path, None))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    status, body = _split_response(b"".join(chunks))
    return status, json.loads(body) if body else None


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def drain(server: Server) -> dict:
    """Read ``/stats`` and ``/metrics``, then SIGTERM and check the drain."""
    _, stats = http_get(server.port, "/stats")
    _, metrics = http_get(server.port, "/metrics?format=json")
    wall = time.perf_counter() - server.started
    rss = peak_rss_mb_of(server.proc.pid)
    cpu = proc_cpu_s(server.proc.pid)
    server.proc.send_signal(signal.SIGTERM)
    try:
        code = server.proc.wait(DRAIN_TIMEOUT)
    except subprocess.TimeoutExpired:
        kill(server)
        code = None
    if server.reader is not None:
        server.reader.join(5.0)
    text = server.stderr_text()
    return {
        "stats": stats,
        "metrics": metrics,
        "peak_rss_mb": rss,
        "cpu_s": cpu,
        "wall_s": wall,
        "exit_code": code,
        "drained": "repro-aem serve: drained" in text,
        "stderr": text,
    }


@dataclass
class Sample:
    due: float
    body: dict
    fired: float = 0.0
    acquired: float = 0.0
    connected: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: object = None
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


async def _one(port: int, sample: Sample, slots: asyncio.Semaphore, loop) -> None:
    data = json.dumps(sample.body, sort_keys=True).encode()
    try:
        async with slots:
            sample.acquired = loop.time()
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", port), CLIENT_TIMEOUT
            )
            sample.connected = loop.time()
            try:
                writer.write(_request_bytes("POST", "/evaluate", data))
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), CLIENT_TIMEOUT)
                sample.done = loop.time()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        sample.status, body = _split_response(raw)
        sample.payload = json.loads(body) if body else None
    except (OSError, asyncio.TimeoutError, ValueError) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
        sample.done = sample.done or loop.time()


async def _drive(port: int, schedule: list) -> list[Sample]:
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(connections())
    start = loop.time() + 0.05
    samples = []
    tasks = []
    for due, body in schedule:
        sample = Sample(due=start + due, body=body)
        delay = sample.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sample.fired = loop.time()
        samples.append(sample)
        tasks.append(asyncio.ensure_future(_one(port, sample, slots, loop)))
    await asyncio.gather(*tasks)
    for sample in samples:
        sample.due -= start
        sample.fired -= start
        sample.acquired -= start
        sample.connected -= start
        sample.done -= start
    return samples


def run_load(port: int, schedule: list) -> list[Sample]:
    return asyncio.run(_drive(port, schedule))


def served_records(sample: Sample) -> list[tuple[dict, dict]]:
    """``[(query, served record)]`` of a 200 response, in request order."""
    payload = sample.payload
    if "queries" in sample.body:
        return list(zip(sample.body["queries"], payload["results"]))
    return [(sample.body, payload["result"])]


def sample_failed(sample: Sample) -> bool:
    if sample.error or sample.status != 200 or not isinstance(sample.payload, dict):
        return True
    try:
        records = served_records(sample)
    except (KeyError, TypeError):
        return True
    want = len(sample.body["queries"]) if "queries" in sample.body else 1
    return len(records) != want
