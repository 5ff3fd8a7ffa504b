"""Minimal HTTP/1.1 plumbing for the cost-oracle server and its clients.

Hand-rolled on purpose: the serving layer is stdlib-only (asyncio streams
on the server, a blocking socket client for tests/CI, an asyncio client
for the load generator), and the protocol surface it needs is tiny —
request line, headers, ``Content-Length`` bodies, JSON payloads, one
response per connection (``Connection: close``). Anything outside that
subset raises :class:`ProtocolError`, which the server maps to 400.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

#: Upper bound on accepted request bodies (a query batch is small; this
#: is a backstop against a client streaming garbage at the server).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ValueError):
    """A request outside the supported HTTP subset."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON; :class:`ProtocolError` on garbage."""
        if not self.body:
            raise ProtocolError("expected a JSON body")
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"body is not valid JSON: {exc}") from None


@dataclass
class Response:
    """One parsed HTTP response (the client half)."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        return json.loads(self.body) if self.body else None


def _parse_head(head: bytes, *, response: bool) -> tuple[list[str], dict[str, str]]:
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise ProtocolError(f"undecodable header block: {exc}") from None
    lines = text.split("\r\n")
    first = lines[0].split(" ", 2)
    if len(first) != 3:
        kind = "status line" if response else "request line"
        raise ProtocolError(f"malformed {kind}: {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return first, headers


def _content_length(headers: Mapping[str, str]) -> int:
    raw = headers.get("content-length", "0")
    # RFC 9110: Content-Length = 1*DIGIT. int() would also take "+10",
    # "1_0" and non-ASCII digits.
    if not (raw.isascii() and raw.isdigit()):
        raise ProtocolError(f"bad Content-Length: {raw!r}")
    length = int(raw)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"Content-Length out of range: {length}")
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError("chunked transfer encoding is not supported")
    return length


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request from a stream; ``None`` on a clean EOF.

    Raises :class:`ProtocolError` on anything outside the supported
    subset (the server answers 400 and closes).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-headers") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("header block too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("header block too large")
    (method, path, version), headers = _parse_head(head[:-4], response=False)
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported HTTP version: {version!r}")
    length = _content_length(headers)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-body") from None
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def response_bytes(
    status: int,
    payload: Any = None,
    *,
    headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Serialize one ``Connection: close`` response.

    A ``str`` payload ships verbatim as ``text/plain`` (the Prometheus
    exposition path); anything else serializes as JSON. A
    ``content-type`` entry in ``headers`` replaces the default rather
    than emitting a duplicate header line.
    """
    extra = {str(k).lower(): str(v) for k, v in (headers or {}).items()}
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; charset=utf-8"
    else:
        body = b""
        if payload is not None:
            body = json.dumps(
                payload, sort_keys=True, default=_json_default
            ).encode()
        content_type = "application/json"
    content_type = extra.pop("content-type", content_type)
    lines = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
        f"content-type: {content_type}",
        f"content-length: {len(body)}",
        "connection: close",
    ]
    for name, value in extra.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _json_default(obj: Any) -> Any:
    as_dict = getattr(obj, "as_dict", None)
    if callable(as_dict):
        return as_dict()
    item = getattr(obj, "item", None)  # numpy scalars
    if callable(item):
        return item()
    return repr(obj)


def _request_bytes(
    method: str, path: str, host: str, payload: Any = None
) -> bytes:
    body = b""
    if payload is not None:
        body = json.dumps(payload, sort_keys=True).encode()
    lines = [
        f"{method.upper()} {path} HTTP/1.1",
        f"host: {host}",
        "content-type: application/json",
        f"content-length: {len(body)}",
        "connection: close",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _parse_response(raw: bytes) -> Response:
    head, sep, rest = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ProtocolError("response missing header terminator")
    (_version, status, _text), headers = _parse_head(head, response=True)
    try:
        code = int(status)
    except ValueError:
        raise ProtocolError(f"bad status code: {status!r}") from None
    length = _content_length(headers)
    if "content-length" in headers:
        # Trust the declared framing — including an explicit 0, which
        # must yield an *empty* body, not fall back to the whole buffer.
        body = rest[:length]
    else:
        # No Content-Length: read-to-EOF framing (Connection: close).
        body = rest
    return Response(status=code, headers=headers, body=body)


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any = None,
    *,
    timeout: float = 30.0,
) -> Response:
    """Blocking one-shot HTTP exchange (tests, the CI smoke, simple tools)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(_request_bytes(method, path, host, payload))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _parse_response(b"".join(chunks))


async def arequest(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any = None,
    *,
    timeout: float = 30.0,
) -> Response:
    """Async one-shot HTTP exchange (the load generator's primitive)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(_request_bytes(method, path, host, payload))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
    return _parse_response(raw)
