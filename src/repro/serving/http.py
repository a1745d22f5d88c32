"""Minimal HTTP/1.1 plumbing for the serving layer (stdlib only).

The reasoning server speaks a deliberately small slice of HTTP/1.1 over
``asyncio`` streams: request line + headers + ``Content-Length`` bodies,
keep-alive connections, JSON (and text) responses with explicit lengths.
No chunked encoding, no pipelining guarantees beyond strict
request/response alternation — exactly what ``http.client``, ``curl``
and every load generator in ``benchmarks/`` need, with zero new
dependencies.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qsl, unquote

__all__ = [
    "HTTPError",
    "Request",
    "read_request",
    "render_response",
]

#: Hard limits keeping a misbehaving client from ballooning memory.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 65536
MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class HTTPError(Exception):
    """An error that renders as an HTTP error response.

    ``headers`` lets a handler attach response headers (e.g.
    ``Retry-After`` on a 429 back-pressure rejection).
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def flag(self, name: str) -> bool:
        """A boolean query parameter (``?wait=1`` style)."""
        value = self.query.get(name, "").strip().lower()
        return value in ("1", "true", "yes", "on")

    def int_param(self, name: str) -> Optional[int]:
        """An integer query parameter, or ``None``; 400 on garbage."""
        raw = self.query.get(name)
        if raw is None or raw == "":
            return None
        try:
            return int(raw)
        except ValueError:
            raise HTTPError(400, f"query parameter {name}={raw!r} is not an integer")

    @property
    def keep_alive(self) -> bool:
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            # HTTP/1.0 defaults to close; persistence is opt-in.
            return token == "keep-alive"
        return token != "close"


async def read_request(
    reader: asyncio.StreamReader,
    *,
    timeout: Optional[float] = None,
) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HTTPError` for malformed or oversized requests and
    lets stream-level exceptions (reset connections) propagate to the
    connection handler.

    ``timeout`` is the slowloris guard: waiting for the *first* byte is
    unbounded (an idle keep-alive connection is legal and cheap), but
    once a request has started arriving, the rest of its line, headers
    and body must complete within ``timeout`` seconds or the request
    fails with ``408 Request Timeout`` (and the connection closes, so
    a half-sent request cannot park a connection task forever).

    The deadline is ``asyncio.timeout``: a timer on the connection's
    own task, not a task per request.  Only the deadline becomes the
    408; another cancellation (a server shutdown cancelling the
    connection) propagates unchanged.
    """
    first = await reader.read(1)
    if not first:
        return None  # client closed between requests
    rest = _read_request_after(reader, first)
    if timeout is None:
        return await rest
    try:
        async with asyncio.timeout(timeout):
            return await rest
    except asyncio.TimeoutError:
        raise HTTPError(
            408,
            f"request read timed out after {timeout:g}s "
            "(line, headers and body must arrive promptly)",
        )


async def _read_request_after(
    reader: asyncio.StreamReader, first: bytes
) -> Request:
    """Parse the remainder of a request whose first byte is ``first``."""
    if first == b"\n":
        line = first
    else:
        try:
            line = first + await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise HTTPError(431, "request line too long")
    if len(line) > MAX_REQUEST_LINE:
        raise HTTPError(431, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HTTPError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HTTPError(505, f"unsupported protocol {version!r}")
    raw_path, _, raw_query = target.partition("?")
    query = dict(parse_qsl(raw_query, keep_blank_values=True))
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if not line:
            raise HTTPError(400, "truncated request headers")
        if line in (b"\r\n", b"\n"):
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HTTPError(431, "request headers too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HTTPError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise HTTPError(400, f"bad Content-Length {raw_length!r}")
    if length < 0:
        raise HTTPError(400, "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise HTTPError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return Request(
        method=method.upper(),
        path=unquote(raw_path),
        query=query,
        headers=headers,
        body=body,
        version=version.upper(),
    )


def render_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one HTTP/1.1 response with an explicit length."""
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + body


def json_body(payload) -> bytes:
    """A compact JSON response body."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")
