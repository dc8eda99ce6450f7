"""Minimal hand-rolled HTTP/1.1 framing for the experiment service.

:class:`~repro.service.server.ExperimentService` carries its traffic
over a deliberately small HTTP/1.1 subset — one request line,
lower-cased headers, ``Content-Length`` bodies, keep-alive by default —
implemented directly on :mod:`asyncio` streams so the service stays
stdlib-only:

* :func:`read_request` / :func:`write_response` — the server side of
  one exchange.
* :func:`body_digest` — the ``X-Content-Digest`` every response
  carries, which :class:`~repro.service.client.ServiceClient` checks so
  a body corrupted in transit is a transport error, never data.
* :class:`Raw` — a pass-through (non-JSON) response body, e.g. the
  Prometheus text exposition.

Limits are intentionally conservative: bodies are capped at
:data:`MAX_BODY_BYTES` and header blocks at :data:`MAX_HEADER_LINES`
lines; anything outside the subset reads as a malformed message
(``None`` from :func:`read_request`) and the connection is dropped.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "DIGEST_HEADER",
    "MAX_BODY_BYTES",
    "MAX_HEADER_LINES",
    "REASONS",
    "Raw",
    "body_digest",
    "read_request",
    "write_response",
]

#: Largest request body the server will frame.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Most header lines read before the message is declared malformed.
MAX_HEADER_LINES = 100

REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Response header carrying a SHA-256 digest of the body so receivers
#: can distinguish a corrupted-in-transit body from a genuine reply.
DIGEST_HEADER = "x-content-digest"


def body_digest(body: bytes) -> str:
    """``sha256=<hex>`` digest value for a response body."""
    return "sha256=" + hashlib.sha256(body).hexdigest()


class Raw:
    """A non-JSON response body (e.g. Prometheus text exposition)."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Read one request; ``None`` on EOF or a malformed message.

    Returns ``(method, path, headers, body)`` with header names
    lower-cased and any query string stripped from the path.
    """
    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError):
        return None
    headers = await _read_headers(reader)
    if headers is None:
        return None
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            return None
        if not 0 <= n <= MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(n)
    return method, target.split("?", 1)[0], headers, body


async def _read_headers(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, str]]:
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return None


async def write_response(writer: asyncio.StreamWriter, status: int,
                         payload: Any, keep_alive: bool,
                         trace_id: str = "-",
                         extra_headers: Optional[Dict[str, str]] = None,
                         ) -> None:
    """Serialize ``payload`` (JSON unless :class:`Raw`) and write it.

    Every response carries an ``X-Content-Digest`` of its body so the
    client can reject bodies corrupted in transit.
    ``extra_headers`` (e.g. ``Retry-After`` on a 429) are emitted
    verbatim after the standard block.
    """
    if isinstance(payload, Raw):
        body, content_type = payload.body, payload.content_type
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        content_type = "application/json"
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (extra_headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"X-Trace-Id: {trace_id}\r\n"
        f"X-Content-Digest: {body_digest(body)}\r\n"
        f"{extra}"
        f"\r\n"
    ).encode("ascii")
    writer.write(head + body)
    await writer.drain()
