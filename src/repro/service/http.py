"""A deliberately small HTTP/1.1 layer over asyncio streams.

The standard library ships an asyncio event loop and an HTTP *client*,
but no asyncio HTTP server — and the service must stay stdlib-only.
This module implements exactly the subset the verdict service needs and
nothing more: request-line + header + ``Content-Length`` body parsing
with hard caps, plain JSON responses, and ``chunked`` transfer encoding
for streaming NDJSON results as they land.  Connections are persistent
(HTTP/1.1 keep-alive) so batch submitters stop paying a TCP handshake
per verdict: the server loops requests on one socket up to a
per-connection cap and an idle timeout, and every response declares its
intent (``Connection: keep-alive`` or ``close``) explicitly.  Parse
errors still close the connection — a desynchronized stream is never
worth resynchronizing — and pipelining stays unsupported (the server
reads the next request only after answering the previous one).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "response_bytes",
    "ChunkedWriter",
    "STATUS_REASONS",
]

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Hard cap on the request line plus headers, independent of the body cap.
MAX_HEADER_BYTES = 32 * 1024


class HttpError(Exception):
    """An error with a definite HTTP answer (the handler renders it)."""

    def __init__(self, status: int, detail: str, headers: Optional[Dict[str, str]] = None):
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = headers or {}


@dataclass
class Request:
    """One parsed request: method, path, headers (lower-cased), body."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body as JSON, or ``HttpError(400)``."""
        if not self.body:
            raise HttpError(400, "empty request body (expected JSON)")
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None
        except RecursionError:
            raise HttpError(400, "request body nests JSON too deeply") from None


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int,
    timeout: float,
    idle_timeout: Optional[float] = None,
) -> Optional[Request]:
    """Parse one request off the stream, or ``None`` on immediate EOF.

    With ``idle_timeout`` set (a kept-alive connection waiting for its
    next request), a connection that stays silent past it also returns
    ``None`` — an idle keep-alive close, not an error; once the first
    byte arrives the ordinary ``timeout`` governs the rest of the head.
    Raises :class:`HttpError` for malformed, oversized or overdue
    requests; the caller renders it as the response.
    """
    prefix = b""
    if idle_timeout is not None:
        try:
            prefix = await asyncio.wait_for(
                reader.readexactly(1), timeout=idle_timeout
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            return None  # the connection went idle or away between requests
    try:
        head = prefix + await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=timeout
        )
    except asyncio.IncompleteReadError as exc:
        if not prefix and not exc.partial:
            return None  # clean EOF before any bytes: client went away
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large") from None
    except asyncio.TimeoutError:
        raise HttpError(408, "timed out reading the request head") from None

    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    try:
        text = head.decode("latin-1")
    except Exception:  # pragma: no cover — latin-1 decodes any byte
        raise HttpError(400, "undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    path = target.split("?", 1)[0]

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, f"bad Content-Length: {length_text!r}") from None
        if length < 0:
            raise HttpError(400, f"bad Content-Length: {length_text!r}")
        if length > max_body:
            raise HttpError(413, f"request body over the {max_body}-byte cap")
        try:
            body = await asyncio.wait_for(reader.readexactly(length), timeout=timeout)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than Content-Length") from None
        except asyncio.TimeoutError:
            raise HttpError(408, "timed out reading the request body") from None
    elif headers.get("transfer-encoding", "").lower() == "chunked":
        # Streaming request bodies buy nothing for batch-of-names
        # payloads; refusing them keeps the parser single-pass.
        raise HttpError(400, "chunked request bodies are not supported")
    return Request(method=method, path=path, headers=headers, body=body)


def response_bytes(
    status: int,
    payload: Any = None,
    *,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
) -> bytes:
    """A complete non-streaming response (JSON unless told otherwise)."""
    if isinstance(payload, bytes):
        body = payload
    elif payload is None:
        body = b""
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


class ChunkedWriter:
    """Stream an NDJSON response body with chunked transfer encoding.

    One :meth:`write_line` per result, flushed to the socket as it
    lands — a client streaming a 100-test request sees the first
    verdict while the last chunk is still computing.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    async def start(
        self,
        status: int = 200,
        *,
        content_type: str = "application/x-ndjson",
        extra_headers: Optional[Dict[str, str]] = None,
        keep_alive: bool = False,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {STATUS_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            "Transfer-Encoding: chunked",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        self._started = True
        await self._writer.drain()

    async def write_line(self, payload: Any) -> None:
        data = (json.dumps(payload) + "\n").encode("utf-8")
        self._writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
