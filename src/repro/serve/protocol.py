"""Minimal HTTP/1.1 parsing and NDJSON streaming over asyncio streams.

The service layer speaks just enough HTTP for its job -- JSON request
bodies in, JSON (or chunked NDJSON) responses out -- implemented
directly on :func:`asyncio.start_server` streams so the server stays
zero-dependency.  This module is pure protocol: it never touches the
session, stores or the worker pool, and every function here is safe to
call from the event loop (no blocking IO -- the ``async-safety`` lint
rule enforces that for the whole package).

Requests are parsed into :class:`HttpRequest` (request line, lowercased
headers, ``Content-Length``-delimited body, decoded query string).
Responses are either one-shot JSON documents (:func:`write_json`) or a
chunked ``application/x-ndjson`` stream (:class:`NdjsonStream`) in
which every chunk is exactly one JSON line -- clients can read
line-by-line through any chunked-decoding HTTP client and see partial
results as they are computed.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpRequest",
    "NdjsonStream",
    "ProtocolError",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "STATUS_REASONS",
    "read_request",
    "render_response",
    "write_json",
]

#: Upper bound on one request body (an ExperimentSpec JSON document is
#: well under a kilobyte; anything near this limit is abuse).
MAX_BODY_BYTES = 1 << 20

#: Upper bound on the request line plus all headers.
MAX_HEADER_BYTES = 32 * 1024

#: Reason phrases for the status codes the server emits.
STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ValueError):
    """A request violates the subset of HTTP/1.1 the server speaks."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        #: The HTTP status the server should answer with.
        self.status = status


class HttpRequest:
    """One parsed HTTP request.

    Attributes
    ----------
    method:
        Uppercased request method (``GET``, ``POST``, ...).
    path:
        Decoded path component of the request target.
    query:
        Decoded query parameters (last value wins per name).
    headers:
        Header mapping with lowercased names.
    body:
        Raw request body bytes (empty without ``Content-Length``).
    """

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        """The body parsed as JSON (:class:`ProtocolError` 400 on junk)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}") from exc

    def flag(self, name: str) -> bool:
        """Whether a query parameter is set to a truthy value."""
        return self.query.get(name, "").lower() in ("1", "true", "yes",
                                                    "on")

    def keep_alive(self) -> bool:
        """Whether the connection should stay open after the response."""
        return self.headers.get("connection", "").lower() != "close"


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Read one request off the stream.

    Returns ``None`` on a clean end-of-stream before any request bytes
    (the client closed an idle keep-alive connection).  Raises
    :class:`ProtocolError` for anything outside the supported subset --
    the caller answers with the error's status and closes.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError) as exc:
        raise ProtocolError(400, f"unreadable request line: {exc}") from exc
    if not line:
        return None
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError(413, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise ProtocolError(400, f"malformed request line: {line!r}")
    method, target = parts[0].upper(), parts[1]

    headers: Dict[str, str] = {}
    total = len(line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise ProtocolError(413, "header section too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding", "").lower() == "chunked":
        raise ProtocolError(400, "chunked request bodies not supported")
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise ProtocolError(400, "bad Content-Length") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ProtocolError(
                    400, "request body ended early") from exc

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return HttpRequest(method, unquote(split.path or "/"), query,
                       headers, body)


def render_response(status: int, body: bytes) -> bytes:
    """Serialize one complete (non-chunked) JSON HTTP response."""
    reason = STATUS_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def write_json(writer: asyncio.StreamWriter, status: int,
                     payload: Any) -> None:
    """Write one JSON response and drain the transport."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    writer.write(render_response(status, body))
    await writer.drain()


class NdjsonStream:
    """A chunked ``application/x-ndjson`` response in progress.

    :meth:`start` always answers ``200``: a stream reports a failure
    in-band, as its last line.  Each :meth:`send` emits one JSON
    document as one line inside one HTTP chunk, then drains -- clients
    observe every partial result as soon as it exists.  :meth:`close`
    terminates the chunked body.

    Examples
    --------
    >>> stream = NdjsonStream(writer)                  # doctest: +SKIP
    >>> await stream.start()                           # doctest: +SKIP
    >>> await stream.send({"event": "point"})          # doctest: +SKIP
    >>> await stream.close()                           # doctest: +SKIP
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer

    async def start(self) -> None:
        """Write the response head announcing a chunked NDJSON body."""
        self._writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await self._writer.drain()

    async def send(self, payload: Any) -> None:
        """Emit one JSON line as one chunk and drain."""
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        chunk = f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"
        self._writer.write(chunk)
        await self._writer.drain()

    async def close(self) -> None:
        """Terminate the chunked body."""
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
