"""Minimal asyncio HTTP/1.1 framing for :mod:`repro.service`.

The reproduction environment is stdlib-only, so the service speaks a
deliberately small slice of HTTP/1.1 directly over asyncio streams:

* request line + headers + optional ``Content-Length`` body (no chunked
  *request* bodies, no trailers, no upgrades);
* chunked *response* bodies for the streaming endpoints
  (:func:`render_stream_head` / :func:`encode_chunk` on the sending
  side, :func:`read_chunk` on the router's fan-in side);
* client-side response parsing (:func:`render_request` /
  :func:`read_response`) for the fleet router's persistent worker
  connections;
* persistent connections by default (``Connection: close`` honoured in
  both directions);
* hard limits on header-block and body size, enforced *before* any
  JSON parsing, so an oversized or malformed request costs the server
  one bounded read and a 4xx — never memory.

Anything outside that slice raises :class:`HttpError` with the
appropriate status; the connection handler in
:mod:`repro.service.server` turns it into a structured JSON error
response (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

#: Upper bound on the request line + headers block, in bytes.
DEFAULT_MAX_HEADER_BYTES = 16 * 1024

#: Upper bound on a request body, in bytes.
DEFAULT_MAX_BODY_BYTES = 1024 * 1024

#: Methods the service routes; anything else is a 405.
ALLOWED_METHODS = frozenset({"GET", "POST"})

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request that cannot be serviced, with its HTTP status."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class _FramingError(Exception):
    """A malformed header block; each reader maps it to its status."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _parse_headers(lines: list[str]) -> dict[str, str]:
    """Header fields by lower-cased name.

    A repeated ``Content-Length`` is rejected rather than letting one
    copy win, and so is ``Content-Length`` beside ``Transfer-Encoding``
    (RFC 9112 §6.3): two framings for one message let a peer that picks
    the other one read a different body — the request-smuggling shape.
    """
    headers: dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _FramingError("bad_header", f"malformed header line {line!r}")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            raise _FramingError(
                "bad_content_length", "duplicate Content-Length header"
            )
        headers[name] = value.strip()
    if "content-length" in headers and "transfer-encoding" in headers:
        raise _FramingError(
            "conflicting_framing",
            "Content-Length and Transfer-Encoding in one message",
        )
    return headers


def _content_length(text: str) -> int:
    """A ``Content-Length`` value: one or more ASCII digits, nothing else
    (``int()`` alone would also take ``+3``, ``1_0`` and ``-1``)."""
    if not (text.isascii() and text.isdigit()):
        raise _FramingError("bad_content_length", f"bad Content-Length {text!r}")
    return int(text)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def read_request(
    reader: asyncio.StreamReader,
    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Request | None:
    """Read one request off the stream; ``None`` on a clean EOF.

    Raises :class:`HttpError` on protocol violations and limit
    breaches, ``ConnectionError``/``asyncio.IncompleteReadError`` on a
    mid-request disconnect.
    """
    try:
        blob = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise
    except asyncio.LimitOverrunError:
        raise HttpError(
            431, "headers_too_large", "request header block exceeds the limit"
        ) from None
    if len(blob) > max_header_bytes:
        raise HttpError(
            431, "headers_too_large", "request header block exceeds the limit"
        )

    head, _, _ = blob.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "bad_request_line", f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    if method not in ALLOWED_METHODS:
        raise HttpError(405, "method_not_allowed", f"method {method} not allowed")

    try:
        headers = _parse_headers(lines[1:])
        length_text = headers.get("content-length")
        length = None if length_text is None else _content_length(length_text)
    except _FramingError as error:
        raise HttpError(400, error.code, error.message) from None

    body = b""
    if length is not None:
        if length > max_body_bytes:
            raise HttpError(
                413,
                "body_too_large",
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        if length:
            body = await reader.readexactly(length)
    elif headers.get("transfer-encoding"):
        raise HttpError(
            400,
            "unsupported_transfer_encoding",
            "chunked transfer encoding is not supported",
        )
    return Request(method=method, path=path, headers=headers, body=body)


@dataclass
class Response:
    """One parsed HTTP response (the router's view of a worker answer)."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the server kept the connection open."""
        return self.headers.get("connection", "keep-alive").lower() != "close"

    @property
    def chunked(self) -> bool:
        return "chunked" in self.headers.get("transfer-encoding", "").lower()


async def read_response_head(
    reader: asyncio.StreamReader,
    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES,
) -> Response:
    """Read one response's status line + headers (body not consumed).

    Used by the fleet router on its worker-side connections.  Raises
    ``ConnectionError``/``asyncio.IncompleteReadError`` when the worker
    vanished, :class:`HttpError` (502-flavoured) on garbage.
    """
    try:
        blob = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise ConnectionError("worker closed the connection") from None
        raise
    except asyncio.LimitOverrunError:
        raise HttpError(
            502, "bad_upstream", "worker response header block too large"
        ) from None
    if len(blob) > max_header_bytes:
        raise HttpError(
            502, "bad_upstream", "worker response header block too large"
        )
    head, _, _ = blob.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(
            502, "bad_upstream", f"malformed status line {lines[0]!r}"
        )
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(
            502, "bad_upstream", f"malformed status line {lines[0]!r}"
        ) from None
    try:
        headers = _parse_headers(lines[1:])
    except _FramingError as error:
        raise HttpError(502, "bad_upstream", error.message) from None
    return Response(status=status, headers=headers)


async def read_response(
    reader: asyncio.StreamReader,
    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Response:
    """Read one complete non-chunked response off the stream.

    The router's request/response path: every ordinary worker answer
    carries ``Content-Length``.  Chunked upstream bodies (a worker's
    ``/v1/sweep``) are consumed incrementally via
    :func:`read_chunk` instead.
    """
    response = await read_response_head(reader, max_header_bytes)
    if response.chunked:
        raise HttpError(
            502, "bad_upstream", "unexpected chunked response body"
        )
    try:
        length = _content_length(response.headers.get("content-length", "0"))
    except _FramingError as error:
        raise HttpError(502, "bad_upstream", error.message) from None
    if length > max_body_bytes:
        raise HttpError(
            502, "bad_upstream", f"unacceptable Content-Length {length}"
        )
    if length:
        response.body = await reader.readexactly(length)
    return response


async def read_chunk(reader: asyncio.StreamReader) -> bytes:
    """One chunk of a chunked response body; ``b""`` on the last chunk.

    The caller loops until the empty chunk, after which trailers (none
    are sent by this service) and the final CRLF are consumed.
    """
    size_line = await reader.readuntil(b"\r\n")
    try:
        size = int(size_line.strip().split(b";")[0], 16)
    except ValueError:
        raise HttpError(
            502, "bad_upstream", f"bad chunk size line {size_line!r}"
        ) from None
    if size == 0:
        await reader.readuntil(b"\r\n")  # the terminating CRLF
        return b""
    data = await reader.readexactly(size)
    await reader.readexactly(2)  # chunk-trailing CRLF
    return data


def render_request(
    method: str,
    path: str,
    body: bytes = b"",
    headers: dict[str, str] | None = None,
    host: str = "",
) -> bytes:
    """Serialize one HTTP/1.1 request (the router's worker-side egress)."""
    extra = ""
    for name, value in (headers or {}).items():
        clean = str(value).replace("\r", "").replace("\n", "")
        extra += f"{name}: {clean}\r\n"
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host or 'fleet'}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "\r\n"
    )
    return head.encode("latin-1") + body


def render_stream_head(
    status: int,
    content_type: str = "application/x-ndjson",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Headers opening a chunked (streaming) response.

    Streaming responses always close the connection when done — the
    sweep endpoint trades keep-alive for not having to promise a length.
    """
    reason = _REASONS.get(status, "Unknown")
    extra = ""
    for name, value in (extra_headers or {}).items():
        clean = str(value).replace("\r", "").replace("\n", "")
        extra += f"{name}: {clean}\r\n"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        "Transfer-Encoding: chunked\r\n"
        f"{extra}"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1")


def encode_chunk(data: bytes) -> bytes:
    """Frame one non-empty chunk of a chunked body."""
    if not data:
        return b""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def last_chunk() -> bytes:
    """The terminal zero-length chunk ending a chunked body."""
    return b"0\r\n\r\n"


def render_response(
    status: int,
    body: bytes,
    keep_alive: bool,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one HTTP/1.1 response (headers + body).

    ``extra_headers`` values are sanitized against CR/LF so a
    caller-supplied string (an echoed request id) can never split the
    header block.
    """
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    extra = ""
    for name, value in (extra_headers or {}).items():
        clean = str(value).replace("\r", "").replace("\n", "")
        extra += f"{name}: {clean}\r\n"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body
