"""HTTP/1.1 wire format of the inference server: framing, typed errors,
replies.  Stdlib only, and it imports no ``repro.serve`` module, so the
parser runs on bytes fed to an ``asyncio.StreamReader`` with no socket.

:func:`read_request` maps every framing fault to an :class:`HttpError`
carrying the request id: malformed request line or invalid
``Content-Length`` → 400, body over :data:`MAX_BODY_BYTES` → 413,
request line over the reader's 64 KiB limit → 414, header block over
:data:`MAX_HEADER_BYTES` → 431, any ``Transfer-Encoding`` → 501.  The
stream cannot be resynchronised after one, so the caller replies,
lingers (:func:`linger`) and closes.  :func:`write_response` is the one
reply writer.
"""

from __future__ import annotations

import asyncio
import json
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    414: "URI Too Long",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on accepted request bodies (a 3×32×32 sample serialises to
#: ~100 kB of JSON; 32 MiB leaves room for large multi-sample requests).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Upper bound on the header block, equal to the stream reader's default
#: line limit (one over-long header line already trips that limit).
MAX_HEADER_BYTES = 64 * 1024


class HttpError(Exception):
    """A typed refusal.  Framing faults carry the ``request_id``; route
    errors leave it to the request."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        reason: Optional[str] = None,
        request_id: Optional[str] = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after
        #: Machine-readable refusal class (e.g. ``"circuit_open"``,
        #: ``"draining"``) — clients branch on this, not on prose.
        self.reason = reason
        self.request_id = request_id

    def payload(self) -> dict:
        """The JSON error body: ``{"error", "status"}`` plus ``reason``."""
        body = {"error": self.message, "status": self.status}
        if self.reason is not None:
            body["reason"] = self.reason
        return body


@dataclass(slots=True)
class RawResponse:
    """A non-JSON route result (e.g. the Prometheus exposition)."""

    body: bytes
    content_type: str


@dataclass(slots=True)
class Request:
    """One framed request.  ``headers`` keys are lower-cased;
    ``request_id`` is the client's ``X-Request-Id`` or a minted one."""

    method: str
    path: str
    query: str
    headers: Dict[str, str]
    request_id: str
    body: bytes
    keep_alive: bool


def _request_id(headers: Dict[str, str]) -> str:
    # Every request gets an id at ingress: the client's X-Request-Id is
    # respected, otherwise one is minted; it is echoed on the response
    # and keys trace spans and latency-bucket exemplars.
    return headers.get("x-request-id") or f"r-{uuid.uuid4().hex[:16]}"


async def read_request(reader) -> Optional[Request]:
    """Frame the next request off ``reader``; ``None`` at a clean EOF
    between requests.  A peer hanging up mid-body raises
    ``asyncio.IncompleteReadError``."""
    try:
        request_line = await reader.readline()
    except ValueError:  # the stream reader's line limit
        raise HttpError(414, "request line too long", request_id=_request_id({}))
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin1").split()
    except ValueError:
        raise HttpError(400, "malformed request line", request_id=_request_id({}))
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
            header_bytes += len(line)
        except ValueError:  # one line over the stream reader's limit
            header_bytes = MAX_HEADER_BYTES + 1
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(
                431, f"header block exceeds {MAX_HEADER_BYTES} bytes",
                request_id=_request_id(headers),
            )
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin1").partition(":")
        headers[key.strip().lower()] = value.strip()
    request_id = _request_id(headers)
    if "transfer-encoding" in headers:
        raise HttpError(
            501, "Transfer-Encoding is not supported; send Content-Length",
            request_id=request_id,
        )
    raw_length = headers.get("content-length") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise HttpError(
            400, f"invalid Content-Length {raw_length!r}", request_id=request_id
        )
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise HttpError(
            413, f"body exceeds {MAX_BODY_BYTES} bytes", request_id=request_id
        )
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    return Request(
        method, path, query, headers, request_id, body,
        keep_alive=headers.get("connection", "").lower() != "close",
    )


async def write_response(
    writer,
    status: int,
    payload: Union[dict, RawResponse],
    *,
    close: bool = False,
    retry_after: Optional[float] = None,
    extra_headers: Optional[List[str]] = None,
) -> None:
    """Write one response: a dict as ``application/json``, a
    :class:`RawResponse` with its own content type."""
    if isinstance(payload, RawResponse):
        body, content_type = payload.body, payload.content_type
    else:
        body, content_type = json.dumps(payload).encode(), "application/json"
    headers = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    if extra_headers:
        headers.extend(extra_headers)
    if retry_after is not None:
        headers.append(f"Retry-After: {retry_after:g}")
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
    await writer.drain()


async def linger(reader, writer) -> None:
    """Half-close, then discard input until the peer closes (at most
    1 s).  Closing a socket with unread input sends a
    TCP reset, which can destroy a framing reply before the peer reads
    it."""

    async def discard() -> None:
        while await reader.read(MAX_HEADER_BYTES):
            pass

    try:
        writer.write_eof()
        await asyncio.wait_for(discard(), 1.0)
    except (OSError, asyncio.TimeoutError):  # peer reset, or still sending
        pass
