"""The HTTP/1.1 framing layer driven from bytes, with no socket or server.

``read_request`` reads from an ``asyncio.StreamReader`` fed with
``feed_data``/``feed_eof``; every framing fault must come back as a typed
``HttpError`` carrying the request id, and well-formed requests must come
back with the fields the server routes on.
"""

import asyncio

import pytest

from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    read_request,
)


def _read(*chunks):
    """Run ``read_request`` over a reader that has ``chunks`` then EOF."""

    async def main():
        reader = asyncio.StreamReader()  # the 64 KiB line limit servers get
        for chunk in chunks:
            reader.feed_data(chunk)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(main())


def test_request_fields_and_keep_alive():
    body = b'{"model": "m"}'
    request = _read(
        b"POST /predict?x=1 HTTP/1.1\r\nHost: t\r\nX-Request-Id: abc\r\n"
        b"Content-Length: %d\r\nX-Priority: batch\r\n\r\n" % len(body) + body
    )
    assert (request.method, request.path, request.query) == (
        "POST", "/predict", "x=1"
    )
    assert request.headers["x-priority"] == "batch"  # keys lower-cased
    assert request.request_id == "abc"
    assert request.body == body
    assert request.keep_alive


def test_minted_request_id_and_connection_close():
    request = _read(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert request.request_id.startswith("r-") and request.body == b""
    assert not request.keep_alive


def test_clean_eof_is_none():
    assert _read() is None


def test_two_pipelined_requests_frame_apart():
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
            b"GET /b HTTP/1.1\r\n\r\n"
        )
        reader.feed_eof()
        return [await read_request(reader) for _ in range(3)]

    first, second, end = asyncio.run(main())
    assert (first.path, first.body) == ("/a", b"abc")
    assert (second.path, second.body) == ("/b", b"")
    assert end is None


@pytest.mark.parametrize(
    "raw, status",
    [
        (b"GARBAGE\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nX-Request-Id: f\r\nContent-Length: -1\r\n\r\n",
         400),
        (b"POST / HTTP/1.1\r\nX-Request-Id: f\r\nContent-Length: %d\r\n\r\n"
         % (MAX_BODY_BYTES + 1), 413),
        (b"GET /" + b"a" * (MAX_HEADER_BYTES + 10) + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET / HTTP/1.1\r\nX-Request-Id: f\r\nX-Big: "
         + b"a" * (MAX_HEADER_BYTES + 10) + b"\r\n\r\n", 431),
        (b"GET / HTTP/1.1\r\nX-Request-Id: f\r\n"
         + b"X-Pad: %s\r\n" % (b"v" * 1000) * 70 + b"\r\n", 431),
        (b"POST / HTTP/1.1\r\nX-Request-Id: f\r\n"
         b"Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", 501),
    ],
    ids=["request-line", "content-length", "body-size", "line-size",
         "header-line", "header-block", "chunked"],
)
def test_framing_faults_are_typed(raw, status):
    with pytest.raises(HttpError) as excinfo:
        _read(raw)
    exc = excinfo.value
    assert exc.status == status
    assert exc.payload() == {"error": exc.message, "status": status}
    if b"X-Request-Id: f" in raw[:100]:
        assert exc.request_id == "f"
    else:
        assert exc.request_id.startswith("r-")
    if status == 501:
        assert "Content-Length" in exc.message


def test_truncated_body_raises_incomplete_read():
    with pytest.raises(asyncio.IncompleteReadError):
        _read(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")


def test_http_layer_imports_no_repro_module():
    """The wire format stays drivable on its own: no serving-core import."""
    import ast

    import repro.serve.http as http

    with open(http.__file__) as fh:
        tree = ast.parse(fh.read())
    modules = [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    modules += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names]
    assert not [m for m in modules if m.startswith("repro")]
