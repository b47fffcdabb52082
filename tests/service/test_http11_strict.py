"""Strict message framing: one Content-Length of ASCII digits, no TE beside it.

``int()`` alone reads ``1_0`` as 10 and ``+3`` as 3, a dict keeps the
last of two Content-Length headers, and Content-Length beside
Transfer-Encoding is the request-smuggling shape RFC 9112 §6.3 asks a
recipient to treat as an error.  Requests answer 400; the router's
worker responses answer 502.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.http11 import HttpError, read_request, read_response

BODY = b'{"params": {"memory_cycle": 8.0}}'


def feed(raw: bytes, reader_fn):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await reader_fn(reader)

    return asyncio.run(run())


def request(headers: list[bytes], body: bytes = BODY) -> bytes:
    return b"POST /v1/simulate HTTP/1.1\r\nHost: x\r\n" + b"".join(
        h + b"\r\n" for h in headers
    ) + b"\r\n" + body


def response(headers: list[bytes], body: bytes = BODY) -> bytes:
    return b"HTTP/1.1 200 OK\r\n" + b"".join(
        h + b"\r\n" for h in headers
    ) + b"\r\n" + body


def bad_values(length: int) -> list[bytes]:
    """Content-Length spellings ``int()`` would accept (or misread)."""
    digits = str(length).encode()
    return [
        b"+" + digits,
        digits[:1] + b"_" + digits[1:],
        b"-" + digits,
        b"0x" + format(length, "x").encode(),
        digits + b".0",
        digits[:1] + b" " + digits[1:],
        digits + b"\xb2",  # latin-1 superscript two: str.isdigit() is True
        b"",
    ]


names = st.sampled_from([b"Content-Length", b"content-length", b"CONTENT-LENGTH"])


@st.composite
def misframed(draw):
    """A header list with exactly one framing fault, and the fault's code."""
    length = len(BODY)
    digits = str(length).encode()
    name = draw(names)
    kind = draw(st.sampled_from(["value", "duplicate", "te"]))
    filler = [b"Content-Type: application/json"]
    if kind == "value":
        headers = [name + b": " + draw(st.sampled_from(bad_values(length)))]
        code = "bad_content_length"
    elif kind == "duplicate":
        second = draw(st.sampled_from([digits, b"0", b"5"]))
        headers = [name + b": " + digits, draw(names) + b": " + second]
        code = "bad_content_length"
    else:
        te = b"Transfer-Encoding: " + draw(st.sampled_from([b"chunked", b"identity"]))
        headers = [name + b": " + digits, te]
        code = "conflicting_framing"
    if draw(st.booleans()):
        headers.reverse()
    position = draw(st.integers(min_value=0, max_value=len(headers)))
    headers[position:position] = filler
    return headers, code


@settings(max_examples=150, deadline=None)
@given(case=misframed())
def test_misframed_requests_are_400(case):
    headers, code = case
    with pytest.raises(HttpError) as excinfo:
        feed(request(headers), read_request)
    assert excinfo.value.status == 400
    assert excinfo.value.code == code


@settings(max_examples=150, deadline=None)
@given(case=misframed())
def test_misframed_responses_are_502(case):
    headers, _code = case
    with pytest.raises(HttpError) as excinfo:
        feed(response(headers), read_response)
    assert excinfo.value.status == 502
    assert excinfo.value.code == "bad_upstream"


@settings(max_examples=60, deadline=None)
@given(name=names, padding=st.sampled_from([b"", b" ", b"  ", b"\t"]))
def test_plain_digits_still_frame_the_body(name, padding):
    header = name + b":" + padding + str(len(BODY)).encode() + padding
    parsed = feed(request([header]), read_request)
    assert parsed.body == BODY
    answered = feed(response([header]), read_response)
    assert answered.body == BODY


class TestPinnedShapes:
    def test_underscore_is_not_ten(self):
        with pytest.raises(HttpError) as excinfo:
            feed(request([b"Content-Length: 1_0"], b"0123456789"), read_request)
        assert excinfo.value.message == "bad Content-Length '1_0'"

    def test_duplicate_message(self):
        raw = request([b"Content-Length: 0", b"Content-Length: 33"])
        with pytest.raises(HttpError) as excinfo:
            feed(raw, read_request)
        assert excinfo.value.message == "duplicate Content-Length header"

    def test_length_with_transfer_encoding(self):
        raw = request([b"Transfer-Encoding: chunked", b"Content-Length: 33"])
        with pytest.raises(HttpError) as excinfo:
            feed(raw, read_request)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "conflicting_framing"

    def test_leading_zeros_are_digits(self):
        length = str(len(BODY)).zfill(6).encode()
        assert feed(request([b"Content-Length: " + length]), read_request).body == BODY
