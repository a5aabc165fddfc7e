"""Wire format: sealed lines, corruption handling, malformed specs."""

import json

import pytest

from repro.errors import ServiceError
from repro.obs import metrics
from repro.service.protocol import LineReader, decode_line, encode


def test_encode_decode_roundtrip():
    doc = {"op": "grant", "chunk": 3, "indices": [0, 1, 2]}
    wire = encode(doc)
    assert wire.endswith(b"\n")
    assert decode_line(wire.rstrip(b"\n")) == doc


def test_corrupt_line_is_swallowed_not_fatal():
    wire = encode({"op": "ack", "chunk": 1}).rstrip(b"\n")
    flipped = bytes([wire[0] ^ 0x01]) + wire[1:]
    assert decode_line(flipped) is None
    assert decode_line(b"not json at all") is None
    assert decode_line(json.dumps([1, 2, 3]).encode()) is None  # not an object
    # an unsealed object is as unverifiable as one with a wrong crc
    with metrics.enabled() as reg:
        assert decode_line(json.dumps({"op": "ack"}).encode()) is None
        assert decode_line(json.dumps({"op": "ack", "crc": 1}).encode()) is None
        assert reg.counter("service.bad_lines").value == 2


def test_line_reader_reassembles_partial_feeds():
    reader = LineReader()
    wire = encode({"op": "wait"}) + encode({"op": "done"})
    cut = len(wire) // 2
    first = reader.feed(wire[:cut])
    second = reader.feed(wire[cut:])
    assert [d["op"] for d in first + second] == ["wait", "done"]
    assert reader.feed(b"") == []


def test_line_reader_drops_only_the_bad_line():
    reader = LineReader()
    good = encode({"op": "ack", "chunk": 7})
    out = reader.feed(b"garbage line\n" + good)
    assert [d["op"] for d in out] == ["ack"]


def test_malformed_spec_raises_service_error():
    from repro.service import ChunkExecutor

    with pytest.raises(ServiceError, match="malformed"):
        ChunkExecutor.from_spec({"app": "EP", "config": {"n_tests": 4}})  # the rest missing
    with pytest.raises(ServiceError, match="malformed"):
        ChunkExecutor.from_spec({"app": "EP"})  # no campaign document at all
