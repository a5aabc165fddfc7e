"""Wire format: sealed lines, corruption handling, config transport."""

import json

import pytest

from repro.errors import ServiceError
from repro.nvct.campaign import CampaignConfig
from repro.nvct.plan import PersistencePlan
from repro.obs import metrics
from repro.service.protocol import (
    LineReader,
    config_from_doc,
    config_to_doc,
    decode_line,
    encode,
)


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


def test_config_transport_is_lossless():
    cfg = CampaignConfig(
        n_tests=17,
        seed=9,
        plan=PersistencePlan.at_loop_end(("x", "y"), frequency=2),
        verified_mode=True,
        max_iter_factor=1.5,
        distribution="early",
        crash_model="eadr",
        nodes=3,
        correlation=0.4,
        burst_window_s=120.0,
        node=2,
    )
    doc = config_to_doc(cfg)
    json.dumps(doc)  # must be plain JSON, no numpy or dataclass leakage
    assert config_from_doc(doc) == cfg
    assert config_from_doc(config_to_doc(CampaignConfig())) == CampaignConfig()


def test_config_transport_refuses_custom_hierarchy():
    class FakeHierarchy:
        pass

    cfg = CampaignConfig(n_tests=4, hierarchy=FakeHierarchy())
    with pytest.raises(ServiceError, match="hierarchy"):
        config_to_doc(cfg)


def test_malformed_spec_raises_service_error():
    with pytest.raises(ServiceError, match="malformed"):
        config_from_doc({"n_tests": 4})  # everything else missing
