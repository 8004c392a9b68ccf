"""Property tests for the datagram wire format.

The wire format is the trust boundary of the network transports: every
byte a UDP node accepts came through :func:`deframe` and
:func:`decode_value`.  Three families of obligations, in the driver's
tamper-rejection tradition:

* **round-trip** — encode → frame → deframe → decode is the identity
  for every value the stack can send, including the registered protocol
  dataclasses, for arbitrary hypothesis-generated payloads;
* **determinism** — the same payload always yields the same bytes
  (canonical JSON, sorted keys, sorted frozensets), so wire bytes can
  be pinned and compared across transports;
* **rejection** — truncation, garbage, oversized lengths, unknown tags
  and unregistered classes raise
  :class:`~repro.errors.WireFormatError`; nothing is half-decoded.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.message import Message, Piggyback
from repro.core.session import Session
from repro.core.view import View
from repro.errors import WireFormatError
from repro.gcs.membership import Ack, Install, Nudge, Propose
from repro.gcs.transport.wire import (
    MAX_FRAME_BYTES,
    decode_datagram,
    decode_value,
    deframe,
    encode_datagram,
    encode_value,
    frame,
    wire_registry,
)
from repro.gcs.vsync import ViewMessage

pids = st.integers(min_value=0, max_value=40)
members = st.frozensets(pids, min_size=1, max_size=8)
view_ids = st.tuples(st.integers(min_value=0, max_value=50), pids)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

wire_values = st.recursive(
    scalars | members,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
        st.dictionaries(pids, inner, max_size=4),
    ),
    max_leaves=12,
)

membership_payloads = st.one_of(
    st.builds(Propose, view_id=view_ids, members=members),
    st.builds(Ack, view_id=view_ids),
    st.builds(Install, view_id=view_ids, members=members),
    st.builds(Nudge, current_view_id=view_ids),
)

view_messages = st.builds(
    ViewMessage,
    view_id=view_ids,
    sender=pids,
    seq=st.integers(min_value=0, max_value=1000),
    payload=wire_values,
)


def roundtrip(payload):
    return decode_value(json.loads(frame(encode_value(payload))[4:]))


class TestRoundTrip:
    @given(wire_values)
    def test_values_roundtrip(self, value):
        assert roundtrip(value) == value

    @given(membership_payloads)
    def test_membership_messages_roundtrip(self, payload):
        assert roundtrip(payload) == payload

    @given(view_messages)
    def test_view_messages_roundtrip(self, message):
        assert roundtrip(message) == message

    @given(
        st.builds(Session, number=st.integers(min_value=0, max_value=99),
                  members=members),
        st.builds(View, members=members,
                  seq=st.integers(min_value=0, max_value=99)),
    )
    def test_value_objects_roundtrip(self, session, view):
        assert roundtrip(session) == session
        assert roundtrip(view) == view

    def test_nested_envelope_roundtrips(self):
        message = Message(
            payload="app-bytes",
            piggyback=Piggyback(sender=1, view_seq=2, items=()),
        )
        wrapped = ViewMessage(view_id=(3, 1), sender=1, seq=7, payload=message)
        assert roundtrip(wrapped) == wrapped

    @given(pids, pids, wire_values)
    def test_datagram_roundtrip(self, src, dst, payload):
        body = encode_datagram(src, dst, payload)
        assert decode_datagram(deframe(frame(body))) == (src, dst, payload)


class TestDeterminism:
    @given(view_messages)
    @settings(max_examples=50)
    def test_same_payload_same_bytes(self, message):
        assert frame(encode_value(message)) == frame(encode_value(message))

    def test_frozenset_order_is_canonical(self):
        a = encode_value(frozenset({3, 1, 2}))
        b = encode_value(frozenset({2, 3, 1}))
        assert a == b == ["F", [1, 2, 3]]

    def test_frames_are_canonical_json(self):
        body = encode_datagram(0, 1, Nudge(current_view_id=(2, 0)))
        raw = frame(body)[4:]
        assert raw.decode("utf-8") == json.dumps(body, sort_keys=True)


class TestRejection:
    def test_truncated_length_prefix(self):
        with pytest.raises(WireFormatError, match="length prefix"):
            deframe(b"\x00\x00")

    def test_truncated_body(self):
        data = frame({"k": "v"})
        with pytest.raises(WireFormatError, match="truncated"):
            deframe(data[:-2])

    def test_trailing_bytes_refused(self):
        data = frame({"k": "v"}) + b"x"
        with pytest.raises(WireFormatError, match="trailing"):
            deframe(data)

    def test_garbage_body(self):
        garbage = b"\x00\x00\x00\x04\xff\xfe\xfd\xfc"
        with pytest.raises(WireFormatError, match="not canonical JSON"):
            deframe(garbage)

    def test_hostile_length_refused(self):
        import struct

        data = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"{}"
        with pytest.raises(WireFormatError, match="cap"):
            deframe(data)

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(WireFormatError, match="cap"):
            frame("x" * (MAX_FRAME_BYTES + 1))

    def test_unknown_tag(self):
        with pytest.raises(WireFormatError, match="unknown wire tag"):
            decode_value(["Z", []])

    def test_unregistered_class(self):
        with pytest.raises(WireFormatError, match="unregistered"):
            decode_value(["C", "Subprocess", {}])

    def test_unencodable_object_refused(self):
        with pytest.raises(WireFormatError, match="cannot encode"):
            encode_value(object())

    def test_unregistered_dataclass_refused_at_encode(self):
        from dataclasses import dataclass

        @dataclass
        class NotOnTheWire:
            x: int

        with pytest.raises(WireFormatError, match="not a registered"):
            encode_value(NotOnTheWire(x=1))

    def test_field_mismatch_refused(self):
        with pytest.raises(WireFormatError, match="do not match"):
            decode_value(["C", "Nudge", {"wrong_field": 1}])

    def test_constructor_rejection_is_wire_error(self):
        # Session.__post_init__ refuses negative numbers; the decoder
        # must surface that as a wire error, not a raw ValueError.
        encoded = encode_value(Session(number=0, members=frozenset({1})))
        encoded[2]["number"] = -1
        with pytest.raises(WireFormatError, match="rejected decoded fields"):
            decode_value(encoded)

    def test_non_pid_frozenset_refused(self):
        with pytest.raises(WireFormatError, match="process ids"):
            encode_value(frozenset({"a"}))
        with pytest.raises(WireFormatError, match="process ids"):
            decode_value(["F", ["a"]])

    def test_malformed_datagram_body(self):
        with pytest.raises(WireFormatError, match="malformed datagram"):
            decode_datagram({"src": 0, "payload": None})
        with pytest.raises(WireFormatError, match="process ids"):
            decode_datagram({"src": "zero", "dst": 1, "payload": None})



def test_registry_covers_every_protocol_item():
    # The registry is the explicit allow-list of what travels between
    # real processes: the membership control plane, the vsync envelope,
    # the algorithm envelope and every per-algorithm protocol item.
    names = set(wire_registry())
    assert {
        "Propose", "Ack", "Install", "Nudge", "ViewMessage",
        "Message", "Piggyback", "Session", "View",
        "StateItem", "AttemptItem", "ConfirmItem",
        "TryItem", "AttemptVoteItem", "ShareItem", "InfoItem",
        "FailCallItem", "PutOp", "SyncOffer",
    } <= names
