"""Unit tests for the go-back-N ARQ behind the network transports.

The state machines are pure — ``now`` is an argument, frames are plain
dicts — so the whole reliability protocol is exercised here without a
single socket: loss (via withheld delivery), duplication, reordering,
window stalls, retransmission timing and the hold-back used when a
destination becomes unreachable.
"""

import pytest

from repro.errors import WireFormatError
from repro.gcs.transport.arq import (
    DEFAULT_WINDOW,
    ArqReceiver,
    ArqSender,
    ReliableLinkMap,
)


def pump(sender, receiver, now, deliver=lambda frame: True):
    """One carrier round: transmit due frames, maybe deliver, ack back."""
    delivered = []
    for frm in sender.frames_due(now):
        if not deliver(frm):
            continue
        bodies, ack = receiver.on_data(frm)
        delivered.extend(bodies)
        sender.on_ack(ack["ack"])
    return delivered


class TestLossFreePath:
    def test_fifo_delivery_and_ack_drain(self):
        sender, receiver = ArqSender(0, 1), ArqReceiver(0, 1)
        for body in ("a", "b", "c"):
            sender.queue(body)
        assert pump(sender, receiver, now=0.0) == ["a", "b", "c"]
        assert sender.pending() == 0
        assert sender.retransmissions == 0
        assert receiver.duplicates == 0

    def test_frames_not_redelivered_before_rto(self):
        sender = ArqSender(0, 1, rto=0.05)
        sender.queue("a")
        assert len(sender.frames_due(0.0)) == 1
        assert sender.frames_due(0.01) == []  # in flight, not yet due

    def test_window_limits_in_flight(self):
        sender = ArqSender(0, 1, rto=1000.0, window=4)
        for i in range(10):
            sender.queue(i)
        due = sender.frames_due(0.0)
        assert [f["body"] for f in due] == [0, 1, 2, 3]
        # Acking the first two slides the window by two.
        sender.on_ack(2)
        assert [f["body"] for f in sender.frames_due(1.0)] == [4, 5]


class TestLossRecovery:
    def test_lost_data_is_retransmitted_after_rto(self):
        sender, receiver = ArqSender(0, 1, rto=0.05), ArqReceiver(0, 1)
        sender.queue("a")
        # First transmission vanishes on the carrier.
        assert pump(sender, receiver, 0.0, deliver=lambda f: False) == []
        assert sender.pending() == 1
        # Before the timeout nothing happens; after it, recovery.
        assert pump(sender, receiver, 0.02) == []
        assert pump(sender, receiver, 0.06) == ["a"]
        assert sender.retransmissions == 1
        assert sender.pending() == 0

    def test_lost_ack_causes_duplicate_then_reack(self):
        sender, receiver = ArqSender(0, 1, rto=0.05), ArqReceiver(0, 1)
        sender.queue("a")
        # Data arrives but the ack is lost: deliver by hand, drop ack.
        (frm,) = sender.frames_due(0.0)
        bodies, _lost_ack = receiver.on_data(frm)
        assert bodies == ["a"]
        # Sender retransmits; receiver discards the duplicate but acks.
        assert pump(sender, receiver, 0.1) == []
        assert receiver.duplicates == 1
        assert sender.pending() == 0

    def test_reordered_frames_deliver_in_order(self):
        receiver = ArqReceiver(0, 1)
        data = lambda seq: {"kind": "data", "src": 0, "dst": 1,
                            "seq": seq, "body": f"m{seq}"}
        bodies, ack = receiver.on_data(data(2))
        assert bodies == [] and ack["ack"] == 0  # gap: buffered
        bodies, ack = receiver.on_data(data(0))
        assert bodies == ["m0"] and ack["ack"] == 1
        bodies, ack = receiver.on_data(data(1))
        assert bodies == ["m1", "m2"] and ack["ack"] == 3

    def test_every_frame_acked_even_duplicates(self):
        receiver = ArqReceiver(0, 1)
        frm = {"kind": "data", "src": 0, "dst": 1, "seq": 0, "body": "x"}
        _, first = receiver.on_data(frm)
        _, again = receiver.on_data(frm)
        assert first["ack"] == again["ack"] == 1

    def test_garbage_beyond_double_window_dropped(self):
        receiver = ArqReceiver(0, 1, window=4)
        bodies, ack = receiver.on_data(
            {"kind": "data", "src": 0, "dst": 1, "seq": 1000, "body": "evil"}
        )
        assert bodies == [] and ack["ack"] == 0
        # It was not buffered: filling the gap releases only real frames.
        bodies, _ = receiver.on_data(
            {"kind": "data", "src": 0, "dst": 1, "seq": 0, "body": "ok"}
        )
        assert bodies == ["ok"]

    def test_bad_seq_refused(self):
        receiver = ArqReceiver(0, 1)
        with pytest.raises(WireFormatError, match="bad seq"):
            receiver.on_data({"kind": "data", "src": 0, "dst": 1,
                              "seq": "x", "body": None})
        with pytest.raises(WireFormatError, match="bad seq"):
            receiver.on_data({"kind": "data", "src": 0, "dst": 1,
                              "seq": -1, "body": None})


class TestHoldBack:
    def test_hold_back_pauses_then_resumes_from_base(self):
        sender = ArqSender(0, 1, rto=10.0)
        for body in ("a", "b"):
            sender.queue(body)
        assert len(sender.frames_due(0.0)) == 2
        # Destination unreachable: frames go back to never-sent, so a
        # huge rto no longer delays their (re)transmission on heal.
        sender.hold_back()
        due = sender.frames_due(0.1)
        assert [f["body"] for f in due] == ["a", "b"]
        # hold_back transmissions do not count as timeouts.
        assert sender.retransmissions == 0


class TestCounters:
    def test_sender_counters_track_the_wire(self):
        sender, receiver = ArqSender(0, 1, rto=0.05), ArqReceiver(0, 1)
        for body in ("a", "b"):
            sender.queue(body)
        # First round lost; second round retransmits both frames.
        pump(sender, receiver, 0.0, deliver=lambda f: False)
        pump(sender, receiver, 0.1)
        stats = sender.stats()
        assert stats["transmissions"] == 4
        assert stats["retransmissions"] == 2
        assert stats["acks_received"] == 2
        assert stats["unacked"] == 0
        assert stats["hold_backs"] == 0

    def test_receiver_counters_track_delivery(self):
        receiver = ArqReceiver(0, 1)
        frame = {"kind": "data", "src": 0, "dst": 1, "seq": 0, "body": "x"}
        gap = {"kind": "data", "src": 0, "dst": 1, "seq": 2, "body": "z"}
        receiver.on_data(frame)
        receiver.on_data(frame)  # duplicate
        receiver.on_data(gap)    # buffered, not deliverable
        stats = receiver.stats()
        assert stats == {
            "delivered": 1, "duplicates": 1, "acks_sent": 3, "buffered": 1,
        }

    def test_hold_back_counts_only_in_flight_frames(self):
        sender = ArqSender(0, 1, rto=10.0, window=1)
        sender.queue("sent")
        sender.queue("queued-beyond-window")
        sender.frames_due(0.0)  # transmits only the first frame
        sender.hold_back()
        assert sender.stats()["hold_backs"] == 1


class TestLinkMap:
    def test_links_are_directed_and_cached(self):
        links = ReliableLinkMap()
        assert links.sender(0, 1) is links.sender(0, 1)
        assert links.sender(0, 1) is not links.sender(1, 0)
        assert links.receiver(0, 1) is not links.receiver(1, 0)

    def test_unacked_and_retransmissions_aggregate(self):
        links = ReliableLinkMap(rto=0.05)
        links.sender(0, 1).queue("a")
        links.sender(0, 2).queue("b")
        assert links.unacked() == 2
        for sender in links.senders():
            sender.frames_due(0.0)
            sender.frames_due(1.0)  # all time out once
        assert links.retransmissions() == 2

    def test_default_window_matches_module_constant(self):
        links = ReliableLinkMap()
        assert links.sender(0, 1).window == DEFAULT_WINDOW

    def test_hold_back_towards_pauses_matching_links_only(self):
        links = ReliableLinkMap(rto=10.0)
        for dst in (1, 2, 3):
            links.sender(0, dst).queue(f"to-{dst}")
        for sender in links.senders():
            sender.frames_due(0.0)
        links.hold_back_towards(0, frozenset({1, 2}))
        assert links.sender(0, 1).stats()["hold_backs"] == 1
        assert links.sender(0, 2).stats()["hold_backs"] == 1
        assert links.sender(0, 3).stats()["hold_backs"] == 0
        # Held frames are due again immediately despite the huge rto.
        assert len(links.sender(0, 1).frames_due(0.1)) == 1
        assert links.sender(0, 3).frames_due(0.1) == []

    def test_aggregate_stats_fold_both_directions(self):
        links = ReliableLinkMap(rto=0.05)
        sender = links.sender(0, 1)
        receiver = links.receiver(0, 1)
        sender.queue("a")
        for frame in sender.frames_due(0.0):
            _, ack = receiver.on_data(frame)
            sender.on_ack(ack["ack"])
        stats = links.stats()
        assert stats["links"] == 1
        assert stats["transmissions"] == 1
        assert stats["acks_received"] == 1
        assert stats["delivered"] == 1
        assert stats["acks_sent"] == 1
        assert stats["unacked"] == 0 and stats["buffered"] == 0

    @pytest.mark.parametrize(
        "read, half, hook",
        [
            ("stats", "sender", "stats"),
            ("stats", "receiver", "stats"),
            ("unacked", "sender", "pending"),
        ],
    )
    def test_a_link_created_during_a_sweep_does_not_break_it(
        self, read, half, hook
    ):
        # The loop thread creates links while the driving thread reads
        # the aggregates: a sweep over the live dicts would raise
        # "dictionary changed size during iteration".
        links = ReliableLinkMap()
        swept = getattr(links, half)(0, 1)
        getattr(links, half)(0, 2)
        original = getattr(swept, hook)

        def hook_creating_links():
            links.sender(5, 6)
            links.receiver(5, 6)
            return original()

        setattr(swept, hook, hook_creating_links)
        getattr(links, read)()
        assert (5, 6) in links._senders and (5, 6) in links._receivers
