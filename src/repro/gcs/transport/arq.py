"""Reliable FIFO links over a lossy carrier: a small ARQ.

The transport contract promises reliable per-(src, dst) FIFO channels
while the endpoints stay connected — exactly what the in-memory
backend provides by construction.  The network backends uphold it over
genuine packet loss with this module: per directed link, a go-back-N
style sender (send window, cumulative acks, timeout retransmission)
and an in-order receiver (out-of-order buffering, duplicate
suppression).

The state machines are deliberately *pure*: no sockets, no clock —
``now`` is passed into every time-dependent method by the caller (the
asyncio driver passes ``loop.time()``), and the module imports neither
``time`` nor ``random`` (the seeded-randomness audit enforces this
structurally).  That keeps the protocol unit-testable without a single
socket and keeps every retransmission decision replayable from the
call trace.

Frame shapes (JSON bodies framed by :mod:`repro.gcs.transport.wire`):

* ``{"kind": "data", "src": s, "dst": d, "seq": n, "body": <datagram>}``
* ``{"kind": "ack",  "src": s, "dst": d, "ack": n}`` — cumulative: the
  receiver has delivered everything below ``n``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import WireFormatError

#: Maximum unacknowledged frames in flight per directed link.
DEFAULT_WINDOW = 32


class ArqSender:
    """The sending half of one directed link (src → dst)."""

    def __init__(
        self,
        src: int,
        dst: int,
        rto: float = 0.05,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.src = src
        self.dst = dst
        self.rto = rto
        self.window = window
        self._next_seq = 0
        #: seq → (body, last transmission time or None if never sent).
        self._unacked: Dict[int, Tuple[Any, Optional[float]]] = {}
        self._base = 0  # lowest unacknowledged seq
        self.transmissions = 0
        self.retransmissions = 0
        self.acks_received = 0
        self.hold_backs = 0

    def queue(self, body: Any) -> int:
        """Accept one datagram body for reliable delivery; returns seq."""
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = (body, None)
        return seq

    def frames_due(self, now: float) -> List[Dict[str, Any]]:
        """Every frame that should hit the wire now.

        Never-sent frames inside the window go out immediately; frames
        whose last transmission is older than ``rto`` are retransmitted.
        Frames beyond the window wait for the base to advance.
        """
        due: List[Dict[str, Any]] = []
        for seq in sorted(self._unacked):
            if seq >= self._base + self.window:
                break
            body, last_sent = self._unacked[seq]
            if last_sent is None or now - last_sent >= self.rto:
                self.transmissions += 1
                if last_sent is not None:
                    self.retransmissions += 1
                self._unacked[seq] = (body, now)
                due.append(
                    {
                        "kind": "data",
                        "src": self.src,
                        "dst": self.dst,
                        "seq": seq,
                        "body": body,
                    }
                )
        return due

    def on_ack(self, ack: int) -> None:
        """A cumulative ack arrived: everything below ``ack`` is done."""
        self.acks_received += 1
        for seq in [s for s in self._unacked if s < ack]:
            del self._unacked[seq]
        self._base = max(self._base, ack)

    def pending(self) -> int:
        """Frames accepted but not yet acknowledged."""
        return len(self._unacked)

    def hold_back(self) -> None:
        """Mark every in-flight frame never-sent (used when the link's
        destination becomes unreachable: transmission pauses without
        losing the queue, and resumes from the base when reachability
        returns)."""
        for seq, (body, last_sent) in list(self._unacked.items()):
            if last_sent is not None:
                self.hold_backs += 1
            self._unacked[seq] = (body, None)

    def stats(self) -> Dict[str, int]:
        """The sender's counters as a JSON-ready dict."""
        return {
            "transmissions": self.transmissions,
            "retransmissions": self.retransmissions,
            "acks_received": self.acks_received,
            "hold_backs": self.hold_backs,
            "unacked": len(self._unacked),
        }


class ArqReceiver:
    """The receiving half of one directed link (src → dst)."""

    def __init__(self, src: int, dst: int, window: int = DEFAULT_WINDOW) -> None:
        self.src = src
        self.dst = dst
        self.window = window
        self._expected = 0
        #: Out-of-order frames buffered until the gap fills.
        self._buffer: Dict[int, Any] = {}
        self.duplicates = 0
        self.delivered = 0
        self.acks_sent = 0

    def on_data(self, frame: Dict[str, Any]) -> Tuple[List[Any], Dict[str, Any]]:
        """Process one data frame → (deliverable bodies, ack frame).

        Bodies come out in send order, exactly once.  The ack is always
        produced (acks are idempotent and the sender needs them to
        drain duplicates).
        """
        seq = frame.get("seq")
        if not isinstance(seq, int) or seq < 0:
            raise WireFormatError(f"data frame with bad seq: {frame!r}")
        deliverable: List[Any] = []
        if seq < self._expected:
            self.duplicates += 1
        elif seq < self._expected + 2 * self.window:
            self._buffer.setdefault(seq, frame.get("body"))
            while self._expected in self._buffer:
                deliverable.append(self._buffer.pop(self._expected))
                self._expected += 1
        # Beyond twice the window: drop silently; the sender's window
        # can never legitimately reach there, so it is garbage.
        self.delivered += len(deliverable)
        self.acks_sent += 1
        return deliverable, {
            "kind": "ack",
            "src": self.dst,
            "dst": self.src,
            "ack": self._expected,
        }

    def stats(self) -> Dict[str, int]:
        """The receiver's counters as a JSON-ready dict."""
        return {
            "delivered": self.delivered,
            "duplicates": self.duplicates,
            "acks_sent": self.acks_sent,
            "buffered": len(self._buffer),
        }


class ReliableLinkMap:
    """All ARQ state one node holds, keyed by directed link.

    Links are created and driven on the transport's loop thread; the
    read paths (:meth:`senders`, :meth:`unacked`,
    :meth:`retransmissions`, :meth:`stats`) also run on the driving
    thread, so each sweeps a snapshot of the link dicts, never the
    live dicts a new link may grow under it.
    """

    def __init__(self, rto: float = 0.05, window: int = DEFAULT_WINDOW) -> None:
        self.rto = rto
        self.window = window
        self._senders: Dict[Tuple[int, int], ArqSender] = {}
        self._receivers: Dict[Tuple[int, int], ArqReceiver] = {}

    def sender(self, src: int, dst: int) -> ArqSender:
        """The (lazily created) sending half of the src → dst link."""
        key = (src, dst)
        if key not in self._senders:
            self._senders[key] = ArqSender(
                src, dst, rto=self.rto, window=self.window
            )
        return self._senders[key]

    def receiver(self, src: int, dst: int) -> ArqReceiver:
        """The (lazily created) receiving half of the src → dst link."""
        key = (src, dst)
        if key not in self._receivers:
            self._receivers[key] = ArqReceiver(src, dst, window=self.window)
        return self._receivers[key]

    def senders(self) -> List[ArqSender]:
        """Every sender created so far (for pump/flush sweeps)."""
        return list(self._senders.values())

    def unacked(self) -> int:
        """Total frames queued-or-in-flight across every sender."""
        return sum(sender.pending() for sender in self.senders())

    def retransmissions(self) -> int:
        """Total timeout retransmissions across every sender."""
        return sum(s.retransmissions for s in self.senders())

    def hold_back_towards(self, src: int, dsts: "frozenset[int]") -> None:
        """Pause every ``src`` → ``dst in dsts`` link (partition onset).

        Each held sender keeps its queue and resumes from its base when
        reachability returns and the pump flushes it again.
        """
        for (sender_src, sender_dst), sender in self._senders.items():
            if sender_src == src and sender_dst in dsts:
                sender.hold_back()

    def stats(self) -> Dict[str, int]:
        """Aggregate ARQ counters across every link (the read path).

        This is what a node's status report and ``/healthz`` surface:
        total (re)transmissions, cumulative acks in both directions,
        hold-backs from partition onsets, and the live queue depths.
        """
        senders = self.senders()
        receivers = list(self._receivers.values())
        totals = {
            "links": len(senders),
            "transmissions": 0,
            "retransmissions": 0,
            "acks_received": 0,
            "hold_backs": 0,
            "unacked": 0,
            "delivered": 0,
            "duplicates": 0,
            "acks_sent": 0,
            "buffered": 0,
        }
        for sender in senders:
            for key, value in sender.stats().items():
                totals[key] += value
        for receiver in receivers:
            for key, value in receiver.stats().items():
                totals[key] += value
        return totals
