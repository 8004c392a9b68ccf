"""Pluggable packet backends for the group communication stack.

The supported surface (see ``docs/transports.md``):

* :class:`Transport` — the driver interface every backend implements.
* :class:`Datagram` — the unicast packet as the stack sees it.
* :class:`MemoryTransport` — the deterministic in-memory default.
* :class:`UdpTransport` — the asyncio localhost backend running a
  go-back-N ARQ over real sockets.
* :func:`resolve_transport` — the ``transport=`` argument resolver
  (``None`` | ``"memory"`` | ``"udp"`` | instance).
"""

from repro.gcs.transport.arq import (
    ArqReceiver,
    ArqSender,
    DEFAULT_WINDOW,
    ReliableLinkMap,
)
from repro.gcs.transport.asyncnet import UdpTransport
from repro.gcs.transport.base import Datagram, Transport, resolve_transport
from repro.gcs.transport.memory import MemoryTransport
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

__all__ = [
    # Driver interface.
    "Transport",
    "Datagram",
    "resolve_transport",
    # Backends.
    "MemoryTransport",
    "UdpTransport",
    # Reliable-link machinery.
    "ArqSender",
    "ArqReceiver",
    "ReliableLinkMap",
    "DEFAULT_WINDOW",
    # Wire format.
    "MAX_FRAME_BYTES",
    "encode_value",
    "decode_value",
    "encode_datagram",
    "decode_datagram",
    "frame",
    "deframe",
    "wire_registry",
]
