"""A Transis-like group communication substrate (thesis §2.1).

The simulation driver in `repro.sim` plays the group-communication role
directly, exactly as the thesis' testing system did.  This package
builds the real thing the thesis originally deployed YKD on: a
pluggable packet transport (in-memory or UDP — see
:mod:`repro.gcs.transport`), failure detection, coordinator-based
membership agreement, view-synchronous multicast, and an adapter that
runs any registered primary-component algorithm over the negotiated
views.  :mod:`repro.gcs.proc` additionally hosts the stack in real OS
processes exchanging datagrams over real sockets.
"""

from repro.gcs.adapter import AlgorithmOnGCS, PrimaryComponentService
from repro.gcs.membership import AgreedView, MembershipAgent, ViewId
from repro.gcs.stack import Delivered, GCSCluster, GCSEvent, GCStack, ViewInstalled
from repro.gcs.transport import (
    Datagram,
    MemoryTransport,
    Transport,
    UdpTransport,
    resolve_transport,
)
from repro.gcs.vsync import ViewMessage, VSyncLayer

__all__ = [
    "AgreedView",
    "AlgorithmOnGCS",
    "Datagram",
    "Delivered",
    "GCSCluster",
    "GCSEvent",
    "GCStack",
    "MembershipAgent",
    "MemoryTransport",
    "PrimaryComponentService",
    "Transport",
    "UdpTransport",
    "ViewId",
    "ViewInstalled",
    "ViewMessage",
    "VSyncLayer",
    "resolve_transport",
]
