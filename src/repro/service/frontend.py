"""An asyncio HTTP front end for replicated-store nodes (stdlib only).

One :class:`ServiceFrontend` fronts one replica.  The HTTP dialect is
deliberately tiny — HTTP/1.1, ``Content-Length`` framing, one request
per connection — because the point is not a web server but the service
*contract*:

* ``GET /kv/<key>`` — read from this replica (possibly stale outside
  the primary; the guarantee protects writes, not reads);
* ``PUT /kv/<key>`` with a JSON body ``{"value": ...}`` — write; a
  replica outside the primary answers **307** with a ``Location``
  naming the current primary's front end (the structured
  ``NotPrimaryError`` redirect), or **503** with a causal blame tag
  when no primary exists anywhere;
* a ``Content-Length`` over 1 MiB is refused with **413**, body unread;
* more than 100 header lines are refused with **431**, the rest of the
  request unread;
* a request not read in full within 10 s of the connection is answered
  **408** and the connection closed;
* ``GET /snapshot`` — full contents plus the ``(epoch, ops)`` stamp;
* ``GET /healthz`` — liveness plus the store's operational counters
  and the transport's aggregate ARQ counters (transmissions,
  retransmissions, cumulative acks, hold-backs);
* ``GET /ops`` — the cluster's live ops view (claimants, per-component
  blame, in-progress view-agreement windows);
* ``GET /metrics`` — the scrape plane: this front end's request
  counters and latency histogram plus the node's health gauges, in
  Prometheus text format (:mod:`repro.obs.telemetry.prom`);
* ``GET /telemetry`` — the flight-recorder streams visible from this
  node (the front end's own ring plus the replica's), as canonical
  JSONL.

Every request may carry an ``X-Repro-Trace`` header; the id is
propagated into the store op it triggers and recorded alongside the
HTTP event in the front end's flight ring, which is how a replayed
load generator's request joins against what each hop saw.

Backends are pluggable: :class:`MemoryNodeBackend` fronts a
:class:`~repro.service.cluster.StoreCluster` replica in-process (a
:class:`FrontendGroup` runs one front end per replica plus the tick
driver), and :class:`ProcNodeBackend` fronts one node of a real
multi-process :class:`~repro.gcs.proc.controller.ProcCluster` (a
:class:`ProcFrontendGroup` fronts *every* node, so redirects can be
followed end-to-end and the scrape plane has a target per replica).
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Optional, Tuple

from repro.app.replicated_store import NotPrimaryError
from repro.obs.canonical import canonical_json, canonical_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry.prom import render_prometheus
from repro.obs.telemetry.recorder import FLIGHT_HEADER_KIND, FlightRecorder
from repro.obs.telemetry.trace import TRACE_HEADER
from repro.types import ProcessId

_REASONS = {200: "OK", 307: "Temporary Redirect", 400: "Bad Request",
            404: "Not Found", 408: "Request Timeout",
            413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            503: "Service Unavailable"}
_MAX_BODY = 1 << 20
_MAX_HEADER_LINES = 100
#: The deadline for reading one whole request: line, headers and body.
_READ_TIMEOUT_S = 10.0

#: Latency buckets in milliseconds (sub-ms loopback up to slow ticks).
_LATENCY_BUCKETS_MS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class _Refused(ValueError):
    """A request refused with ``status`` before the rest of it is read:
    413 for a body over ``_MAX_BODY``, 431 for a header block over
    ``_MAX_HEADER_LINES`` lines, 408 past ``_READ_TIMEOUT_S``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Request:
    """What has been read of one request so far.

    Filled in as the request is parsed, so a request refused part-way
    (408, 413, 431 or a malformed header) is still counted and
    flight-recorded under the method and route its request line named.
    """

    __slots__ = ("method", "path", "trace")

    def __init__(self) -> None:
        self.method: Optional[str] = None
        self.path: Optional[str] = None
        self.trace: Optional[str] = None


class MemoryNodeBackend:
    """One in-process replica of a :class:`StoreCluster`."""

    def __init__(self, cluster, pid: ProcessId) -> None:
        self.cluster = cluster
        self.pid = pid

    def get(self, key: str, trace: Optional[str] = None) -> Any:
        """Read a key from this replica's local state."""
        return self.cluster.get(self.pid, key, trace=trace)

    def put(self, key: str, value: Any, trace: Optional[str] = None):
        """Write through this replica; raises NotPrimaryError outside."""
        return list(self.cluster.put(self.pid, key, value, trace=trace).stamp)

    def snapshot(self) -> Dict[str, Any]:
        """Full contents plus the replica's ``(epoch, ops)`` stamp."""
        store = self.cluster.store(self.pid)
        return {"data": store.snapshot(), "stamp": list(store.stamp)}

    def healthz(self) -> Dict[str, Any]:
        """Liveness plus the store's and the transport's ARQ counters."""
        store = self.cluster.store(self.pid)
        return {
            "ok": True,
            "pid": self.pid,
            "in_primary": store.in_primary(),
            "store": store.stats(),
            "arq": self.cluster.service.cluster.transport.arq_stats(),
        }

    def flight_snapshot(self) -> Optional[Dict[str, Any]]:
        """The replica's flight-recorder stream (None when off)."""
        recorder = self.cluster.recorders.get(self.pid)
        return None if recorder is None else recorder.snapshot()

    def ops(self) -> Dict[str, Any]:
        """The cluster-wide live ops view."""
        return self.cluster.ops_view()

    def primary_claimants(self) -> Tuple[ProcessId, ...]:
        """Who currently claims the primary (for redirects)."""
        return tuple(self.cluster.primary_claimants())

    def blame(self) -> Optional[str]:
        """Why a write here would go unserved (None when servable)."""
        return self.cluster.blame_for(self.pid)


class ProcNodeBackend:
    """One node of a real multi-process cluster, over the pipe protocol."""

    def __init__(self, cluster, pid: ProcessId) -> None:
        self.cluster = cluster
        self.pid = pid

    def get(self, key: str, trace: Optional[str] = None) -> Any:
        """Read a key from this node over the pipe protocol."""
        return self.cluster.get(self.pid, key, trace=trace)

    def put(self, key: str, value: Any, trace: Optional[str] = None):
        """Write through this node; refusals become NotPrimaryError."""
        accepted, info = self.cluster.put(self.pid, key, value, trace=trace)
        if not accepted:
            raise NotPrimaryError(info)
        return list(info)

    def snapshot(self) -> Dict[str, Any]:
        """Full contents plus the node's ``(epoch, ops)`` stamp."""
        snap = self.cluster.snapshot(self.pid)
        return {"data": snap["data"], "stamp": list(snap["stamp"])}

    def healthz(self) -> Dict[str, Any]:
        """Liveness plus the node's store and ARQ counters (one poll)."""
        status = self.cluster.statuses()[self.pid]
        return {
            "ok": True,
            "pid": self.pid,
            "in_primary": status["in_primary"],
            "store": status["store"],
            "arq": status["arq"],
        }

    def flight_snapshot(self) -> Optional[Dict[str, Any]]:
        """The node's flight-recorder stream, over the pipe."""
        return self.cluster.node_telemetry(self.pid)

    def ops(self) -> Dict[str, Any]:
        """A cross-node ops view assembled from status round-trips."""
        statuses = self.cluster.statuses()
        return {
            "kind": "repro.service/ops",
            "primary": sorted(
                pid for pid, status in statuses.items()
                if status["in_primary"]
            ),
            "nodes": [
                {
                    "pid": pid,
                    "in_primary": status["in_primary"],
                    "view": list(status["view"]),
                    "store": status["store"],
                }
                for pid, status in sorted(statuses.items())
            ],
        }

    def primary_claimants(self) -> Tuple[ProcessId, ...]:
        """Who currently claims the primary, per the latest statuses."""
        return tuple(
            pid for pid, status in sorted(self.cluster.statuses().items())
            if status["in_primary"]
        )

    def blame(self) -> Optional[str]:
        """No causal blame is available over the pipe protocol."""
        return None


class ServiceFrontend:
    """The HTTP face of one replica; ``peers`` maps pid → (host, port)."""

    def __init__(
        self,
        backend,
        peers: Optional[Dict[ProcessId, Tuple[str, int]]] = None,
    ) -> None:
        self.backend = backend
        self.peers = peers if peers is not None else {}
        self.address: Optional[Tuple[str, int]] = None
        self.recorder = FlightRecorder(
            f"frontend-{getattr(backend, 'pid', '?')}", capacity=1024
        )
        self.metrics = MetricsRegistry()
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and serve; returns the (host, port) actually bound."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        """Close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Request handling.
    # ------------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        started = time.monotonic()
        request = _Request()
        try:
            body = await self._read_request(reader, request)
            status, payload, headers = self._route(
                request.method, request.path, body, request.trace
            )
        except _Refused as exc:
            status, payload, headers = exc.status, {"error": str(exc)}, []
        except Exception as exc:  # defensive: a broken request
            status, payload, headers = 400, {"error": str(exc)}, []
        self._observe(request, status, time.monotonic() - started)
        if isinstance(payload, str):
            # Text routes (/metrics, /telemetry) set their own type.
            body_bytes = payload.encode("utf-8")
        else:
            body_bytes = canonical_json(payload).encode("utf-8") + b"\n"
            headers = ["Content-Type: application/json", *headers]
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Length: {len(body_bytes)}",
            "Connection: close",
        ]
        head.extend(headers)
        writer.write(
            "\r\n".join(head).encode("ascii") + b"\r\n\r\n" + body_bytes
        )
        try:
            await writer.drain()
        finally:
            writer.close()

    async def _read_request(self, reader, request: _Request) -> bytes:
        # One deadline for the whole request: a timer that cancels this
        # handler, not a task per request as asyncio.wait_for would start.
        task = asyncio.current_task()
        expired = []
        timer = asyncio.get_running_loop().call_later(
            _READ_TIMEOUT_S, lambda: expired.append(task.cancel())
        )
        try:
            return await self._read_request_parts(reader, request)
        except asyncio.CancelledError:
            if not expired:
                raise
            if hasattr(task, "uncancel") and task.uncancel():
                raise  # Python 3.11+: an outside cancel is pending too
            raise _Refused(
                408, f"request not read within {_READ_TIMEOUT_S:g} s"
            ) from None
        finally:
            timer.cancel()

    async def _read_request_parts(self, reader, request: _Request) -> bytes:
        """Read one request into ``request``; returns its body."""
        parts = (await reader.readline()).decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        request.method, request.path = parts[0].upper(), parts[1]
        length = 0
        for count in range(_MAX_HEADER_LINES + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if count == _MAX_HEADER_LINES:
                raise _Refused(
                    431, f"more than {_MAX_HEADER_LINES} header lines"
                )
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
                if length < 0:
                    raise ValueError(f"negative Content-Length {length}")
            elif name == TRACE_HEADER.lower():
                request.trace = value.strip()
        if length > _MAX_BODY:
            raise _Refused(
                413,
                f"body of {length} bytes exceeds the {_MAX_BODY}-byte limit"
            )
        return await reader.readexactly(length) if length else b""

    def _route(
        self, method: str, path: str, body: bytes, trace: Optional[str]
    ):
        if method == "GET" and path == "/healthz":
            return 200, self.backend.healthz(), []
        if method == "GET" and path == "/ops":
            return 200, self.backend.ops(), []
        if method == "GET" and path == "/snapshot":
            return 200, self.backend.snapshot(), []
        if method == "GET" and path == "/metrics":
            return 200, self._metrics_text(), [
                "Content-Type: text/plain; version=0.0.4",
            ]
        if method == "GET" and path == "/telemetry":
            return 200, self._telemetry_text(), [
                "Content-Type: application/jsonl",
            ]
        if path.startswith("/kv/") and len(path) > len("/kv/"):
            key = path[len("/kv/"):]
            if method == "GET":
                return 200, {
                    "key": key,
                    "value": self.backend.get(key, trace=trace),
                }, []
            if method == "PUT":
                return self._put(key, body, trace)
        return 404, {"error": f"no route for {method} {path}"}, []

    def _put(self, key: str, body: bytes, trace: Optional[str]):
        try:
            value = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "body must be JSON"}, []
        if not isinstance(value, dict) or "value" not in value:
            return 400, {"error": 'body must be {"value": ...}'}, []
        try:
            stamp = self.backend.put(key, value["value"], trace=trace)
            return 200, {"key": key, "stamp": stamp}, []
        except NotPrimaryError:
            return self._not_primary(key)

    def _not_primary(self, key: str):
        claimants = sorted(self.backend.primary_claimants())
        if claimants:
            payload = {"error": "not_primary", "primary": claimants}
            headers = []
            address = self.peers.get(claimants[0])
            if address is not None:
                host, port = address
                headers.append(f"Location: http://{host}:{port}/kv/{key}")
            return 307, payload, headers
        return 503, {"error": "no_primary", "blame": self.backend.blame()}, []

    # ------------------------------------------------------------------
    # Telemetry (the scrape plane and the flight ring).
    # ------------------------------------------------------------------

    @staticmethod
    def _route_label(path: Optional[str]) -> str:
        """A bounded-cardinality route label (keys collapse to /kv)."""
        if path is None:
            return "?"
        if path.startswith("/kv/"):
            return "/kv"
        return path

    def _observe(self, request: _Request, status: int, seconds: float) -> None:
        route = self._route_label(request.path)
        node = getattr(self.backend, "pid", "?")
        self.metrics.counter(
            "service.http.requests", node=node, route=route, status=status
        ).inc()
        self.metrics.histogram(
            "service.http.latency_ms", buckets=_LATENCY_BUCKETS_MS, node=node
        ).observe(int(seconds * 1000))
        event = {
            "method": request.method or "?", "route": route, "status": status
        }
        if request.trace is not None:
            event["trace"] = request.trace
        if status in (503, 307):
            event["blame"] = self.backend.blame()
        self.recorder.record("http_request", **event)

    def _metrics_text(self) -> str:
        """The Prometheus exposition of this node (one scrape)."""
        registry = MetricsRegistry()
        registry.merge(self.metrics)
        node = getattr(self.backend, "pid", "?")
        health = self.backend.healthz()
        registry.gauge("service.node.in_primary", node=node).set(
            int(bool(health.get("in_primary")))
        )
        for group in ("store", "arq"):
            for key, value in sorted((health.get(group) or {}).items()):
                if isinstance(value, (int, float)):
                    registry.gauge(f"service.{group}.{key}", node=node).set(
                        value
                    )
        registry.gauge(
            "service.flight.recorded", node=self.recorder.node
        ).set(self.recorder.recorded)
        registry.gauge(
            "service.flight.dropped", node=self.recorder.node
        ).set(self.recorder.dropped)
        return render_prometheus(registry)

    def _telemetry_text(self) -> str:
        """Flight streams visible from this node, as canonical JSONL."""
        lines = [self.recorder.header(), *self.recorder.events()]
        flight = None
        if hasattr(self.backend, "flight_snapshot"):
            flight = self.backend.flight_snapshot()
        if flight is not None:
            lines.append(
                {
                    "kind": FLIGHT_HEADER_KIND,
                    "node": flight["node"],
                    "capacity": flight.get("capacity"),
                    "recorded": flight.get("recorded"),
                    "dropped": flight.get("dropped", 0),
                }
            )
            lines.extend(flight["events"])
        return canonical_jsonl(lines)


class FrontendGroup:
    """Every replica's front end plus the loop that ticks the cluster."""

    def __init__(self, cluster, tick_interval: float = 0.005) -> None:
        self.cluster = cluster
        self.tick_interval = tick_interval
        self.peers: Dict[ProcessId, Tuple[str, int]] = {}
        self.frontends: Dict[ProcessId, ServiceFrontend] = {
            pid: ServiceFrontend(MemoryNodeBackend(cluster, pid), self.peers)
            for pid in range(cluster.n_processes)
        }
        self._ticker: Optional[asyncio.Task] = None

    async def start(self, host: str = "127.0.0.1", base_port: int = 0):
        """Start every front end plus the tick driver; returns peers."""
        for pid in sorted(self.frontends):
            port = base_port + pid if base_port else 0
            self.peers[pid] = await self.frontends[pid].start(host, port)
        self._ticker = asyncio.ensure_future(self._run_ticker())
        return dict(self.peers)

    async def _run_ticker(self) -> None:
        while True:
            self.cluster.tick()
            await asyncio.sleep(self.tick_interval)

    async def stop(self) -> None:
        """Cancel the ticker and close every front end."""
        if self._ticker is not None:
            self._ticker.cancel()
            try:
                await self._ticker
            except asyncio.CancelledError:
                pass
            self._ticker = None
        for frontend in self.frontends.values():
            await frontend.stop()


class ProcFrontendGroup:
    """One HTTP face per node of a real multi-process cluster.

    The proc nodes tick themselves (real time, real sockets), so there
    is no tick driver here — just every node fronted, sharing one peers
    map so a 307 redirect from any replica names a followable URL and
    the scrape plane has a ``/metrics`` target per replica.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.peers: Dict[ProcessId, Tuple[str, int]] = {}
        self.frontends: Dict[ProcessId, ServiceFrontend] = {
            pid: ServiceFrontend(ProcNodeBackend(cluster, pid), self.peers)
            for pid in range(cluster.n_processes)
        }

    async def start(self, host: str = "127.0.0.1", base_port: int = 0):
        """Start every front end; returns the shared peers map."""
        for pid in sorted(self.frontends):
            port = base_port + pid if base_port else 0
            self.peers[pid] = await self.frontends[pid].start(host, port)
        return dict(self.peers)

    async def stop(self) -> None:
        """Close every front end (the cluster itself stays up)."""
        for frontend in self.frontends.values():
            await frontend.stop()
