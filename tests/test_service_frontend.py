"""The HTTP face of the service: routes, redirects and blame payloads.

Exercises real sockets through real ``asyncio`` servers — no HTTP
library, no pytest plugin — with the cluster ticked deterministically
from the test (writes apply synchronously at the replica, so requests
need no concurrent tick driver).  The contract under test:

* 200s for put/get/snapshot/healthz/ops on a healthy primary replica;
* **307** with a ``Location`` naming the current primary when a fenced
  minority replica refuses a write;
* **503** carrying the causal blame category when no primary exists
  anywhere in the universe;
* 400/404 for malformed bodies and unknown routes, **413** for a
  declared body over the limit, **408** for a request that stalls.
"""

import asyncio
import json

import pytest

from repro.service import StoreCluster, frontend
from repro.service.frontend import (
    _MAX_BODY,
    _MAX_HEADER_LINES,
    FrontendGroup,
    MemoryNodeBackend,
    ServiceFrontend,
)

FULL5 = (tuple(range(5)),)
SPLIT5 = ((0, 1), (2, 3, 4))
SINGLETONS5 = tuple((pid,) for pid in range(5))


async def http_raw(address, method, path, body=b"", extra_headers=()):
    """A minimal HTTP/1.1 client: returns (status, headers, raw bytes)."""
    host, port = address
    reader, writer = await asyncio.open_connection(host, port)
    head_lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        f"Content-Length: {len(body)}",
        *extra_headers,
        "Connection: close",
    ]
    writer.write("\r\n".join(head_lines).encode("ascii") + b"\r\n\r\n" + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


async def http(address, method, path, body=b"", extra_headers=()):
    """Like :func:`http_raw` but with the payload JSON-decoded."""
    status, headers, payload = await http_raw(
        address, method, path, body, extra_headers
    )
    return status, headers, json.loads(payload.decode("utf-8"))


def serve(cluster, pids, requests):
    """Boot one frontend per pid (shared peers), run the coroutine."""

    async def body():
        peers = {}
        frontends = {
            pid: ServiceFrontend(MemoryNodeBackend(cluster, pid), peers)
            for pid in pids
        }
        for pid, frontend in frontends.items():
            peers[pid] = await frontend.start()
        try:
            return await requests(peers)
        finally:
            for frontend in frontends.values():
                await frontend.stop()

    return asyncio.run(body())


@pytest.fixture
def cluster():
    built = StoreCluster(5)
    built.apply_stage(FULL5)
    built.warm_up()
    return built


class TestRoutes:
    def test_put_get_snapshot_roundtrip(self, cluster):
        async def requests(peers):
            status, _, answer = await http(
                peers[0], "PUT", "/kv/alpha", b'{"value": 41}'
            )
            assert status == 200
            assert answer["key"] == "alpha"
            assert answer["stamp"] == list(cluster.store(0).stamp)
            cluster.warm_up()  # replicate before reading elsewhere
            status, _, answer = await http(peers[3], "GET", "/kv/alpha")
            assert status == 200
            assert answer == {"key": "alpha", "value": 41}
            status, _, answer = await http(peers[3], "GET", "/snapshot")
            assert status == 200
            assert answer["data"] == {"alpha": 41}
            assert answer["stamp"] == list(cluster.store(3).stamp)

        serve(cluster, range(5), requests)

    def test_healthz_and_ops_views(self, cluster):
        async def requests(peers):
            status, headers, answer = await http(
                peers[2], "GET", "/healthz"
            )
            assert status == 200
            assert headers["content-type"] == "application/json"
            assert answer["ok"] is True
            assert answer["pid"] == 2
            assert answer["in_primary"] is True
            assert answer["store"]["writes_refused"] == 0
            status, _, answer = await http(peers[2], "GET", "/ops")
            assert status == 200
            assert answer["kind"] == "repro.service/ops"
            assert answer["primary"] == [0, 1, 2, 3, 4]
            assert [node["pid"] for node in answer["nodes"]] == [
                0, 1, 2, 3, 4,
            ]

        serve(cluster, range(5), requests)

    def test_unknown_routes_and_bad_bodies(self, cluster):
        async def requests(peers):
            status, _, answer = await http(peers[0], "GET", "/nope")
            assert status == 404
            assert "no route" in answer["error"]
            status, _, _ = await http(peers[0], "PUT", "/kv/x", b"not json")
            assert status == 400
            status, _, answer = await http(
                peers[0], "PUT", "/kv/x", b'{"wrong": 1}'
            )
            assert status == 400
            assert "value" in answer["error"]
            status, _, _ = await http(peers[0], "DELETE", "/kv/x")
            assert status == 404

        serve(cluster, range(5), requests)

    def test_an_oversized_body_is_refused_unread(self, cluster):
        """A declared body over the limit is 413 before any byte of it
        is read, and nothing is written — not even when its first MiB
        is a valid request on its own."""

        async def put_oversized(address):
            host, port = address
            reader, writer = await asyncio.open_connection(host, port)
            head = (
                "PUT /kv/big HTTP/1.1\r\n"
                f"Content-Length: {_MAX_BODY + 1_000_000}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii"))
            await writer.drain()
            try:
                raw = await asyncio.wait_for(reader.read(), timeout=1.0)
            except asyncio.TimeoutError:
                # Still waiting for the body: send a valid first MiB.
                prefix = b'{"value": "oversized"}'
                writer.write(prefix + b" " * (_MAX_BODY - len(prefix)))
                await writer.drain()
                raw = await reader.read()
            writer.close()
            return int(raw.split(b" ", 2)[1])

        async def requests(peers):
            _, _, before = await http(peers[0], "GET", "/snapshot")
            assert await put_oversized(peers[0]) == 413
            _, _, after = await http(peers[0], "GET", "/snapshot")
            assert after == before
            for length in ("-1", "many"):
                status, _, _ = await http(
                    peers[0], "PUT", "/kv/x",
                    extra_headers=[f"Content-Length: {length}"],
                )
                assert status == 400

        serve(cluster, range(5), requests)

    def test_an_oversized_header_block_is_refused_unread(self, cluster):
        """A header line past the limit is 431 at once: the front end
        reads no further — the end of the header block never has to
        arrive — and nothing is written.  A block at the limit is
        served."""

        async def put_without_end(address, n_headers):
            host, port = address
            reader, writer = await asyncio.open_connection(host, port)
            lines = [
                "PUT /kv/wide HTTP/1.1",
                *(f"X-Pad-{i}: {i}" for i in range(n_headers)),
            ]
            writer.write(("\r\n".join(lines) + "\r\n").encode("ascii"))
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            return int(raw.split(b" ", 2)[1]), raw

        async def requests(peers):
            _, _, before = await http(peers[0], "GET", "/snapshot")
            status, raw = await put_without_end(
                peers[0], _MAX_HEADER_LINES + 1
            )
            assert status == 431
            assert b"Request Header Fields Too Large" in raw
            _, _, after = await http(peers[0], "GET", "/snapshot")
            assert after == before
            # http_raw sends three headers of its own.
            padding = [
                f"X-Pad-{i}: {i}" for i in range(_MAX_HEADER_LINES - 3)
            ]
            status, _, _ = await http(
                peers[0], "GET", "/snapshot", extra_headers=padding
            )
            assert status == 200
            status, _, _ = await http(
                peers[0], "GET", "/snapshot", extra_headers=[*padding, "X: 1"]
            )
            assert status == 431

        serve(cluster, range(5), requests)

    @pytest.mark.parametrize(
        "sent, route",
        [
            (b"GET /healthz HTTP/1.1", "?"),
            (b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n", "/healthz"),
        ],
        ids=["request_line", "after_one_header"],
    )
    def test_a_stalled_request_is_answered_408(
        self, cluster, monkeypatch, sent, route
    ):
        """A client that stops sending part-way through its request
        holds the handler only until the read deadline: then it gets
        408 and a closed connection, and the request is counted like
        any other — under its route once the request line was read."""
        monkeypatch.setattr(frontend, "_READ_TIMEOUT_S", 0.2)

        async def stall(address):
            host, port = address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(sent)
            await writer.drain()
            try:
                return await asyncio.wait_for(reader.read(), timeout=2.0)
            finally:
                writer.close()

        async def requests(peers):
            raw = await stall(peers[0])
            head = raw.partition(b"\r\n\r\n")[0].split(b"\r\n")
            assert head[0] == b"HTTP/1.1 408 Request Timeout"
            assert b"Connection: close" in head
            _, _, payload = await http_raw(peers[0], "GET", "/metrics")
            assert (
                f'service_http_requests{{node="0",route="{route}",'
                'status="408"} 1'
                in payload.decode("utf-8")
            )

        serve(cluster, range(5), requests)

    def test_refusals_are_labelled_with_their_request_line(
        self, cluster, monkeypatch
    ):
        """A request refused after its request line was read is counted
        and flight-recorded under that line's method and route."""
        monkeypatch.setattr(frontend, "_READ_TIMEOUT_S", 0.2)

        async def send(address, raw):
            host, port = address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(raw)
            await writer.drain()
            try:
                return await asyncio.wait_for(reader.read(), timeout=2.0)
            finally:
                writer.close()

        async def body():
            node = ServiceFrontend(MemoryNodeBackend(cluster, 0))
            address = await node.start()
            try:
                await send(
                    address, b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                )
                await send(
                    address,
                    b"PUT /kv/x HTTP/1.1\r\n"
                    + f"Content-Length: {_MAX_BODY + 1}\r\n\r\n".encode(),
                )
                _, _, text = await http_raw(address, "GET", "/metrics")
            finally:
                await node.stop()
            return node.recorder.events(), text.decode("utf-8")

        events, text = asyncio.run(body())
        assert (
            'service_http_requests{node="0",route="/healthz",status="408"} 1'
            in text
        )
        assert (
            'service_http_requests{node="0",route="/kv",status="413"} 1'
            in text
        )
        refused = [
            (event["method"], event["route"], event["status"])
            for event in events
            if event.get("status") in (408, 413)
        ]
        assert refused == [("GET", "/healthz", 408), ("PUT", "/kv", 413)]


class TestRedirects:
    def test_minority_put_redirects_to_the_primary(self, cluster):
        cluster.apply_stage(SPLIT5)
        cluster.warm_up()

        async def requests(peers):
            status, headers, answer = await http(
                peers[0], "PUT", "/kv/fenced", b'{"value": 1}'
            )
            assert status == 307
            assert answer == {"error": "not_primary", "primary": [2, 3, 4]}
            host, port = peers[2]
            assert headers["location"] == f"http://{host}:{port}/kv/fenced"
            # Following the redirect serves the write.
            status, _, answer = await http(
                peers[2], "PUT", "/kv/fenced", b'{"value": 1}'
            )
            assert status == 200
            assert answer["key"] == "fenced"

        serve(cluster, range(5), requests)

    def test_no_primary_anywhere_is_503_with_blame(self, cluster):
        cluster.apply_stage(SINGLETONS5)
        for _ in range(80):
            cluster.tick()
        assert cluster.primary_claimants() == ()

        async def requests(peers):
            status, headers, answer = await http(
                peers[0], "PUT", "/kv/doomed", b'{"value": 1}'
            )
            assert status == 503
            assert "location" not in headers
            assert answer["error"] == "no_primary"
            assert answer["blame"] == "no_quorum_possible"

        serve(cluster, range(5), requests)


class TestTelemetryPlane:
    def test_metrics_exposes_request_counters_and_health_gauges(
        self, cluster
    ):
        async def requests(peers):
            await http(peers[1], "GET", "/healthz")
            await http(peers[1], "PUT", "/kv/m", b'{"value": 1}')
            status, headers, payload = await http_raw(
                peers[1], "GET", "/metrics"
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = payload.decode("utf-8")
            assert "# TYPE service_http_requests counter" in text
            assert (
                'service_http_requests{node="1",route="/healthz",'
                'status="200"} 1' in text
            )
            assert 'service_http_requests{node="1",route="/kv",' in text
            assert 'service_node_in_primary{node="1"} 1' in text
            assert 'service_store_writes_accepted{node="1"}' in text
            assert "service_http_latency_ms_bucket" in text
            assert 'service_flight_recorded{node="frontend-1"}' in text

        serve(cluster, range(5), requests)

    def test_telemetry_streams_frontend_and_replica_rings(self):
        cluster = StoreCluster(3, record_flight=True)
        cluster.apply_stage((tuple(range(3)),))
        cluster.warm_up()

        async def requests(peers):
            trace = "cafe0123deadbeef"
            status, _, answer = await http(
                peers[0], "PUT", "/kv/traced", b'{"value": 9}',
                extra_headers=(f"X-Repro-Trace: {trace}",),
            )
            assert status == 200
            status, headers, payload = await http_raw(
                peers[0], "GET", "/telemetry"
            )
            assert status == 200
            assert headers["content-type"] == "application/jsonl"
            lines = [
                json.loads(line)
                for line in payload.decode("utf-8").splitlines()
            ]
            headers_by_node = {
                line["node"]: line
                for line in lines
                if line["kind"] == "repro.obs/flight_header"
            }
            # The front end's own ring plus the replica's stream.
            assert set(headers_by_node) == {"frontend-0", 0}
            events = [
                line for line in lines
                if line["kind"] == "repro.obs/flight"
            ]
            put_events = [
                event for event in events
                if event["event"] == "store_put"
            ]
            assert put_events and put_events[-1]["trace"] == trace
            http_events = [
                event for event in events
                if event["event"] == "http_request"
                and event.get("trace") == trace
            ]
            assert http_events, "the HTTP hop must log the same trace id"

        serve(cluster, range(3), requests)

    def test_refused_write_records_trace_on_the_fenced_replica(self):
        cluster = StoreCluster(5, record_flight=True)
        cluster.apply_stage(FULL5)
        cluster.warm_up()
        cluster.apply_stage(SPLIT5)
        cluster.warm_up()

        async def requests(peers):
            trace = "feedface00000001"
            status, _, _ = await http(
                peers[0], "PUT", "/kv/fenced", b'{"value": 1}',
                extra_headers=(f"X-Repro-Trace: {trace}",),
            )
            assert status == 307
            refused = [
                event for event in cluster.recorders[0].events()
                if event["event"] == "store_put"
                and event["accepted"] is False
            ]
            assert refused and refused[-1]["trace"] == trace

        serve(cluster, range(5), requests)


class TestFrontendGroup:
    def test_group_serves_while_its_ticker_replicates(self):
        async def body():
            cluster = StoreCluster(3)
            cluster.apply_stage((tuple(range(3)),))
            cluster.warm_up()
            group = FrontendGroup(cluster, tick_interval=0.001)
            peers = await group.start()
            try:
                assert sorted(peers) == [0, 1, 2]
                status, _, _ = await http(
                    peers[0], "PUT", "/kv/g", b'{"value": "v"}'
                )
                assert status == 200
                # The background ticker replicates without any manual
                # warm_up from the client side.
                for _ in range(200):
                    await asyncio.sleep(0.005)
                    _, _, answer = await http(peers[2], "GET", "/kv/g")
                    if answer["value"] == "v":
                        break
                assert answer["value"] == "v"
                status, _, answer = await http(peers[1], "GET", "/healthz")
                assert status == 200 and answer["ok"] is True
            finally:
                await group.stop()

        asyncio.run(body())
