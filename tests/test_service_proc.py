"""The HTTP face of the *multi-process* cluster, end to end.

Real OS processes, real UDP sockets, real HTTP servers — one front end
per node via :class:`ProcFrontendGroup` — exercising what the memory
backend cannot: the pipe protocol behind ``/healthz`` (aggregate ARQ
counters), the ``/telemetry`` pull of a child's flight ring, trace ids
crossing the process boundary, and the crash post-mortem a dying node
leaves behind.  Slow by nature; everything cheap about these layers is
tested elsewhere.
"""

import asyncio
import json

import pytest

from repro.errors import SimulationError
from repro.gcs.proc import ProcCluster
from repro.obs.telemetry import (
    TelemetryCollector,
    crash_dump_path,
    load_flight_dump,
    parse_flight_jsonl,
)
from repro.service.frontend import ProcFrontendGroup
from tests.test_service_frontend import http, http_raw


@pytest.fixture(scope="module")
def cluster():
    with ProcCluster(3, algorithm="ykd", tick_interval=0.002) as built:
        built.await_stable()
        yield built


def serve_proc(cluster, requests):
    """Boot one front end per proc node, run the request coroutine."""

    async def body():
        group = ProcFrontendGroup(cluster)
        peers = await group.start()
        try:
            return await requests(peers)
        finally:
            await group.stop()

    return asyncio.run(body())


class TestProcHttpPlane:
    def test_healthz_surfaces_pipe_arq_counters(self, cluster):
        async def requests(peers):
            # A fresh fully-connected cluster boots already agreeing on
            # the full view, so the ARQ has nothing to carry until the
            # store replicates a write.
            status, _, _ = await http(
                peers[0], "PUT", "/kv/warm", b'{"value": 1}'
            )
            assert status == 200
            arq = {}
            for _ in range(100):
                status, _, answer = await http(peers[0], "GET", "/healthz")
                assert status == 200
                assert answer["ok"] is True and answer["pid"] == 0
                arq = answer["arq"]
                if arq.get("transmissions", 0) and arq.get("acks_received", 0):
                    break
                await asyncio.sleep(0.01)
            for key in (
                "transmissions", "retransmissions", "acks_received",
                "hold_backs", "delivered", "acks_sent",
            ):
                assert isinstance(arq[key], int)
            assert arq["transmissions"] > 0
            assert arq["acks_received"] > 0

        serve_proc(cluster, requests)

    def test_ops_view_assembles_across_nodes(self, cluster):
        async def requests(peers):
            status, _, answer = await http(peers[2], "GET", "/ops")
            assert status == 200
            assert answer["kind"] == "repro.service/ops"
            assert answer["primary"] == [0, 1, 2]
            assert [node["pid"] for node in answer["nodes"]] == [0, 1, 2]
            for node in answer["nodes"]:
                assert node["in_primary"] is True
                assert node["view"] == [0, 1, 2]

        serve_proc(cluster, requests)

    def test_metrics_scrape_per_node(self, cluster):
        async def requests(peers):
            await http(peers[1], "PUT", "/kv/scraped", b'{"value": 1}')
            status, headers, payload = await http_raw(
                peers[1], "GET", "/metrics"
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = payload.decode("utf-8")
            assert "# TYPE service_http_requests counter" in text
            assert 'service_node_in_primary{node="1"} 1' in text
            assert 'service_arq_transmissions{node="1"}' in text
            assert 'service_store_writes_accepted{node="1"}' in text

        serve_proc(cluster, requests)

    def test_trace_id_crosses_the_process_boundary(self, cluster):
        trace = "0123456789abcdef"

        async def requests(peers):
            status, _, _ = await http(
                peers[0], "PUT", "/kv/traced", b'{"value": 7}',
                extra_headers=(f"X-Repro-Trace: {trace}",),
            )
            assert status == 200
            status, _, payload = await http_raw(peers[0], "GET", "/telemetry")
            assert status == 200
            lines = [
                json.loads(line)
                for line in payload.decode("utf-8").splitlines()
            ]
            nodes = {
                line["node"] for line in lines
                if line["kind"] == "repro.obs/flight_header"
            }
            assert nodes == {"frontend-0", 0}
            return lines

        lines = serve_proc(cluster, requests)
        # The child process recorded the store op under the minted id.
        puts = [
            line for line in lines
            if line.get("event") == "store_put" and line["node"] == 0
        ]
        assert any(line.get("trace") == trace for line in puts)
        # The collector's pipe pull sees the same stream.
        collector = TelemetryCollector()
        collector.collect_proc_cluster(cluster)
        _, events = parse_flight_jsonl(collector.aggregated_jsonl())
        assert any(
            event.get("trace") == trace
            for event in events
            if event["event"] == "store_put"
        )

    def test_collector_pull_sees_view_changes_after_a_partition(
        self, cluster
    ):
        # A fresh cluster boots agreeing, so force real view agreement:
        # split {0,1} | {2}, then heal.  Both transitions must land in
        # every node's flight ring and come back over the pipe.
        cluster.apply_stage(((0, 1), (2,)))
        cluster.await_stable()
        cluster.apply_stage(((0, 1, 2),))
        cluster.await_stable()
        cluster.put(0, "ticked", 1)
        cluster.get(1, "ticked")
        collector = TelemetryCollector()
        collector.collect_proc_cluster(cluster)
        assert collector.nodes() == [0, 1, 2]
        headers, events = parse_flight_jsonl(collector.aggregated_jsonl())
        assert len(headers) == 3
        views = [event for event in events if event["event"] == "view_change"]
        assert {event["node"] for event in views} == {0, 1, 2}
        assert any(event["members"] == [0, 1] for event in views)
        assert any(event["members"] == [0, 1, 2] for event in views)
        # Each node's cluster stamps its tick, as a store cluster does,
        # on view changes and store ops alike.
        store_ops = [
            event for event in events
            if event["event"] in ("store_put", "store_get")
        ]
        assert {event["event"] for event in store_ops} == {
            "store_put", "store_get"
        }
        assert all(
            isinstance(event["tick"], int) and event["tick"] > 0
            for event in views + store_ops
        )
        # Partition onset and heal were recorded as reachability events.
        reachable = [e for e in events if e["event"] == "reachable"]
        assert any(e["peers"] == [0, 1] for e in reachable)

    def test_an_isolated_node_records_a_refused_put_like_a_store_cluster(
        self, cluster
    ):
        from repro.app.replicated_store import NotPrimaryError
        from repro.service.cluster import StoreCluster

        statuses = cluster.statuses()
        assert all("store" in status for status in statuses.values())
        # Isolate node 2: it leaves the primary, so its write is refused.
        cluster.apply_stage(((0, 1), (2,)))
        try:
            outcome = cluster.await_stable()
            assert outcome.primaries == (0, 1)
            accepted, reason = cluster.put(2, "fenced", 1, trace="t-fenced")
            assert not accepted and "not in the primary" in reason
            events = cluster.node_telemetry(2)["events"]
        finally:
            cluster.apply_stage(((0, 1, 2),))
            cluster.await_stable()
        refused = [
            event for event in events
            if event["event"] == "store_put" and event["key"] == "fenced"
        ]
        assert len(refused) == 1 and refused[0]["accepted"] is False
        assert refused[0]["trace"] == "t-fenced"

        memory = StoreCluster(3, record_flight=True)
        memory.warm_up()
        memory.apply_stage(((0, 1), (2,)))
        memory.warm_up()
        with pytest.raises(NotPrimaryError):
            memory.put(2, "fenced", 1, trace="t-fenced")
        (in_process,) = [
            event for event in memory.recorders[2].snapshot()["events"]
            if event["event"] == "store_put"
        ]
        assert set(refused[0]) == set(in_process)


class TestCrashDump:
    def test_dying_node_leaves_a_readable_black_box(
        self, monkeypatch, tmp_path
    ):
        from repro.gcs.proc import controller as controller_module
        from tests._proc_stubs import crashing_node_main

        monkeypatch.setattr(
            controller_module, "node_main", crashing_node_main
        )
        cluster = ProcCluster(
            2, algorithm="ykd", start_timeout=10.0,
            telemetry_dir=tmp_path,
        )
        try:
            with pytest.raises(SimulationError, match="induced crash"):
                cluster.statuses()
            dump = crash_dump_path(tmp_path, 0)
            assert dump.exists()
            assert dump in cluster.crash_dumps()
            headers, events = load_flight_dump(dump)
            assert headers[0]["node"] == 0
            assert events[-1]["event"] == "crash"
            assert "induced crash" in events[-1]["error"]
            # The pre-crash history survived, trace ids included.
            puts = [e for e in events if e["event"] == "store_put"]
            assert puts and puts[0]["trace"] == "t-0"
        finally:
            cluster.close()

    def test_no_telemetry_dir_means_no_dump_files(self, tmp_path):
        with ProcCluster(2, algorithm="ykd") as cluster:
            assert cluster.crash_dumps() == []
