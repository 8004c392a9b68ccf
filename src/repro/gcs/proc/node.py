"""The child-process main loop: one GCS member on a real socket.

Each node hosts exactly one process of a
:class:`~repro.gcs.stack.GCSCluster` (``hosted={pid}``) and its
algorithm endpoint, bound to a network transport
(:mod:`repro.gcs.transport.asyncnet`) that carries length-prefixed
canonical-JSON datagrams over localhost UDP.  The cluster builds the
stack, derives its proposal timeout from the transport, publishes its
events and ticks it, exactly as it does in process; the node only
paces the ticks and answers the parent controller, which speaks a
small tuple protocol over a multiprocessing pipe:

* ``("ports", {pid: port})`` — the full rendezvous map (phase two of
  port allocation; the node sent ``("port", pid, port)`` in phase one);
* ``("topology", topology)`` — the oracle failure detector: the whole
  stage's :class:`~repro.net.topology.Topology`, installed with
  :meth:`~repro.gcs.stack.GCSCluster.set_topology`;
* ``("status",)`` → ``("status", pid, {...})`` — current view members,
  view id, primary claim, traffic counters and aggregate ARQ counters;
* ``("put", key, value[, trace])`` / ``("get", key[, trace])`` /
  ``("snapshot",)`` — replicated-store operations (store endpoints
  only); the optional trace id is recorded with the store op;
* ``("telemetry",)`` → ``("telemetry", pid, {...})`` — the node's
  flight-recorder snapshot (the scrape plane's pipe pull);
* ``("stop",)`` — shut down cleanly.

Every node carries a :class:`~repro.obs.telemetry.recorder
.FlightRecorder`: view installs (through
:class:`~repro.obs.telemetry.recorder.FlightViewChanges`, the observer
a store cluster uses), topology changes, ARQ counter movements, store
ops with their trace ids.  When the node dies on an unhandled
exception and the controller passed a ``telemetry_dir``, the ring is
dumped there as a post-mortem before the error crosses the pipe — dead
children leave a readable black box.
"""

from __future__ import annotations

import traceback
from typing import Any, Optional

from repro.core.registry import create_algorithm
from repro.core.view import initial_view
from repro.errors import ReproError
from repro.faults.model import LinkFaults
from repro.gcs.adapter import AlgorithmOnGCS
from repro.gcs.stack import GCSCluster
from repro.gcs.transport.asyncnet import UdpTransport
from repro.obs.telemetry.recorder import (
    FlightRecorder,
    FlightViewChanges,
    write_crash_dump,
)
from repro.types import ProcessId


def _build_endpoint(endpoint_kind: str, algorithm: str, pid: ProcessId, n: int):
    algo = create_algorithm(algorithm, pid, initial_view(n))
    if endpoint_kind == "store":
        from repro.app.replicated_store import ReplicatedStore

        return ReplicatedStore(algo)
    from repro.sim.driver import ProcessEndpoint

    return ProcessEndpoint(algo)


def node_main(
    pid: ProcessId,
    n_processes: int,
    algorithm: str,
    link: Optional[LinkFaults],
    conn: Any,
    endpoint_kind: str = "bare",
    tick_interval: float = 0.005,
    telemetry_dir: Optional[str] = None,
) -> None:
    """Entry point of one spawned group member (runs until ``stop``)."""
    cluster = None
    recorder = FlightRecorder(pid)
    try:
        cluster = GCSCluster(
            n_processes,
            observers=[FlightViewChanges({pid: recorder})],
            transport=UdpTransport(link=link, tick_interval=tick_interval),
            hosted={pid},
        )
        transport = cluster.transport
        conn.send(("port", pid, transport.ports[pid]))
        endpoint = _build_endpoint(endpoint_kind, algorithm, pid, n_processes)
        process = AlgorithmOnGCS(endpoint, cluster.stacks[pid])
        arq_seen = {}

        running = True
        rendezvoused = False
        while running:
            while conn.poll(0):
                command = conn.recv()
                kind = command[0]
                if kind == "ports":
                    transport.set_peer_ports(dict(command[1]))
                    rendezvoused = True
                elif kind == "topology":
                    cluster.set_topology(command[1])
                    recorder.record(
                        "reachable", peers=sorted(cluster.reachable(pid))
                    )
                elif kind == "status":
                    view = process.stack.membership.current_view
                    status = {
                        "view": tuple(sorted(view.members)),
                        "view_id": tuple(view.view_id),
                        "in_primary": process.in_primary(),
                        "traffic": (
                            transport.sent_count,
                            transport.delivered_count,
                            transport.dropped_count,
                        ),
                        "pending": transport.pending(),
                        "arq": transport.arq_stats(),
                    }
                    if hasattr(endpoint, "stats"):
                        status["store"] = endpoint.stats()
                    conn.send(("status", pid, status))
                elif kind == "telemetry":
                    conn.send(("telemetry", pid, recorder.snapshot()))
                elif kind == "put":
                    trace = command[3] if len(command) > 3 else None
                    try:
                        op = endpoint.put(command[1], command[2])
                        recorder.record(
                            "store_put",
                            tick=cluster.ticks,
                            key=command[1],
                            accepted=True,
                            stamp=list(op.stamp),
                            trace=trace,
                        )
                        conn.send(("put_ok", pid, op.stamp))
                    except ReproError as exc:
                        recorder.record(
                            "store_put",
                            tick=cluster.ticks,
                            key=command[1],
                            accepted=False,
                            trace=trace,
                        )
                        conn.send(("put_refused", pid, str(exc)))
                elif kind == "get":
                    trace = command[2] if len(command) > 2 else None
                    recorder.record(
                        "store_get",
                        tick=cluster.ticks,
                        key=command[1],
                        trace=trace,
                    )
                    conn.send(("get_ok", pid, endpoint.get(command[1])))
                elif kind == "snapshot":
                    conn.send(
                        (
                            "snapshot",
                            pid,
                            {
                                "data": dict(endpoint.data),
                                "stamp": tuple(endpoint.stamp),
                            },
                        )
                    )
                elif kind == "stop":
                    running = False
                else:
                    conn.send(("error", pid, f"unknown command {kind!r}"))
            # Before the peer ports arrive, sends would be routed nowhere.
            if rendezvoused:
                cluster.tick(process.pump)
                arq_now = transport.arq_stats()
                if arq_now != arq_seen:
                    moved = {
                        key: value - arq_seen.get(key, 0)
                        for key, value in arq_now.items()
                        if value != arq_seen.get(key, 0)
                    }
                    recorder.record("arq", **moved)
                    arq_seen = arq_now
            transport.idle_wait()
        conn.send(("stopped", pid))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass  # the controller went away; just exit
    except Exception:  # pragma: no cover - surfaced to the controller
        error = traceback.format_exc()
        if telemetry_dir is not None:
            write_crash_dump(recorder, telemetry_dir, error)
        try:
            conn.send(("error", pid, error))
        except (OSError, ValueError):
            pass
    finally:
        if cluster is not None:
            cluster.close()
        try:
            conn.close()
        except OSError:
            pass
