"""The child-process main loop: one GCS member on a real socket.

Each node hosts exactly one process of a
:class:`~repro.gcs.stack.GCSCluster` (``hosted={pid}``) and its
:class:`~repro.app.replicated_store.ReplicatedStore` replica, bound to
a network transport
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
  view id, primary claim, traffic counters, aggregate ARQ counters and
  store stats;
* ``("put", key, value[, trace])`` / ``("get", key[, trace])`` /
  ``("snapshot",)`` — replicated-store operations, recorded (with the
  optional trace id) as :class:`~repro.service.cluster.StoreCluster`
  records them;
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

from repro.app.replicated_store import ReplicatedStore
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


def node_main(
    pid: ProcessId,
    n_processes: int,
    algorithm: str,
    link: Optional[LinkFaults],
    conn: Any,
    tick_interval: float = 0.005,
    telemetry_dir: Optional[str] = None,
) -> None:
    """Entry point of one spawned group member (runs until ``stop``)."""
    # repro.service imports this package, so it loads here.
    from repro.service.cluster import store_get, store_put

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
        store = ReplicatedStore(
            create_algorithm(algorithm, pid, initial_view(n_processes))
        )
        process = AlgorithmOnGCS(store, cluster.stacks[pid])
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
                        "store": store.stats(),
                    }
                    conn.send(("status", pid, status))
                elif kind == "telemetry":
                    conn.send(("telemetry", pid, recorder.snapshot()))
                elif kind == "put":
                    trace = command[3] if len(command) > 3 else None
                    try:
                        op = store_put(
                            store, recorder, cluster,
                            command[1], command[2], trace,
                        )
                        conn.send(("put_ok", pid, op.stamp))
                    except ReproError as exc:
                        conn.send(("put_refused", pid, str(exc)))
                elif kind == "get":
                    trace = command[2] if len(command) > 2 else None
                    value = store_get(
                        store, recorder, cluster, command[1], None, trace
                    )
                    conn.send(("get_ok", pid, value))
                elif kind == "snapshot":
                    snap = {"data": store.snapshot(), "stamp": store.stamp}
                    conn.send(("snapshot", pid, snap))
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
