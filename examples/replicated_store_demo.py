#!/usr/bin/env python
"""A replicated key-value store riding on dynamic voting.

The scenario the thesis' introduction motivates: a replicated database
must let at most one network component make progress.  Five replicas
run the YKD algorithm through the Fig. 2-2 interface; we partition the
network, show that only the primary component accepts writes, heal the
partition, and watch every replica converge on the primary's history.

``--transport memory`` (the default) runs the classic single-process
simulation.  ``--transport udp`` runs the same five replicas as **real
OS processes** exchanging canonical-JSON datagrams over real localhost
sockets (`repro.gcs.proc`): same algorithm, same store, genuine packets.
"""

import argparse
import random

from repro.app import NotPrimaryError, ReplicatedStore
from repro.net.changes import MergeChange, PartitionChange
from repro.sim.driver import DriverLoop

FULL = ((0, 1, 2, 3, 4),)
SPLIT = ((0, 1), (2, 3, 4))


def main_memory() -> None:
    driver = DriverLoop(
        algorithm="ykd",
        n_processes=5,
        fault_rng=random.Random(7),
        endpoint_factory=ReplicatedStore,
    )
    stores = driver.endpoints

    print("== All five replicas connected ==")
    stores[0].put("motd", "hello, group")
    driver.run_until_quiescent()
    print("every replica reads:", [s.get("motd") for s in stores.values()])

    print("\n== Partition: {0,1} vs {2,3,4} ==")
    whole = driver.topology.components[0]
    driver.run_round(PartitionChange(component=whole, moved=frozenset({0, 1})))
    driver.run_until_quiescent()
    print("primary component:", driver.primary_members())

    try:
        stores[0].put("motd", "minority speaks")
    except NotPrimaryError as exc:
        print("minority write refused:", exc)

    stores[3].put("motd", "majority rules")
    stores[3].put("leader", 3)
    driver.run_until_quiescent()
    print("majority replicas read:", stores[4].get("motd"))
    print("minority still reads:  ", stores[0].get("motd"), "(stale, read-only)")

    print("\n== Merge: the network heals ==")
    first, second = driver.topology.components
    driver.run_round(MergeChange(first=first, second=second))
    driver.run_until_quiescent()
    print("primary component:", driver.primary_members())
    snapshots = {pid: s.snapshot() for pid, s in stores.items()}
    print("replica contents:", snapshots[0])
    converged = len({tuple(sorted(s.items())) for s in snapshots.values()}) == 1
    print("all replicas converged on the primary's history:", converged)
    assert converged
    assert snapshots[0]["motd"] == "majority rules"


def main_proc() -> None:
    from repro.gcs.proc import ProcCluster

    print("== Five replicas as real OS processes over udp ==")
    with ProcCluster(5, algorithm="ykd") as cluster:
        cluster.apply_stage(FULL)
        outcome = cluster.await_stable()
        print("initial primary claimants:", outcome.primaries)

        accepted, stamp = cluster.put(0, "motd", "hello, group")
        assert accepted, stamp
        cluster.await_stable()
        print(
            "every replica reads:",
            [cluster.get(pid, "motd") for pid in range(5)],
        )

        print("\n== Partition: {0,1} vs {2,3,4} ==")
        cluster.apply_stage(SPLIT)
        outcome = cluster.await_stable()
        print("primary claimants:", outcome.primaries)

        accepted, why = cluster.put(0, "motd", "minority speaks")
        print("minority write refused:", (not accepted), "—", why)

        accepted, stamp = cluster.put(3, "motd", "majority rules")
        assert accepted, stamp
        cluster.put(3, "leader", 3)
        cluster.await_stable()
        print("majority replicas read:", cluster.get(4, "motd"))
        print(
            "minority still reads:  ",
            cluster.get(0, "motd"),
            "(stale, read-only)",
        )

        print("\n== Merge: the network heals ==")
        cluster.apply_stage(FULL)
        outcome = cluster.await_stable()
        print("primary claimants:", outcome.primaries)
        snapshots = {pid: cluster.snapshot(pid) for pid in range(5)}
        print("replica contents:", snapshots[0]["data"])
        converged = (
            len(
                {
                    tuple(sorted(snap["data"].items()))
                    for snap in snapshots.values()
                }
            )
            == 1
        )
        print("all replicas converged on the primary's history:", converged)
        assert converged
        assert snapshots[0]["data"]["motd"] == "majority rules"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--transport",
        default="memory",
        choices=("memory", "udp"),
        help="memory: single-process simulation (default); udp: "
        "real OS processes over real localhost sockets",
    )
    args = parser.parse_args()
    if args.transport == "memory":
        main_memory()
    else:
        main_proc()


if __name__ == "__main__":
    main()
