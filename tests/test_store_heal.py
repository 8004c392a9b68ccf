"""Acknowledged writes must survive a partition and its heal.

The store acknowledges a write as soon as the replica applies it
locally.  A replica that has not yet seen a split keeps acknowledging,
so after the heal each side holds writes the other missed, under
stamps that order the two histories but not their keys.  Every voting
rule meets this, a static majority included; the heal converges
because a sync offer is merged key by key under the writes' tags.
"""

import pytest

from repro.core.registry import algorithm_names
from repro.service.cluster import StoreCluster


@pytest.mark.parametrize("algorithm", algorithm_names())
def test_replicas_agree_after_split_writes_and_heal(algorithm):
    cluster = StoreCluster(5, algorithm)
    cluster.warm_up()
    cluster.apply_stage([(0, 1), (2, 3, 4)])
    # One write per tick on each side, before either side notices the
    # split; put raises NotPrimaryError for a write it does not accept,
    # so reaching the heal means all six were acknowledged.
    for tick in range(3):
        for pid in (0, 2):
            cluster.put(pid, f"k{pid}", tick)
        cluster.tick()
    for _ in range(40):
        cluster.tick()
    cluster.apply_stage([(0, 1, 2, 3, 4)])
    cluster.warm_up()
    snapshots = [cluster.snapshot(pid) for pid in range(5)]
    assert all(snapshot == snapshots[0] for snapshot in snapshots)
