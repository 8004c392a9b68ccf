"""Acknowledged writes must survive a partition and its heal.

The store acknowledges a write as soon as the replica applies it
locally.  A replica that has not yet seen a split keeps acknowledging,
and after the heal no replica adopts the history it missed, because
applying the stranded write already raised its stamp (ROADMAP item 1).
Every voting rule shows it, a static majority included.  The tests are
strict xfails: they fail today, and the fix of the store's
acknowledgement contract must remove the marker.
"""

import pytest

from repro.core.registry import algorithm_names
from repro.service.cluster import StoreCluster


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: acknowledged writes diverge after heal",
)
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
