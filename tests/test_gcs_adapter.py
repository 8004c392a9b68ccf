"""Tests for primary-component algorithms running over the GCS.

The thesis' portability claim (§2.1): "any group communication service
which has reliable multicast and can report connectivity changes will
work".  These tests run the exact algorithm classes from the simulation
study over the negotiated stack and check both behaviour and safety.
"""

import random
from collections import Counter

import pytest

from repro.core.registry import algorithm_names
from repro.errors import SimulationError
from repro.gcs.adapter import PrimaryComponentService
from repro.net.changes import UniformChangeGenerator, apply_change
from repro.net.topology import Topology
from repro.obs import Subscriber
from repro.service import StoreCluster
from repro.sim.driver import ProcessEndpoint


def partition(service, moved):
    moved = frozenset(moved)
    component = next(
        c for c in service.cluster.topology.components if moved <= c
    )
    service.set_topology(service.cluster.topology.partition(component, moved))


def merge_all(service):
    while len(service.cluster.topology.components) > 1:
        first, second = service.cluster.topology.components[:2]
        service.set_topology(
            service.cluster.topology.merge(first, second)
        )
        service.run_until_stable()


class TestYkdOverGCS:
    def test_initial_primary_is_everyone(self):
        service = PrimaryComponentService("ykd", 5)
        service.run_until_stable()
        assert service.primary_members() == (0, 1, 2, 3, 4)

    def test_partition_shrinks_the_primary(self):
        service = PrimaryComponentService("ykd", 5)
        service.run_until_stable()
        partition(service, {3, 4})
        service.run_until_stable()
        assert service.primary_members() == (0, 1, 2)

    def test_dynamic_voting_chains_below_original_majority(self):
        service = PrimaryComponentService("ykd", 5)
        service.run_until_stable()
        partition(service, {3, 4})
        service.run_until_stable()
        partition(service, {2})
        service.run_until_stable()
        # {0,1} is 2 of the original 5 — only dynamic voting allows it.
        assert service.primary_members() == (0, 1)

    def test_merge_restores_the_full_primary(self):
        service = PrimaryComponentService("ykd", 5)
        service.run_until_stable()
        partition(service, {3, 4})
        service.run_until_stable()
        merge_all(service)
        assert service.primary_members() == (0, 1, 2, 3, 4)
        for algorithm in service.algorithms.values():
            assert algorithm.ambiguous == []


class TestEveryAlgorithmOverGCS:
    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_partition_merge_cycle(self, algorithm):
        service = PrimaryComponentService(algorithm, 5)
        service.run_until_stable()
        partition(service, {3, 4})
        service.run_until_stable()
        primary = service.primary_members()
        if primary is not None:
            assert primary == (0, 1, 2)
        merge_all(service)
        assert service.primary_members() == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("algorithm", ["ykd", "dfls", "one_pending", "mr1p"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_safety_under_random_walks(self, algorithm, seed):
        """Random topology walks with little breathing room: the
        co-viewer invariant runs every tick, and every stable point must
        show at most one primary component."""
        service = PrimaryComponentService(algorithm, 6)
        rng = random.Random(seed)
        generator = UniformChangeGenerator()
        for _ in range(10):
            change = generator.propose(service.cluster.topology, rng)
            if change is not None:
                service.set_topology(
                    apply_change(service.cluster.topology, change)
                )
            for _ in range(rng.randint(1, 6)):
                service.tick()
        service.run_until_stable(max_ticks=500)
        primary = service.primary_members()
        if primary is not None:
            # Strict form at stability: claimants form one component.
            members = frozenset(primary)
            assert any(
                members == component
                for component in service.cluster.topology.components
            )
        merge_all(service)
        assert service.primary_members() == tuple(range(6))


class TestCrossSubstrateConsistency:
    def test_gcs_and_driver_agree_on_scripted_scenario(self):
        """The same fault script produces the same primaries on both
        substrates (negotiated GCS vs the thesis-style driver)."""
        from tests.conftest import heal, make_driver, split

        service = PrimaryComponentService("ykd", 5)
        service.run_until_stable()
        driver = make_driver("ykd", 5)

        partition(service, {3, 4})
        service.run_until_stable()
        split(driver, {3, 4})
        driver.run_until_quiescent()
        assert service.primary_members() == driver.primary_members()

        partition(service, {2})
        service.run_until_stable()
        split(driver, {2})
        driver.run_until_quiescent()
        assert service.primary_members() == driver.primary_members()

        merge_all(service)
        heal(driver)
        assert service.primary_members() == driver.primary_members()


class _CountingEndpoint(ProcessEndpoint):
    """The idle Fig. 2-2 application, counting how often it is polled."""

    def __init__(self, algorithm):
        super().__init__(algorithm)
        self.polls = 0

    def poll(self):
        self.polls += 1
        return super().poll()


class _EventCounter(Subscriber):
    def __init__(self):
        self.events = Counter()

    def on_gcs_event(self, cluster, pid, event):
        self.events[pid] += 1


class TestOneApplicationLoop:
    """Every substrate runs the one pump and settles in the one loop."""

    def test_one_pump_drains_a_store_backlog(self):
        cluster = StoreCluster(5)
        cluster.warm_up()
        writes = {f"k{i}": i for i in range(5)}
        for key, value in writes.items():
            cluster.put(0, key, value)
        primary = cluster.service.processes[0]
        assert primary.endpoint.outbox_size == 5
        primary.pump()
        assert primary.endpoint.outbox_size == 0
        cluster.tick()  # the flush puts the five multicasts on the wire
        cluster.tick()  # the peers deliver and apply them
        for pid in range(1, 5):
            assert cluster.snapshot(pid) == writes

    def test_a_bare_endpoint_is_polled_once_per_event_and_once_per_pump(
        self,
    ):
        counter = _EventCounter()
        service = PrimaryComponentService(
            "ykd", 5, endpoint_factory=_CountingEndpoint, observers=[counter]
        )
        service.run_until_stable()
        partition(service, {3, 4})
        service.run_until_stable()
        merge_all(service)
        ticks = service.cluster.ticks
        for pid, endpoint in service.endpoints.items():
            assert counter.events[pid] > 0
            assert endpoint.polls == counter.events[pid] + ticks

    def test_store_cluster_settles_in_the_gcs_loop(self, monkeypatch):
        cluster = StoreCluster(5)
        cluster.warm_up()
        checker = cluster.service.checker
        checked = []
        check = checker.check_stable_primary
        monkeypatch.setattr(
            checker,
            "check_stable_primary",
            lambda *args: checked.append(args) or check(*args),
        )
        cluster.apply_stage(((0, 1), (2, 3, 4)))
        with pytest.raises(
            SimulationError,
            match="group communication did not stabilize in 1 ticks",
        ):
            cluster.warm_up(max_ticks=1)
        assert checked == []
        assert cluster.warm_up() > 0
        assert len(checked) == 1
        assert cluster.primary_claimants() == (2, 3, 4)
