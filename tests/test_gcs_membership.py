"""Tests for the membership agreement protocol, via the cluster."""

import random

import pytest

from repro.gcs.membership import MembershipAgent, Propose
from repro.gcs.stack import GCSCluster, proposal_timeout_ticks
from repro.gcs.transport.asyncnet import UdpTransport
from repro.gcs.transport.memory import MemoryTransport
from repro.net.topology import Topology


class TestAgentBasics:
    def test_initial_view_is_the_universe(self):
        agent = MembershipAgent(1, frozenset({0, 1, 2}))
        assert agent.view_members == frozenset({0, 1, 2})
        assert agent.current_view.view_id == (0, 0)

    def test_non_coordinator_nudges_instead_of_proposing(self):
        from repro.gcs.membership import Nudge, Propose

        agent = MembershipAgent(1, frozenset({0, 1, 2}))
        sends = agent.observe_reachable(frozenset({0, 1}))
        # Process 0 is the coordinator of {0,1}: process 1 never
        # proposes, it only asks 0 for a fresh agreement.
        assert all(not isinstance(p, Propose) for _, p in sends)
        assert [dst for dst, p in sends if isinstance(p, Nudge)] == [0]

    def test_coordinator_proposes_on_change(self):
        agent = MembershipAgent(0, frozenset({0, 1, 2}))
        sends = agent.observe_reachable(frozenset({0, 1}))
        assert [dst for dst, _ in sends] == [1]
        proposal = sends[0][1]
        assert proposal.members == frozenset({0, 1})
        assert proposal.view_id[1] == 0

    def test_singleton_installs_immediately(self):
        agent = MembershipAgent(2, frozenset({0, 1, 2}))
        agent.observe_reachable(frozenset({2}))
        assert agent.view_members == frozenset({2})

    def test_view_seq_is_shared_and_increasing(self):
        universe = frozenset(range(5))
        a = MembershipAgent(0, universe)
        before = a.view_seq()
        a.observe_reachable(frozenset({0, 1}))
        from repro.gcs.membership import Ack

        a.handle(1, Ack(view_id=(1, 0)))
        assert a.view_members == frozenset({0, 1})
        assert a.view_seq() > before


class TestProposalTimeout:
    """A proposal outlives a retransmission on every transport."""

    @staticmethod
    def retry_tick(agent):
        """Ticks of an unanswered proposal until its fresh-epoch retry."""
        agent.observe_reachable(frozenset({0, 1}))
        for tick in range(1, 100):
            sends = agent.observe_reachable(frozenset({0, 1}))
            if any(isinstance(payload, Propose) for _, payload in sends):
                return tick
        raise AssertionError("the proposal was never retried")

    def test_the_agent_retries_after_its_timeout(self):
        agent = MembershipAgent(0, frozenset({0, 1, 2}))
        assert agent.proposal_timeout_ticks == 4
        assert self.retry_tick(agent) == 5
        agent = MembershipAgent(0, frozenset({0, 1, 2}))
        agent.proposal_timeout_ticks = 16
        assert self.retry_tick(agent) == 17

    def test_memory_transport_keeps_four_ticks(self):
        assert proposal_timeout_ticks(MemoryTransport()) == 4
        cluster = GCSCluster(3)
        assert {
            stack.membership.proposal_timeout_ticks
            for stack in cluster.stacks.values()
        } == {4}

    @pytest.mark.parametrize(
        "tick_interval, rto, ticks",
        [
            (0.005, 0.04, 16),  # two 40 ms rto at a 5 ms tick
            (0.01, 0.04, 8),  # the UDP transport's defaults
            (0.01, 0.025, 5),  # 50 ms rounds up to whole ticks
            (0.04, 0.04, 4),  # never below the memory transport's 4
        ],
    )
    def test_realtime_timeout_spans_two_rto(self, tick_interval, rto, ticks):
        transport = UdpTransport(tick_interval=tick_interval, rto=rto)
        assert proposal_timeout_ticks(transport) == ticks
        assert ticks * tick_interval >= 2 * rto

    def test_udp_cluster_gives_every_agent_the_derived_timeout(self):
        cluster = GCSCluster(3, transport=UdpTransport(tick_interval=0.005))
        try:
            assert {
                stack.membership.proposal_timeout_ticks
                for stack in cluster.stacks.values()
            } == {16}
        finally:
            cluster.close()

    def test_a_hosted_member_gets_the_derived_timeout_too(self):
        # A proc node hosts one pid of the universe: only its stack is
        # built, and it waits as long as an in-process one would.
        cluster = GCSCluster(
            3, transport=UdpTransport(tick_interval=0.005), hosted={1}
        )
        try:
            assert list(cluster.stacks) == [1]
            assert cluster.transport.local_pids == frozenset({1})
            stack = cluster.stacks[1]
            assert stack.membership.current_view.members == frozenset(
                {0, 1, 2}
            )
            assert stack.membership.proposal_timeout_ticks == 16
        finally:
            cluster.close()


class TestClusterAgreement:
    def test_partition_renegotiates_views_on_both_sides(self):
        cluster = GCSCluster(5)
        cluster.run_until_stable()
        topology = cluster.topology.partition(
            frozenset(range(5)), frozenset({3, 4})
        )
        cluster.set_topology(topology)
        cluster.run_until_stable()
        assert cluster.views_agree_with_topology()
        left = cluster.stacks[0].membership.current_view
        right = cluster.stacks[3].membership.current_view
        assert left.members == frozenset({0, 1, 2})
        assert right.members == frozenset({3, 4})
        # Same-view members share the exact view id.
        assert cluster.stacks[1].membership.current_view.view_id == left.view_id

    def test_merge_renegotiates_one_view(self):
        cluster = GCSCluster(4)
        topology = cluster.topology.partition(
            frozenset(range(4)), frozenset({2, 3})
        )
        cluster.set_topology(topology)
        cluster.run_until_stable()
        cluster.set_topology(Topology.fully_connected(4))
        cluster.run_until_stable()
        views = {
            cluster.stacks[pid].membership.current_view.view_id
            for pid in range(4)
        }
        assert len(views) == 1
        assert cluster.views_agree_with_topology()

    def test_same_view_id_means_same_members_always(self):
        """Agreement safety, across an adversarial random walk."""
        cluster = GCSCluster(6)
        rng = random.Random(3)
        installed = {}
        for _ in range(25):
            # Random change with very little stabilization time.
            from repro.net.changes import UniformChangeGenerator

            change = UniformChangeGenerator().propose(cluster.topology, rng)
            if change is not None:
                from repro.net.changes import apply_change

                cluster.set_topology(apply_change(cluster.topology, change))
            for _ in range(rng.randint(1, 4)):
                cluster.tick()
            for stack in cluster.stacks.values():
                for view in stack.membership.installed_views:
                    known = installed.setdefault(view.view_id, view.members)
                    assert known == view.members
        cluster.run_until_stable(max_ticks=400)
        assert cluster.views_agree_with_topology()

    def test_change_during_agreement_restarts_it(self):
        cluster = GCSCluster(5)
        topology = cluster.topology.partition(
            frozenset(range(5)), frozenset({4})
        )
        cluster.set_topology(topology)
        cluster.tick()  # proposal in flight
        topology = topology.partition(frozenset({0, 1, 2, 3}), frozenset({3}))
        cluster.set_topology(topology)  # destroys the first agreement
        cluster.run_until_stable()
        assert cluster.views_agree_with_topology()

    def test_crash_and_recovery(self):
        cluster = GCSCluster(4)
        cluster.run_until_stable()
        cluster.set_topology(cluster.topology.crash(3))
        cluster.run_until_stable()
        assert cluster.stacks[0].view_members == frozenset({0, 1, 2})
        cluster.set_topology(cluster.topology.recover(3))
        cluster.run_until_stable()
        assert cluster.stacks[3].view_members == frozenset({3})
        merged = cluster.topology.merge(
            frozenset({0, 1, 2}), frozenset({3})
        )
        cluster.set_topology(merged)
        cluster.run_until_stable()
        assert cluster.views_agree_with_topology()


class TestCrashyRandomWalks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agreement_safety_with_crashes(self, seed):
        """View-id agreement holds across random walks that include
        crash and recovery changes."""
        from repro.net.changes import (
            CrashRecoveryChangeGenerator,
            apply_change,
        )

        cluster = GCSCluster(6)
        generator = CrashRecoveryChangeGenerator(crash_weight=0.4, max_crashed=2)
        rng = random.Random(seed)
        installed = {}
        for _ in range(20):
            change = generator.propose(cluster.topology, rng)
            if change is not None:
                cluster.set_topology(apply_change(cluster.topology, change))
            for _ in range(rng.randint(1, 4)):
                cluster.tick()
            for stack in cluster.stacks.values():
                for view in stack.membership.installed_views:
                    known = installed.setdefault(view.view_id, view.members)
                    assert known == view.members
        # Recover everyone and heal: full agreement must return.
        topology = cluster.topology
        for pid in list(topology.crashed):
            topology = topology.recover(pid)
        while len(topology.components) > 1:
            first, second = topology.components[:2]
            topology = topology.merge(first, second)
        cluster.set_topology(topology)
        cluster.run_until_stable(max_ticks=500)
        assert cluster.views_agree_with_topology()
