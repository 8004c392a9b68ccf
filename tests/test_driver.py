"""Tests for the driver loop mechanics (§2.2)."""

import random

import pytest

from repro.core.message import Message
from repro.errors import SimulationError
from repro.net.changes import (
    CrashChange,
    MergeChange,
    PartitionChange,
    RecoverChange,
)
from repro.obs import Subscriber
from repro.sim.driver import DriverLoop, ProcessEndpoint

from tests.conftest import heal, make_driver, split


class TestRoundMechanics:
    def test_initial_state_is_quiescent(self):
        driver = make_driver("ykd", 4)
        assert driver.run_round() is False
        assert driver.round_index == 1

    def test_view_change_triggers_state_exchange(self):
        driver = make_driver("ykd", 4)
        split(driver, {3})
        assert driver.run_round() is True  # states flow

    def test_needs_at_least_two_processes(self):
        with pytest.raises(SimulationError):
            DriverLoop("ykd", 1, fault_rng=random.Random(0))

    def test_views_get_fresh_sequence_numbers(self):
        driver = make_driver("ykd", 4)
        split(driver, {3})
        seqs = [view.seq for view in driver.views_installed_this_round]
        assert sorted(seqs) == [1, 2]
        heal(driver)
        assert driver.view_seq == 3

    def test_messages_stay_within_components(self):
        driver = make_driver("ykd", 6)
        split(driver, {4, 5})
        driver.run_until_quiescent()
        # The {4,5} side never hears of {0,1,2,3}'s new session.
        assert driver.algorithms[4].last_primary.members == frozenset(range(6))
        assert driver.algorithms[0].last_primary.members == frozenset({0, 1, 2, 3})

    def test_quiescence_cap_raises(self):
        driver = make_driver("ykd", 4, max_quiescence_rounds=0)
        split(driver, {3})
        with pytest.raises(SimulationError):
            driver.run_until_quiescent()


class TestMidRoundCut:
    def test_cut_only_touches_affected_components(self):
        """An unaffected component never loses messages to a change."""
        driver = make_driver("ykd", 8)
        split(driver, {6, 7})          # views installed everywhere
        # Both components now run their state exchange; partition the
        # {6,7} side while {0..5} is mid-protocol.
        sixes = frozenset({6, 7})
        driver.run_round(PartitionChange(component=sixes, moved=frozenset({7})))
        driver.run_until_quiescent()
        # {0..5} must have formed despite the concurrent change elsewhere.
        assert driver.primary_members() == (0, 1, 2, 3, 4, 5)

    def test_interrupted_formation_is_possible(self):
        """Some seed produces the asymmetric delivery of Fig. 3-1."""
        asymmetric = False
        for seed in range(64):
            driver = make_driver("ykd", 5, seed=seed)
            split(driver, {3, 4})
            driver.run_round()  # states
            abc = frozenset({0, 1, 2})
            driver.run_round(
                PartitionChange(component=abc, moved=frozenset({2}))
            )
            driver.run_until_quiescent()
            formed_at_a = driver.algorithms[0].last_formed[2].number > 0
            pending_at_c = bool(driver.algorithms[2].ambiguous)
            if formed_at_a and pending_at_c:
                asymmetric = True
                break
        assert asymmetric


class TestCrashModel:
    def test_crashed_process_stops_participating(self):
        driver = make_driver("ykd", 4)
        driver.run_round(CrashChange(pid=3))
        driver.run_until_quiescent()
        assert driver.topology.is_crashed(3)
        assert driver.primary_members() == (0, 1, 2)
        # The crashed process is frozen in its old view.
        assert driver.algorithms[3].current_view.seq == 0

    def test_recovery_installs_singleton_view(self):
        driver = make_driver("ykd", 4)
        driver.run_round(CrashChange(pid=3))
        driver.run_until_quiescent()
        driver.run_round(RecoverChange(pid=3))
        driver.run_until_quiescent()
        assert not driver.topology.is_crashed(3)
        assert driver.algorithms[3].current_view.members == frozenset({3})
        assert not driver.algorithms[3].in_primary()

    def test_recovered_process_can_rejoin(self):
        driver = make_driver("ykd", 4)
        driver.run_round(CrashChange(pid=3))
        driver.run_until_quiescent()
        driver.run_round(RecoverChange(pid=3))
        driver.run_until_quiescent()
        heal(driver)
        assert driver.primary_members() == (0, 1, 2, 3)


class TestEndpoints:
    def test_custom_endpoint_sees_payloads_and_views(self):
        class Probe(ProcessEndpoint):
            def __init__(self, algorithm):
                super().__init__(algorithm)
                self.payloads = []
                self.views = []
                self.sent = False

            def next_application_message(self):
                if self.pid == 0 and not self.sent:
                    self.sent = True
                    return Message(payload="ping")
                return Message.empty()

            def on_payload(self, payload, sender):
                self.payloads.append((sender, payload))

            def on_view(self, view):
                self.views.append(view)

        driver = make_driver("ykd", 3, endpoint_factory=Probe)
        driver.run_round()
        assert driver.endpoints[1].payloads == [(0, "ping")]
        assert driver.endpoints[2].payloads == [(0, "ping")]
        split(driver, {2})
        assert driver.endpoints[0].views[0].members == frozenset({0, 1})

    def test_application_payload_carries_algorithm_piggyback(self):
        """Fig. 2-2: the algorithm rides on application messages."""
        class Chatty(ProcessEndpoint):
            def next_application_message(self):
                return Message(payload=f"from-{self.pid}")

        driver = make_driver("ykd", 3, endpoint_factory=Chatty)
        split(driver, {2})
        # State-exchange items must arrive piggybacked on app messages
        # and the algorithm must still form its primary.  (No quiescence
        # here: the application chatters forever, so run fixed rounds.)
        for _ in range(4):
            driver.run_round()
        assert driver.primary_members() == (0, 1)


class TestObservers:
    def test_observer_hooks_fire(self):
        class Counting(Subscriber):
            def __init__(self):
                self.rounds = 0
                self.changes = 0
                self.broadcasts = 0
                self.runs = 0

            def on_round(self, driver):
                self.rounds += 1

            def on_change(self, driver, change):
                self.changes += 1

            def on_broadcast(self, driver, sender, message):
                self.broadcasts += 1

            def on_run_end(self, driver):
                self.runs += 1

        observer = Counting()
        driver = make_driver("ykd", 4, observers=[observer])
        driver.execute_run(gaps=[0, 1])
        assert observer.changes == 2
        assert observer.runs == 1
        assert observer.rounds == driver.round_index
        assert observer.broadcasts > 0


class TestFaultSequenceIdentity:
    def test_same_rng_same_faults_across_algorithms(self):
        """The realized change sequence must not depend on the algorithm."""
        histories = {}
        for algorithm in ("ykd", "one_pending", "simple_majority"):
            driver = DriverLoop(
                algorithm, 6, fault_rng=random.Random(99)
            )
            topologies = []
            for gap in (1, 0, 2, 1, 0, 3):
                for _ in range(gap):
                    driver.run_round()
                change = driver.change_generator.propose(
                    driver.topology, driver.fault_rng
                )
                driver.run_round(change)
                topologies.append(driver.topology.components)
                driver.run_until_quiescent()
            histories[algorithm] = topologies
        assert histories["ykd"] == histories["one_pending"]
        assert histories["ykd"] == histories["simple_majority"]


class TestCutProbability:
    def test_validation(self):
        import random as _random

        with pytest.raises(SimulationError):
            DriverLoop("ykd", 4, fault_rng=_random.Random(0), cut_probability=1.5)

    def test_zero_cut_never_loses_messages(self):
        """With cut_probability=0, every affected process still gets the
        round's messages, so the Fig. 3-1 asymmetry cannot arise."""
        for seed in range(16):
            driver = make_driver("ykd", 5, seed=seed, cut_probability=0.0)
            split(driver, {3, 4})
            driver.run_round()  # states
            abc = frozenset({0, 1, 2})
            driver.run_round(
                PartitionChange(component=abc, moved=frozenset({2}))
            )
            driver.run_until_quiescent()
            # Everyone in {0,1,2} received all attempts before the cut:
            # nobody holds the session as ambiguous.
            for pid in (0, 1, 2):
                assert driver.algorithms[pid].last_formed[2].number > 0
                assert not driver.algorithms[pid].ambiguous

    def test_full_cut_always_loses_messages(self):
        """With cut_probability=1, the interrupted round reaches nobody:
        every attempter is left with the session pending."""
        driver = make_driver("ykd", 5, seed=1, cut_probability=1.0)
        split(driver, {3, 4})
        driver.run_round()  # states
        abc = frozenset({0, 1, 2})
        driver.run_round(PartitionChange(component=abc, moved=frozenset({2})))
        driver.run_until_quiescent()
        assert driver.algorithms[2].ambiguous  # nobody formed {0,1,2}


class TestExplicitCut:
    """``run_round(change, late)`` forces the mid-round cut instead of
    sampling it: the property schedule replay and the exhaustive
    explorer rest on."""

    ABC = frozenset({0, 1, 2})

    def cut_round(self, late, cut_probability=1.0):
        """{0, 1, 2}'s attempt round, cut by a partition of {0, 1, 2}.

        Returns the driver, its fault RNG state before the round, and
        the (sender, recipient) deliveries the round made.
        """
        deliveries = []

        class Counting(ProcessEndpoint):
            def deliver(self, message, sender):
                deliveries.append((sender, self.pid))
                super().deliver(message, sender)

        driver = make_driver(
            "ykd", 5, seed=3,
            cut_probability=cut_probability, endpoint_factory=Counting,
        )
        split(driver, {3, 4})
        driver.run_round()  # states: {0, 1, 2} queue their attempts
        before = driver.fault_rng.getstate()
        deliveries.clear()
        driver.run_round(
            PartitionChange(component=self.ABC, moved=frozenset({2})), late
        )
        return driver, before, deliveries

    def test_an_explicit_cut_draws_nothing_from_the_fault_rng(self):
        driver, before, _ = self.cut_round(frozenset({1, 4}))
        assert driver.fault_rng.getstate() == before
        _, _, recorded = driver.recorded_steps()[-1]
        assert recorded == frozenset({1})  # late ∩ affected: 4 is not

    def test_an_empty_cut_loses_no_delivery_whatever_the_probability(self):
        _, _, forced = self.cut_round(frozenset(), cut_probability=1.0)
        _, _, sampled = self.cut_round(None, cut_probability=0.0)
        assert forced == sampled
        assert len(forced) == len(self.ABC) ** 2  # every attempt, everywhere

    def test_no_late_set_still_samples_the_cut(self):
        driver, before, deliveries = self.cut_round(None, cut_probability=1.0)
        assert driver.fault_rng.getstate() != before
        _, _, recorded = driver.recorded_steps()[-1]
        assert recorded == self.ABC
        assert deliveries == [(pid, pid) for pid in sorted(self.ABC)]
