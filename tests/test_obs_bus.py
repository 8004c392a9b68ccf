"""Tests for the unified observer protocol and its dispatch bus."""

import pytest

from repro.gcs.stack import Delivered, GCSCluster, ViewInstalled
from repro.net.topology import Topology
from repro.obs import EventBus, HOOK_NAMES, Subscriber, overrides_hook
from repro.sim.campaign import CaseConfig, run_case
from repro.sim.invariants import InvariantChecker
from repro.sim.stats import AvailabilityCollector
from tests.conftest import make_driver, split


class RoundCounter(Subscriber):
    """Minimal subscriber overriding a single hook."""

    def __init__(self):
        self.rounds = 0

    def on_round(self, driver):
        self.rounds += 1


class EverythingCounter(Subscriber):
    """Counts every hook invocation, keyed by hook name."""

    def __init__(self):
        self.counts = {name: 0 for name in HOOK_NAMES}

    def on_run_start(self, driver):
        self.counts["on_run_start"] += 1

    def on_round(self, driver):
        self.counts["on_round"] += 1

    def on_change(self, driver, change):
        self.counts["on_change"] += 1

    def on_broadcast(self, driver, sender, message):
        self.counts["on_broadcast"] += 1

    def on_quiescence(self, driver):
        self.counts["on_quiescence"] += 1

    def on_run_end(self, driver):
        self.counts["on_run_end"] += 1

    def on_case_start(self, config):
        self.counts["on_case_start"] += 1

    def on_case_end(self, result):
        self.counts["on_case_end"] += 1


class TestOverrideDetection:
    def test_protocol_is_exactly_the_nine_documented_hooks(self):
        # docs/observability.md tabulates these nine; HOOK_NAMES and the
        # methods Subscriber declares must both be that list.
        assert HOOK_NAMES == (
            "on_run_start", "on_round", "on_change", "on_broadcast",
            "on_quiescence", "on_run_end", "on_case_start", "on_case_end",
            "on_gcs_event",
        )
        declared = {n for n in vars(Subscriber) if n.startswith("on_")}
        assert declared == set(HOOK_NAMES)

    def test_base_subscriber_overrides_nothing(self):
        subscriber = Subscriber()
        assert not any(overrides_hook(subscriber, h) for h in HOOK_NAMES)

    def test_single_override_detected(self):
        counter = RoundCounter()
        assert overrides_hook(counter, "on_round")
        assert not overrides_hook(counter, "on_broadcast")

    def test_legacy_collector_overrides_only_its_hooks(self):
        collector = AvailabilityCollector()
        assert overrides_hook(collector, "on_run_end")
        assert not overrides_hook(collector, "on_round")


class TestEventBus:
    def test_hooks_are_bound_methods_in_attachment_order(self):
        first, second = RoundCounter(), RoundCounter()
        bus = EventBus([first, second])
        hooks = bus.hooks("on_round")
        assert hooks == (first.on_round, second.on_round)
        assert bus.hooks("on_broadcast") == ()

    def test_publish_dispatches_only_to_overriders(self):
        counter = RoundCounter()
        bus = EventBus([Subscriber(), counter])
        bus.publish("on_round", None)
        bus.publish("on_broadcast", None, 0, None)
        assert counter.rounds == 1

    def test_subscribe_after_construction(self):
        bus = EventBus()
        assert len(bus) == 0
        counter = RoundCounter()
        bus.subscribe(counter)
        assert len(bus) == 1
        assert bus.hooks("on_round") == (counter.on_round,)

    def test_subscribers_property_preserves_order(self):
        subscribers = [RoundCounter(), Subscriber(), RoundCounter()]
        assert EventBus(subscribers).subscribers == tuple(subscribers)

    def test_unknown_hook_name_raises(self):
        with pytest.raises(KeyError):
            EventBus().hooks("on_never_heard_of_it")


class TestDriverObserverAPI:
    def test_driver_publishes_all_run_hooks(self):
        counter = EverythingCounter()
        driver = make_driver("ykd", 5, observers=[counter])
        driver.execute_run(gaps=[1, 1])
        assert counter.counts["on_run_start"] == 1
        assert counter.counts["on_run_end"] == 1
        assert counter.counts["on_quiescence"] == 1
        assert counter.counts["on_change"] == 2
        assert counter.counts["on_round"] == driver.round_index
        assert counter.counts["on_broadcast"] > 0

    def test_first_checker_in_observers_is_extracted(self):
        checker = InvariantChecker()
        driver = make_driver("ykd", 5, observers=[checker])
        assert driver.checker is checker
        # Extracted: its checks run at the safety points, not as hooks.
        assert checker.on_round not in driver.bus.hooks("on_round")

    def test_checker_runs_round_checks(self):
        checker = InvariantChecker()
        driver = make_driver("ykd", 5, observers=[checker])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        assert checker.rounds_checked == driver.round_index

    def test_default_checker_created_when_none_attached(self):
        driver = make_driver("ykd", 5)
        assert isinstance(driver.checker, InvariantChecker)
        split(driver, {3, 4})
        assert driver.checker.rounds_checked == driver.round_index

    def test_second_checker_stays_an_ordinary_subscriber(self):
        first, second = InvariantChecker(), InvariantChecker()
        driver = make_driver("ykd", 5, observers=[first, second])
        assert driver.checker is first
        assert second in driver.observers
        split(driver, {3, 4})
        driver.run_until_quiescent()
        # The second checker saw every round through its hooks.
        assert second.rounds_checked == first.rounds_checked

    def test_observers_property_lists_subscribers(self):
        counter = RoundCounter()
        driver = make_driver("ykd", 5, observers=[counter])
        assert counter in driver.observers


class TestCampaignObserverAPI:
    def test_case_hooks_published(self):
        counter = EverythingCounter()
        config = CaseConfig(algorithm="ykd", n_processes=5, runs=3)
        result = run_case(config, observers=[counter])
        assert counter.counts["on_case_start"] == 1
        assert counter.counts["on_case_end"] == 1
        assert counter.counts["on_run_start"] == 3
        assert counter.counts["on_run_end"] == 3
        assert counter.counts["on_round"] == result.rounds_total

    def test_observers_identical_results_to_bare_run(self):
        config = CaseConfig(algorithm="ykd", n_processes=5, runs=5)
        bare = run_case(config)
        observed = run_case(config, observers=[EverythingCounter()])
        assert bare.outcomes == observed.outcomes
        assert bare.rounds_total == observed.rounds_total


class TestGCSObserverAPI:
    def test_cluster_publishes_events(self):
        class GCSWatcher(Subscriber):
            def __init__(self):
                self.events = []

            def on_gcs_event(self, cluster, pid, event):
                self.events.append((pid, event))

        watcher = GCSWatcher()
        cluster = GCSCluster(4, observers=[watcher])
        cluster.run_until_stable()
        cluster.set_topology(
            Topology(components=(frozenset({0, 1}), frozenset({2, 3})))
        )
        cluster.run_until_stable()
        views = [e for _, e in watcher.events if isinstance(e, ViewInstalled)]
        assert views, "the partition must install new views"

    def test_events_published_match_polled_events(self):
        class Collector(Subscriber):
            def __init__(self):
                self.by_pid = {}

            def on_gcs_event(self, cluster, pid, event):
                self.by_pid.setdefault(pid, []).append(event)

        collector = Collector()
        cluster = GCSCluster(3, observers=[collector])
        cluster.set_topology(
            Topology(components=(frozenset({0, 1}), frozenset({2})))
        )
        cluster.run_until_stable()
        for pid, stack in cluster.stacks.items():
            assert stack.poll_events() == collector.by_pid.get(pid, [])

    def test_multicast_delivery_observed(self):
        deliveries = []

        class DeliveryWatcher(Subscriber):
            def on_gcs_event(self, cluster, pid, event):
                if isinstance(event, Delivered):
                    deliveries.append((pid, event.sender, event.payload))

        cluster = GCSCluster(3, observers=[DeliveryWatcher()])
        cluster.run_until_stable()
        cluster.stacks[0].multicast("hello")
        cluster.run_until_stable()
        receivers = {pid for pid, _, payload in deliveries if payload == "hello"}
        assert receivers == {0, 1, 2}

    def test_unobserved_cluster_has_no_sink(self):
        cluster = GCSCluster(3)
        assert all(
            stack._event_sink is None for stack in cluster.stacks.values()
        )
