"""Tests for the component topology, including hypothesis properties."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.net.topology import Topology


class TestConstruction:
    def test_fully_connected(self):
        topology = Topology.fully_connected(4)
        assert topology.components == (frozenset({0, 1, 2, 3}),)
        assert topology.universe == frozenset({0, 1, 2, 3})

    def test_rejects_zero_processes(self):
        with pytest.raises(TopologyError):
            Topology.fully_connected(0)

    def test_rejects_overlapping_components(self):
        with pytest.raises(TopologyError):
            Topology(components=(frozenset({0, 1}), frozenset({1, 2})))

    def test_rejects_empty_component(self):
        with pytest.raises(TopologyError):
            Topology(components=(frozenset(),))

    def test_rejects_crashed_process_in_big_component(self):
        with pytest.raises(TopologyError):
            Topology(components=(frozenset({0, 1}),), crashed=frozenset({0}))

    def test_rejects_unknown_crashed_process(self):
        with pytest.raises(TopologyError):
            Topology(components=(frozenset({0}),), crashed=frozenset({5}))

    def test_components_are_normalized_for_equality(self):
        a = Topology(components=(frozenset({0}), frozenset({1, 2})))
        b = Topology(components=(frozenset({2, 1}), frozenset({0})))
        assert a == b


class TestQueries:
    def test_component_of(self):
        topology = Topology(components=(frozenset({0, 1}), frozenset({2})))
        assert topology.component_of(0) == frozenset({0, 1})
        assert topology.component_of(2) == frozenset({2})

    def test_component_of_unknown_process(self):
        with pytest.raises(TopologyError):
            Topology.fully_connected(2).component_of(9)

    def test_splittable_components(self):
        topology = Topology(components=(frozenset({0, 1}), frozenset({2})))
        assert topology.splittable_components() == [frozenset({0, 1})]

    def test_mergeable_pairs_exist(self):
        assert not Topology.fully_connected(3).mergeable_pairs_exist()
        split = Topology.fully_connected(3).partition(
            frozenset({0, 1, 2}), frozenset({2})
        )
        assert split.mergeable_pairs_exist()


class TestPartition:
    def test_splits_component(self):
        topology = Topology.fully_connected(4).partition(
            frozenset({0, 1, 2, 3}), frozenset({1, 3})
        )
        assert set(topology.components) == {frozenset({0, 2}), frozenset({1, 3})}

    def test_rejects_moving_everything_or_nothing(self):
        topology = Topology.fully_connected(3)
        whole = frozenset({0, 1, 2})
        with pytest.raises(TopologyError):
            topology.partition(whole, whole)
        with pytest.raises(TopologyError):
            topology.partition(whole, frozenset())

    def test_rejects_unknown_component(self):
        with pytest.raises(TopologyError):
            Topology.fully_connected(3).partition(frozenset({0, 1}), frozenset({0}))

    def test_rejects_foreign_movers(self):
        topology = Topology.fully_connected(3).partition(
            frozenset({0, 1, 2}), frozenset({2})
        )
        with pytest.raises(TopologyError):
            topology.partition(frozenset({0, 1}), frozenset({2}))


class TestMerge:
    def test_unifies_two_components(self):
        split = Topology.fully_connected(3).partition(
            frozenset({0, 1, 2}), frozenset({2})
        )
        merged = split.merge(frozenset({0, 1}), frozenset({2}))
        assert merged == Topology.fully_connected(3)

    def test_rejects_self_merge(self):
        split = Topology.fully_connected(3).partition(
            frozenset({0, 1, 2}), frozenset({2})
        )
        with pytest.raises(TopologyError):
            split.merge(frozenset({2}), frozenset({2}))

    def test_rejects_merge_with_crashed_component(self):
        crashed = Topology.fully_connected(3).crash(2)
        with pytest.raises(TopologyError):
            crashed.merge(frozenset({0, 1}), frozenset({2}))


class TestCrashRecover:
    def test_crash_isolates_and_marks(self):
        topology = Topology.fully_connected(3).crash(1)
        assert topology.is_crashed(1)
        assert topology.component_of(1) == frozenset({1})
        assert topology.active_processes() == frozenset({0, 2})

    def test_crash_of_singleton_component(self):
        split = Topology.fully_connected(2).partition(
            frozenset({0, 1}), frozenset({1})
        )
        crashed = split.crash(1)
        assert crashed.is_crashed(1)

    def test_double_crash_rejected(self):
        topology = Topology.fully_connected(3).crash(1)
        with pytest.raises(TopologyError):
            topology.crash(1)

    def test_recover_keeps_isolation(self):
        topology = Topology.fully_connected(3).crash(1).recover(1)
        assert not topology.is_crashed(1)
        assert topology.component_of(1) == frozenset({1})
        assert topology.active_processes() == frozenset({0, 1, 2})

    def test_recover_of_live_process_rejected(self):
        with pytest.raises(TopologyError):
            Topology.fully_connected(3).recover(0)

    def test_crashable_and_recoverable(self):
        topology = Topology.fully_connected(3).crash(2)
        assert topology.crashable_processes() == [0, 1]
        assert topology.recoverable_processes() == [2]


@st.composite
def random_walks(draw):
    """A random sequence of feasible partition/merge steps."""
    n = draw(st.integers(min_value=2, max_value=10))
    steps = draw(st.lists(st.randoms(use_true_random=False), max_size=12))
    return n, steps


MAX_PROCESSES = 12


@st.composite
def topologies(draw):
    """An arbitrary valid topology over a small process universe."""
    n = draw(st.integers(min_value=1, max_value=MAX_PROCESSES))
    pids = list(range(n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    rng.shuffle(pids)
    n_components = draw(st.integers(min_value=1, max_value=n))
    cuts = sorted(rng.sample(range(1, n), n_components - 1)) if n_components > 1 else []
    components = []
    previous = 0
    for cut in cuts + [n]:
        components.append(frozenset(pids[previous:cut]))
        previous = cut
    crashed = frozenset(
        next(iter(c)) for c in components
        if len(c) == 1 and draw(st.booleans())
    )
    return Topology(components=tuple(components), crashed=crashed)


class TestProperties:
    @given(topologies())
    def test_generated_topologies_expose_consistent_queries(self, topology):
        """The queries agree with the raw field definitions."""
        union = frozenset().union(*topology.components)
        assert topology.universe == union
        assert topology.active_processes() == union - topology.crashed
        for component in topology.components:
            for pid in component:
                assert topology.component_of(pid) == component

    @given(random_walks())
    def test_random_walk_preserves_the_universe(self, walk):
        """Partitions and merges never create or destroy processes."""
        n, steps = walk
        topology = Topology.fully_connected(n)
        universe = topology.universe
        for rng in steps:
            splittable = topology.splittable_components()
            if rng.random() < 0.5 and splittable:
                component = rng.choice(splittable)
                ordered = sorted(component)
                moved = frozenset(
                    rng.sample(ordered, rng.randint(1, len(ordered) - 1))
                )
                topology = topology.partition(component, moved)
            elif len(topology.components) >= 2:
                first, second = rng.sample(list(topology.components), 2)
                topology = topology.merge(first, second)
            assert topology.universe == universe
            assert sum(len(c) for c in topology.components) == n
