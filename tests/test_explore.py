"""Tests for the exhaustive scenario explorer (bounded model checking)."""

import pytest

from repro.net.changes import MergeChange, PartitionChange
from repro.net.topology import Topology
from repro.sim.explore import (
    ExplorationResult,
    enumerate_changes,
    enumerate_cuts,
    explore,
    explore_replay,
)


class TestEnumeration:
    def test_changes_of_one_component(self):
        topology = Topology.fully_connected(3)
        changes = list(enumerate_changes(topology))
        # Splits of {0,1,2} up to symmetry: {0}|{1,2}, {1}|{0,2}, {2}|{0,1}.
        assert len(changes) == 3
        assert all(isinstance(c, PartitionChange) for c in changes)
        # Canonicalization: the moved set never contains the anchor 0.
        assert all(0 not in c.moved for c in changes)

    def test_changes_of_split_topology(self):
        topology = Topology.fully_connected(3).partition(
            frozenset({0, 1, 2}), frozenset({2})
        )
        changes = list(enumerate_changes(topology))
        partitions = [c for c in changes if isinstance(c, PartitionChange)]
        merges = [c for c in changes if isinstance(c, MergeChange)]
        assert len(partitions) == 1  # only {0,1} can split
        assert len(merges) == 1

    def test_changes_are_deduplicated_up_to_symmetry(self):
        topology = Topology.fully_connected(4)
        changes = list(enumerate_changes(topology))
        # Splits of a 4-set up to symmetry: 2^3 - 1 = 7.
        assert len(changes) == 7
        splits = {
            frozenset({frozenset(c.moved), frozenset(c.component - c.moved)})
            for c in changes
        }
        assert len(splits) == 7

    def test_cut_enumeration_covers_power_set(self):
        cuts = list(enumerate_cuts(frozenset({1, 2})))
        assert len(cuts) == 4
        assert frozenset() in cuts
        assert frozenset({1, 2}) in cuts


class TestExplore:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            explore("ykd", depth=0)

    @pytest.mark.parametrize("engine", [explore, explore_replay])
    @pytest.mark.parametrize("gaps", [(), (-1,), (0, -2)])
    def test_both_engines_refuse_bad_gap_options(self, engine, gaps):
        # A negative gap would run as gap 0; an empty list checks nothing.
        with pytest.raises(ValueError, match="gap_options"):
            engine("ykd", n_processes=3, depth=1, gap_options=gaps)

    def test_counts_and_availability(self):
        result = explore("ykd", n_processes=3, depth=1, gap_options=(0,))
        # depth 1, gap 0: 3 splits × 2^3 cuts = 24 scenarios.
        assert result.scenarios == 24
        assert 0.0 <= result.availability_percent <= 100.0
        assert result.passed

    def test_max_scenarios_truncates(self):
        result = explore(
            "ykd", n_processes=3, depth=2, gap_options=(0, 1),
            max_scenarios=10,
        )
        assert result.scenarios == 10
        assert result.truncated

    def test_nan_availability_when_empty(self):
        import math

        result = ExplorationResult(
            algorithm="ykd", n_processes=3, depth=1, gap_options=(0,)
        )
        assert math.isnan(result.availability_percent)
        assert not result.passed  # zero scenarios prove nothing


class TestExhaustiveSafety:
    """The headline: every bounded interleaving holds the invariants.

    Gap options cover every protocol round: YKD's two rounds, DFLS's
    three, MR1p's five-round resolution pipeline all get interrupted at
    every stage somewhere in the enumeration.
    """

    @pytest.mark.parametrize(
        "algorithm",
        ["ykd", "ykd_unopt", "ykd_aggressive", "dfls", "one_pending",
         "simple_majority"],
    )
    def test_three_processes_depth_two(self, algorithm):
        result = explore(
            algorithm, n_processes=3, depth=2, gap_options=(0, 1, 2, 3)
        )
        assert result.passed, result.violations[:1]
        assert result.scenarios > 1000

    def test_mr1p_with_deep_gaps(self):
        # MR1p's resolution needs up to 5 quiet rounds; include gaps
        # that interrupt each stage of the pipeline.
        result = explore(
            "mr1p", n_processes=3, depth=2, gap_options=(0, 1, 2, 3, 4, 5)
        )
        assert result.passed, result.violations[:1]

    def test_four_processes_ykd(self):
        result = explore("ykd", n_processes=4, depth=2, gap_options=(0, 2))
        assert result.passed, result.violations[:1]
        assert result.scenarios > 10_000
