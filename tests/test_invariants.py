"""Tests for the invariant checker — including that it really detects
violations, exercised with deliberately broken fake algorithms."""

import pytest

from repro.core.interface import PrimaryComponentAlgorithm
from repro.core.view import View, initial_view
from repro.errors import InvariantViolation
from repro.sim.invariants import InvariantChecker


class Fake(PrimaryComponentAlgorithm):
    """A puppet algorithm whose state tests set directly."""

    name = "fake"
    chain_checkable = False

    def __init__(self, pid, first_view, primary=False):
        super().__init__(pid, first_view)
        self._in_primary = primary
        self._formed = []

    def _on_view(self, view):
        pass

    def _on_items(self, sender, items):  # pragma: no cover - unused
        pass

    def formed_primaries(self):
        return tuple(self._formed)


class ChainFake(Fake):
    chain_checkable = True


def system(n=4, primary_pids=(), cls=Fake):
    first = initial_view(n)
    algorithms = {pid: cls(pid, first, pid in primary_pids) for pid in range(n)}
    return algorithms


class TestSingleLivePrimary:
    def test_empty_claim_set_passes(self):
        checker = InvariantChecker()
        algorithms = system()
        for algorithm in algorithms.values():
            algorithm._in_primary = False
        checker.check_round(algorithms, range(4))

    def test_full_agreement_passes(self):
        checker = InvariantChecker()
        algorithms = system(primary_pids=(0, 1, 2, 3))
        checker.check_round(algorithms, range(4))

    def test_partial_claim_within_view_fails(self):
        checker = InvariantChecker()
        algorithms = system(primary_pids=(0, 1))
        with pytest.raises(InvariantViolation, match="disagreement"):
            checker.check_round(algorithms, range(4))

    def test_two_views_claiming_fails(self):
        checker = InvariantChecker()
        algorithms = system(primary_pids=(0, 1, 2, 3))
        algorithms[0].view_changed(View.of([0, 1], seq=1))
        algorithms[1].view_changed(View.of([0, 1], seq=1))
        algorithms[0]._in_primary = True
        algorithms[1]._in_primary = True
        algorithms[2].view_changed(View.of([2, 3], seq=2))
        algorithms[3].view_changed(View.of([2, 3], seq=2))
        algorithms[2]._in_primary = True
        algorithms[3]._in_primary = True
        with pytest.raises(InvariantViolation, match="two concurrent"):
            checker.check_round(algorithms, range(4))

    def test_crashed_claimants_are_ignored(self):
        checker = InvariantChecker()
        algorithms = system(primary_pids=(0,))
        checker.check_round(algorithms, active=[1, 2, 3])


class TestChain:
    def test_valid_chain_accumulates(self):
        checker = InvariantChecker()
        algorithms = system(cls=ChainFake, primary_pids=range(4))
        algorithms[0]._formed = [(0, frozenset({0, 1, 2, 3}))]
        algorithms[1]._formed = [(1, frozenset({0, 1, 2}))]
        checker.check_round(algorithms, range(4))
        assert checker.formed_chain == [
            (0, frozenset({0, 1, 2, 3})),
            (1, frozenset({0, 1, 2})),
        ]

    def test_conflicting_order_keys_fail(self):
        checker = InvariantChecker()
        algorithms = system(cls=ChainFake, primary_pids=range(4))
        algorithms[0]._formed = [(1, frozenset({0, 1}))]
        algorithms[1]._formed = [(1, frozenset({2, 3}))]
        with pytest.raises(InvariantViolation, match="share order key"):
            checker.check_round(algorithms, range(4))

    def test_non_subquorum_successor_fails(self):
        checker = InvariantChecker()
        algorithms = system(cls=ChainFake, primary_pids=range(4))
        algorithms[0]._formed = [(0, frozenset({0, 1, 2, 3}))]
        algorithms[1]._formed = [(1, frozenset({3}))]  # 1 of 4: no subquorum
        with pytest.raises(InvariantViolation, match="broken primary chain"):
            checker.check_round(algorithms, range(4))

    def test_chain_ignored_for_unchecked_algorithms(self):
        checker = InvariantChecker()
        algorithms = system(cls=Fake, primary_pids=range(4))
        algorithms[0]._formed = [(0, frozenset({0, 1, 2, 3}))]
        algorithms[1]._formed = [(1, frozenset({3}))]
        checker.check_round(algorithms, range(4))  # no error: not checkable


class TestQuiescentAgreement:
    def test_agreement_passes(self):
        checker = InvariantChecker()
        algorithms = system(primary_pids=(0, 1, 2, 3))
        checker.check_quiescent_agreement(
            algorithms, [frozenset({0, 1, 2, 3})], range(4)
        )

    def test_disagreement_fails(self):
        checker = InvariantChecker()
        algorithms = system(primary_pids=(0,))
        with pytest.raises(InvariantViolation, match="disagree"):
            checker.check_quiescent_agreement(
                algorithms, [frozenset({0, 1})], range(4)
            )

    def test_split_components_may_differ(self):
        checker = InvariantChecker()
        algorithms = system(primary_pids=(0, 1))
        checker.check_quiescent_agreement(
            algorithms, [frozenset({0, 1}), frozenset({2, 3})], range(4)
        )
