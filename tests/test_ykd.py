"""Behavioural tests for the YKD algorithm, driven through the simulator."""

import pytest

from repro.core.session import Session
from repro.core.ykd import YKD, AttemptItem
from repro.core.view import initial_view
from repro.errors import ProtocolError
from repro.net.changes import MergeChange, PartitionChange

from tests.conftest import heal, make_driver, outcome, run_once, split


class TestInitialState:
    def test_starts_primary_with_initial_session(self):
        algorithm = YKD(0, initial_view(5))
        assert algorithm.in_primary()
        assert algorithm.last_primary.number == 0
        assert algorithm.last_primary.members == frozenset(range(5))
        assert algorithm.ambiguous == []
        assert all(
            algorithm.last_formed[q].number == 0 for q in range(5)
        )


class TestTwoRoundFormation:
    def test_majority_side_reforms_in_two_rounds(self):
        driver = make_driver("ykd", 5)
        split(driver, {3, 4})
        # Round 1: state exchange; round 2: attempts; formed at its end.
        assert not driver.primary_exists()
        driver.run_round()
        assert not driver.primary_exists()
        driver.run_round()
        assert driver.primary_members() == (0, 1, 2)

    def test_minority_side_stays_blocked(self):
        driver = make_driver("ykd", 5)
        split(driver, {3, 4})
        driver.run_until_quiescent()
        for pid in (3, 4):
            assert not driver.algorithms[pid].in_primary()

    def test_formation_updates_all_state(self):
        driver = make_driver("ykd", 5)
        split(driver, {3, 4})
        driver.run_until_quiescent()
        algorithm = driver.algorithms[0]
        assert algorithm.last_primary.members == frozenset({0, 1, 2})
        assert algorithm.last_primary.number == 1
        assert algorithm.ambiguous == []
        for member in (0, 1, 2):
            assert algorithm.last_formed[member] == algorithm.last_primary
        # Processes not in the new primary keep their old entries.
        assert algorithm.last_formed[3].number == 0


class TestDynamicVoting:
    def test_majority_of_previous_primary_suffices(self):
        """The dynamic voting principle: primaries may shrink stepwise
        below a majority of the original process set."""
        driver = make_driver("ykd", 5)
        split(driver, {3, 4})       # primary {0,1,2}
        driver.run_until_quiescent()
        split(driver, {2})          # {0,1} is a majority of {0,1,2}...
        driver.run_until_quiescent()
        assert driver.primary_members() == (0, 1)
        split(driver, {1})          # ...and {0} wins the {0,1} tie-break.
        driver.run_until_quiescent()
        assert driver.primary_members() == (0,)

    def test_simple_majority_would_have_lost_quorum(self):
        """The same fault pattern leaves simple majority without a primary."""
        driver = make_driver("simple_majority", 5)
        split(driver, {3, 4})
        driver.run_until_quiescent()
        split(driver, {2})
        driver.run_until_quiescent()
        assert not driver.primary_exists()  # {0,1} is 2 of 5

    def test_exact_half_without_designated_process_loses(self):
        driver = make_driver("ykd", 4)
        split(driver, {2, 3})  # {0,1} holds process 0, the designated one
        driver.run_until_quiescent()
        assert driver.primary_members() == (0, 1)

    def test_merge_reforms_larger_primary(self):
        driver = make_driver("ykd", 5)
        split(driver, {3, 4})
        driver.run_until_quiescent()
        heal(driver)
        assert driver.primary_members() == (0, 1, 2, 3, 4)


class TestAmbiguousSessions:
    def _interrupt_attempt(self, driver, moved):
        """Let the state exchange complete, then cut the attempt round."""
        driver.run_round()  # states delivered, attempts queued
        component = next(
            c for c in driver.topology.components if frozenset(moved) <= c
        )
        driver.run_round(
            PartitionChange(component=component, moved=frozenset(moved))
        )

    def test_interrupted_attempt_leaves_pending_sessions(self):
        driver = make_driver("ykd", 5)
        split(driver, {3, 4})
        self._interrupt_attempt(driver, {2})
        driver.run_until_quiescent()
        # Some processes of {0,1,2} attempted S1 and were interrupted or
        # completed; whoever did not complete it retains it as ambiguous.
        pending = [
            session
            for pid in (0, 1, 2)
            for session in driver.algorithms[pid].ambiguous
        ]
        formed = [
            pid
            for pid in (0, 1, 2)
            if driver.algorithms[pid].last_formed[2].members == frozenset({0, 1, 2})
            and driver.algorithms[pid].last_formed[2].number > 0
        ]
        assert pending or formed  # the attempt happened somewhere

    def test_pending_session_constrains_later_primaries(self):
        """The Fig. 3-1 scenario: c's ambiguous {a,b,c} blocks {c,d,e}."""
        for seed in range(64):
            driver = make_driver("ykd", 5, seed=seed)
            split(driver, {3, 4})
            self._interrupt_attempt(driver, {2})
            driver.run_until_quiescent()
            c = driver.algorithms[2]
            holds_ambiguous = any(
                s.members == frozenset({0, 1, 2}) for s in c.ambiguous
            )
            if not holds_ambiguous:
                continue
            # Merge {c} with {d,e}: a majority of the original five, but
            # not a subquorum of the possibly-formed {a,b,c}.
            components = {frozenset(comp) for comp in driver.topology.components}
            c_comp = next(comp for comp in components if 2 in comp)
            de_comp = next(comp for comp in components if 3 in comp)
            driver.run_round(MergeChange(first=c_comp, second=de_comp))
            driver.run_until_quiescent()
            assert not any(
                driver.algorithms[p].in_primary() for p in (2, 3, 4)
            )
            return
        pytest.fail("no seed produced the ambiguous-session scenario")

    def test_formation_clears_all_ambiguous_sessions(self):
        """Thesis §4.2: a successful run ends with no ambiguous sessions."""
        driver = make_driver("ykd", 5)
        split(driver, {3, 4})
        self._interrupt_attempt(driver, {2})
        driver.run_until_quiescent()
        heal(driver)
        assert driver.primary_members() == (0, 1, 2, 3, 4)
        for pid in range(5):
            assert driver.algorithms[pid].ambiguous == []

    def test_pipelining_new_attempts_despite_pending(self):
        """YKD attempts new primaries while older attempts are pending."""
        for seed in range(64):
            driver = make_driver("ykd", 5, seed=seed)
            split(driver, {3, 4})
            self._interrupt_attempt(driver, {2})
            driver.run_until_quiescent()
            ab = [driver.algorithms[0], driver.algorithms[1]]
            if driver.primary_members() == (0, 1):
                # {a,b} re-formed even though the fate of {a,b,c} was
                # unresolved at c — that is the pipelining.
                assert all(a.in_primary() for a in ab)
                return
        pytest.fail("no seed let {a,b} re-form after the interruption")


class TestDeterminism:
    def test_attempt_mismatch_is_a_protocol_error(self):
        algorithm = YKD(0, initial_view(3))
        algorithm.view_changed(initial_view(3).__class__.of([0, 1], seq=1))
        algorithm._decided = True  # we decided differently than the peer
        rogue = AttemptItem(session=Session.of(9, [0, 1]))
        with pytest.raises(ProtocolError):
            algorithm._on_items(1, [rogue])

    def test_attempt_before_decision_is_buffered_not_fatal(self):
        """Asynchronous substrates may deliver a peer's attempt before
        our state exchange completes; it must wait, not crash."""
        algorithm = YKD(0, initial_view(3))
        algorithm.view_changed(initial_view(3).__class__.of([0, 1], seq=1))
        early = AttemptItem(session=Session.of(9, [0, 1]))
        algorithm._on_items(1, [early])
        assert algorithm._early_attempts == [(1, early)]

    def test_unknown_item_rejected(self):
        algorithm = YKD(0, initial_view(3))
        with pytest.raises(ProtocolError):
            algorithm._on_items(1, ["garbage"])

    def test_identical_seeds_give_identical_runs(self):
        first = run_once("ykd", 8, n_changes=6, rate=1.0, seed=11)
        second = run_once("ykd", 8, n_changes=6, rate=1.0, seed=11)
        assert outcome(first) == outcome(second)


class TestIntrospection:
    def test_formed_primaries_reports_last_primary(self):
        driver = make_driver("ykd", 5)
        split(driver, {3, 4})
        driver.run_until_quiescent()
        algorithm = driver.algorithms[0]
        assert algorithm.formed_primaries() == (
            (algorithm.last_primary.number, frozenset({0, 1, 2})),
        )

    def test_debug_stats_exposes_session_state(self):
        driver = make_driver("ykd", 5)
        split(driver, {3, 4})
        driver.run_until_quiescent()
        stats = driver.algorithms[0].debug_stats()
        assert stats["session_number"] == 1
        assert stats["last_primary"] == "S1{0,1,2}"
