"""Tests for durable-state snapshot/restore."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.serialize import (
    SnapshotError,
    restore,
    session_from_dict,
    session_to_dict,
    snapshot,
    snapshots_equal,
    view_from_dict,
    view_to_dict,
)
from repro.core.session import Session
from repro.core.view import View

from tests.conftest import heal, make_driver, split


class TestValueCodecs:
    def test_session_round_trip(self):
        session = Session.of(7, [0, 3, 5])
        assert session_from_dict(session_to_dict(session)) == session

    def test_view_round_trip(self):
        view = View.of([1, 4], seq=9)
        assert view_from_dict(view_to_dict(view)) == view

    @given(
        number=st.integers(min_value=0, max_value=1000),
        members=st.frozensets(
            st.integers(min_value=0, max_value=64), min_size=1, max_size=16
        ),
    )
    def test_session_round_trip_property(self, number, members):
        session = Session(number=number, members=members)
        assert session_from_dict(session_to_dict(session)) == session


def exercised_driver(algorithm, seed=1):
    """A driver whose processes have non-trivial durable state."""
    driver = make_driver(algorithm, 5, seed=seed)
    split(driver, {3, 4})
    driver.run_round()  # states / tries
    from repro.net.changes import PartitionChange

    abc = next(c for c in driver.topology.components if c == frozenset({0, 1, 2}))
    driver.run_round(PartitionChange(component=abc, moved=frozenset({2})))
    driver.run_until_quiescent()
    return driver


ALGORITHMS = ["ykd", "ykd_unopt", "ykd_aggressive", "dfls", "one_pending",
              "mr1p", "simple_majority"]


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_snapshot_is_json_serializable(self, algorithm):
        driver = exercised_driver(algorithm)
        for pid in range(5):
            data = snapshot(driver.algorithms[pid])
            assert json.loads(json.dumps(data)) == data

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_restore_preserves_durable_state(self, algorithm):
        driver = exercised_driver(algorithm)
        for pid in range(5):
            original = driver.algorithms[pid]
            restored = restore(snapshot(original))
            assert snapshots_equal(original, restored)
            assert restored.pid == original.pid
            assert restored.universe == original.universe

    def test_restored_instance_is_not_in_primary(self):
        driver = exercised_driver("ykd")
        primary_pid = next(
            pid for pid in range(5) if driver.algorithms[pid].in_primary()
        )
        restored = restore(snapshot(driver.algorithms[primary_pid]))
        # Like a recovering process, it waits for a view.
        assert not restored.in_primary()

    def test_ykd_state_details_survive(self):
        driver = exercised_driver("ykd")
        original = driver.algorithms[2]
        restored = restore(snapshot(original))
        assert restored.last_primary == original.last_primary
        assert restored.last_formed == original.last_formed
        assert restored.ambiguous == original.ambiguous
        assert restored.session_number == original.session_number

    def test_mr1p_state_details_survive(self):
        driver = exercised_driver("mr1p")
        original = driver.algorithms[2]
        restored = restore(snapshot(original))
        assert restored.cur_primary == original.cur_primary
        assert restored.formed_views == original.formed_views
        assert restored.pending == original.pending
        assert (restored.num, restored.status) == (original.num, original.status)

    def test_bad_format_rejected(self):
        driver = exercised_driver("ykd")
        data = snapshot(driver.algorithms[0])
        data["format"] = 99
        with pytest.raises(SnapshotError):
            restore(data)


class TestBehaviouralEquivalence:
    def test_restored_process_behaves_like_original(self):
        """Restore a pending-session holder and let it rejoin: it must
        enforce exactly the constraints the original would have."""
        driver = exercised_driver("ykd", seed=0)
        # Find a process with a pending ambiguous session, if any seed
        # produced one; otherwise any process serves the check.
        target = next(
            (p for p in range(5) if driver.algorithms[p].ambiguous), 2
        )
        original = driver.algorithms[target]
        restored = restore(snapshot(original))
        # Swap the restored instance in and heal the network: the run
        # must complete with a primary and identical final state.
        driver.algorithms[target] = restored
        driver.endpoints[target].algorithm = restored
        restored.view_changed(original.current_view)
        heal(driver)
        assert driver.primary_members() == (0, 1, 2, 3, 4)
        assert restored.in_primary()
