"""Driver snapshot/restore and canonical state hashing, property-tested.

The fork-based explorer is sound only if two primitives are exact:

* **snapshot/restore** — restoring a :class:`DriverSnapshot` and
  re-running the same suffix must reproduce the continuation
  *byte-identically*: same trace events, same final canonical state.
  Checked here over fuzzer-generated schedules (reusing
  ``repro.check``'s plan machinery), including mid-exchange snapshot
  points, crashes in the schedule, and every registered algorithm.
* **canonical hashing** — the fingerprint must separate states that
  differ and ignore bookkeeping that cannot influence behaviour, and
  the encoder must refuse types it has no rule for.  States are only
  ever merged when identical: dynamic linear voting breaks exact-half
  quorum ties in favour of the lexically smallest member
  (``repro.core.quorum.is_subquorum``), so a schedule with its process
  ids renamed can genuinely diverge — a pinned regression below
  demonstrates it.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.fuzzer import FuzzConfig, generate_plan
from repro.check.plan import driver_steps
from repro.core.registry import algorithm_names
from repro.net.changes import MergeChange, PartitionChange
from repro.sim.driver import DriverLoop
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import derive_rng
from repro.sim.statehash import (
    encode_value,
    state_digest,
    state_fingerprint,
)
from repro.sim.trace import TraceRecorder

#: Plan generator shared by all properties: small systems (snapshot
#: space is about state shape, not scale), crashes included so the
#: fork path copies crashed-process state too.
PLANS = FuzzConfig(master_seed=7, min_processes=3, max_processes=5)

ALGORITHMS = sorted(algorithm_names())


def build_driver(algorithm, n_processes, recorder=None):
    """A schedule-driven driver with checker (and optional recorder)."""
    observers = [InvariantChecker()]
    if recorder is not None:
        observers.append(recorder)
    return DriverLoop(
        algorithm=algorithm,
        n_processes=n_processes,
        fault_rng=derive_rng(0, "snapshot-test", algorithm),
        observers=observers,
    )


def run_steps(driver, steps):
    """Replay (gap, change, late) triples without settling."""
    for gap, change, late in steps:
        for _ in range(gap):
            driver.run_round(None)
        driver.run_round(change, late)


class TestSnapshotRestore:
    """Continuations after restore are byte-identical to the original."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @given(index=st.integers(min_value=0, max_value=40), data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_continuation_is_byte_identical(self, algorithm, index, data):
        plan = generate_plan(PLANS, index)
        steps = driver_steps(plan)
        split = data.draw(
            st.integers(min_value=0, max_value=len(steps)), label="split"
        )
        recorder = TraceRecorder()
        driver = build_driver(algorithm, plan.n_processes, recorder)

        run_steps(driver, steps[:split])
        snap = driver.snapshot()
        at_snapshot = state_fingerprint(driver)
        mark = len(recorder.events)
        # The recorder is an external observer: restore() rewinds the
        # driver, not subscribers.  Its only cross-event state is the
        # primary-transition tracker, rewound here alongside.
        live_at_snapshot = recorder._live_primary

        # First continuation: finish the schedule and settle.
        run_steps(driver, steps[split:])
        driver.run_until_quiescent()
        first_events = recorder.events[mark:]
        first_state = state_fingerprint(driver)
        first_digest = state_digest(driver)

        # Rewind.  The restored state must hash identically to the
        # moment the snapshot was taken.
        driver.restore(snap)
        recorder._live_primary = live_at_snapshot
        assert state_fingerprint(driver) == at_snapshot

        # Second continuation: identical suffix, identical everything.
        mark = len(recorder.events)
        run_steps(driver, steps[split:])
        driver.run_until_quiescent()
        second_events = recorder.events[mark:]
        assert second_events == first_events
        assert state_fingerprint(driver) == first_state
        assert state_digest(driver) == first_digest

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_snapshot_is_immutable_under_continuation(self, algorithm):
        # The snapshot must be a deep-enough fork: running 20 more
        # rounds (partition + merge + settle) must not bleed into it.
        driver = build_driver(algorithm, 4)
        whole = driver.topology.components[0]
        driver.run_round(
            PartitionChange(component=whole, moved=frozenset({3})),
            frozenset(),
        )
        snap = driver.snapshot()
        before = state_fingerprint(driver)
        first, second = driver.topology.components
        driver.run_round(
            MergeChange(first=first, second=second), frozenset({3})
        )
        driver.run_until_quiescent()
        assert state_fingerprint(driver) != before  # state really moved
        driver.restore(snap)
        assert state_fingerprint(driver) == before

    def test_restore_rewinds_checker_chain(self):
        # The invariant checker accumulates the formed-primary chain;
        # a fork must resume from exactly the prefix's chain.
        driver = build_driver("ykd", 4)
        driver.run_until_quiescent()
        snap = driver.snapshot()
        chain_at_snap = driver.checker.formed_chain
        whole = driver.topology.components[0]
        driver.run_round(
            PartitionChange(component=whole, moved=frozenset({2, 3})),
            frozenset(),
        )
        driver.run_until_quiescent()
        assert driver.checker.formed_chain != chain_at_snap
        driver.restore(snap)
        assert driver.checker.formed_chain == chain_at_snap


def relabel_members(members, mapping):
    """A member set through a process-id permutation."""
    return frozenset(mapping[pid] for pid in members)


def relabel_change(change, mapping):
    """A partition through a process-id permutation."""
    return PartitionChange(
        component=relabel_members(change.component, mapping),
        moved=relabel_members(change.moved, mapping),
    )


class TestCanonicalHashing:
    """What the fingerprint separates, ignores and refuses."""

    def test_linear_voting_tie_break_defeats_relabeling(self):
        # Why states equal up to a renaming of process ids are never
        # merged (and why explore() has no orbit counting): dynamic
        # linear voting breaks the exact-half quorum tie in favour of
        # the lexically smallest member, so under the swap 1<->2
        # process 1 wins the {1}|{2} split in BOTH tellings.  The
        # twin's outcome is therefore NOT the relabeling of the
        # original's.
        mapping = {0: 0, 1: 2, 2: 1}
        first = PartitionChange(
            component=frozenset({0, 1, 2}), moved=frozenset({0})
        )
        second = PartitionChange(
            component=frozenset({1, 2}), moved=frozenset({1})
        )
        drivers = {}
        for name, relabel in (("original", None), ("twin", mapping)):
            driver = build_driver("ykd", 3)
            driver.run_until_quiescent()
            for change in (first, second):
                if relabel is not None:
                    change = relabel_change(change, relabel)
                driver.run_round(change, frozenset())
                driver.run_until_quiescent()
            drivers[name] = driver
        # The tie fires when {1, 2} splits into singletons: only the
        # half holding the lexically smallest member may form, so
        # process 1 ends as the surviving primary in both executions.
        for driver in drivers.values():
            assert driver.checker.formed_chain[-1][1] == frozenset({1})
        # Relabeling the original's outcome predicts process 2 as the
        # twin's survivor; the twin says otherwise.
        predicted = relabel_members(
            drivers["original"].checker.formed_chain[-1][1], mapping
        )
        assert predicted == frozenset({2})
        assert drivers["twin"].checker.formed_chain[-1][1] != predicted

    def test_plain_fingerprints_distinguish_relabeled_twins(self):
        # Generic sanity: a nontrivial relabeling changes the
        # fingerprint (here: which process is isolated).
        mapping = {0: 2, 1: 1, 2: 0}
        a = build_driver("ykd", 3)
        whole = a.topology.components[0]
        a.run_round(
            PartitionChange(component=whole, moved=frozenset({2})),
            frozenset(),
        )
        b = build_driver("ykd", 3)
        b.run_round(
            relabel_change(
                PartitionChange(component=whole, moved=frozenset({2})),
                mapping,
            ),
            frozenset(),
        )
        assert state_fingerprint(a) != state_fingerprint(b)

    def test_fingerprint_excludes_bookkeeping(self):
        # Quiet rounds at quiescence advance counters but not
        # behaviour; the fingerprint must not move.
        driver = build_driver("ykd", 3)
        driver.run_until_quiescent()
        before = state_fingerprint(driver)
        driver.run_round(None)
        driver.run_round(None)
        assert state_fingerprint(driver) == before

    def test_unknown_state_raises(self):
        # The encoder must fail loudly on types it has no rule for —
        # silent mis-encoding would corrupt the explorer's dedup memo.
        class Opaque:
            """A type the canonical encoder has no rule for."""

        with pytest.raises(TypeError):
            encode_value(Opaque())
