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

import hashlib
import importlib
from dataclasses import dataclass, fields, is_dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.fuzzer import FuzzConfig, generate_plan
from repro.check.plan import driver_steps
from repro.core.dfls import ConfirmItem
from repro.core.knowledge import KnowledgeBook, Outcome, StateItem
from repro.core.message import Piggyback
from repro.core.registry import algorithm_names
from repro.core.session import Session
from repro.core.view import View
from repro.core.ykd import AttemptItem
from repro.net.changes import MergeChange, PartitionChange
from repro.sim.driver import DriverLoop
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import derive_rng
from repro.sim.statehash import (
    _MEMO as MEMO,
    encode_algorithm,
    encode_value,
    state_digest,
    state_fingerprint,
)
from repro.sim.trace import TraceRecorder

#: ``repro.sim.explore`` the attribute is the function; the module, whose
#: ``state_fingerprint`` the differential test wraps, is asked for by name.
explore_module = importlib.import_module("repro.sim.explore")

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

        # Twice: the rule cache must not remember a type without a rule.
        for _ in range(2):
            with pytest.raises(TypeError):
                encode_value(Opaque())
            with pytest.raises(TypeError):
                encode_value([Opaque()])


# ----------------------------------------------------------------------
# The encoder before encodings were memoised and rules found by exact
# type, kept verbatim (only renamed) as the reference the current one
# must reproduce byte for byte: memo keys, ``nodes``/``dedup_hits`` and
# ``state_digest`` values all rest on the exact encoding.
# ----------------------------------------------------------------------


def reference_encode_value(value):
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Session):
        return ("session", value.number, tuple(sorted(value.members)))
    if isinstance(value, View):
        return ("view", value.seq, tuple(sorted(value.members)))
    if isinstance(value, StateItem):
        return (
            "stateitem",
            value.session_number,
            tuple(reference_encode_value(s) for s in value.ambiguous),
            reference_encode_value(value.last_primary),
            tuple(
                sorted(
                    (p, reference_encode_value(s))
                    for p, s in value.last_formed
                )
            ),
        )
    if isinstance(value, KnowledgeBook):
        return (
            "knowledge",
            value._owner,
            tuple(
                sorted(
                    (
                        (reference_encode_value(s), tuple(sorted(members)))
                        for s, members in value._not_formed.items()
                    ),
                    key=repr,
                )
            ),
            tuple(
                sorted(
                    (reference_encode_value(s) for s in value._formed),
                    key=repr,
                )
            ),
        )
    if isinstance(value, (set, frozenset)):
        if all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            return ("pids", tuple(sorted(value)))
        return (
            "set",
            tuple(sorted((reference_encode_value(v) for v in value), key=repr)),
        )
    if isinstance(value, dict):
        if value and all(
            isinstance(k, int) and not isinstance(k, bool) for k in value
        ):
            return (
                "pidmap",
                tuple(
                    sorted(
                        (k, reference_encode_value(v))
                        for k, v in value.items()
                    )
                ),
            )
        return (
            "map",
            tuple(
                sorted(
                    (
                        (reference_encode_value(k), reference_encode_value(v))
                        for k, v in value.items()
                    ),
                    key=lambda pair: repr(pair[0]),
                )
            ),
        )
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(reference_encode_value(v) for v in value))
    if is_dataclass(value) and not isinstance(value, type):
        return (
            "dc",
            type(value).__name__,
            tuple(
                (f.name, reference_encode_value(getattr(value, f.name)))
                for f in fields(value)
            ),
        )
    raise TypeError(f"cannot canonically encode {type(value).__name__!r}")


def reference_encode_algorithm(algorithm):
    encoded = []
    for name, value in sorted(vars(algorithm).items()):
        if name in ("_early_attempts", "_early_confirms"):
            encoded.append(
                (
                    name,
                    tuple((p, reference_encode_value(item)) for p, item in value),
                )
            )
        else:
            encoded.append((name, reference_encode_value(value)))
    return ("algorithm", type(algorithm).__name__, tuple(encoded))


def reference_driver_state(driver):
    topology = driver.topology
    chain = tuple(
        sorted(
            (order_key, tuple(sorted(members)))
            for order_key, members in driver.checker._chain.items()
        )
    )
    algorithms = tuple(
        sorted(
            (pid, reference_encode_algorithm(alg))
            for pid, alg in driver.algorithms.items()
        )
    )
    return (
        "driver",
        (
            "topology",
            tuple(sorted(tuple(sorted(c)) for c in topology.components)),
            tuple(sorted(topology.crashed)),
        ),
        driver.view_seq,
        algorithms,
        ("chain", chain),
    )


def nodes_of(encoding):
    """Every node of a nested-tuple encoding, depth first."""
    stack = [encoding]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, tuple):
            stack.extend(node)


#: Types a frozen value's fields may hold for its encoding to be kept.
DEEPLY_IMMUTABLE = (type(None), bool, int, str, float, Session, View)


def assert_deeply_immutable(value):
    if isinstance(value, (tuple, frozenset)):
        for item in value:
            assert_deeply_immutable(item)
    elif is_dataclass(value):
        assert type(value).__dataclass_params__.frozen, value
        for f in fields(value):
            assert_deeply_immutable(getattr(value, f.name))
    else:
        assert isinstance(value, DEEPLY_IMMUTABLE), value


def frozen_values_in(value):
    """Every frozen dataclass instance reachable through containers."""
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from frozen_values_in(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from frozen_values_in(key)
            yield from frozen_values_in(item)
    elif is_dataclass(value) and type(value).__dataclass_params__.frozen:
        yield value


class TestEncoderDifferential:
    """The memoised, type-dispatched encoder equals the reference."""

    BOUND = dict(n_processes=3, depth=2, gap_options=(0, 1, 2, 3))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_explored_state_encodes_as_the_reference(
        self, algorithm, monkeypatch
    ):
        seen = []

        def checked_fingerprint(driver):
            reference = reference_driver_state(driver)
            fingerprint = state_fingerprint(driver)
            assert fingerprint == reference
            assert state_digest(driver) == hashlib.sha256(
                repr(reference).encode("utf-8")
            ).hexdigest()
            assert MEMO not in set(nodes_of(fingerprint))
            for alg in driver.algorithms.values():
                for value in frozen_values_in(list(vars(alg).values())):
                    assert_deeply_immutable(value)
            seen.append(fingerprint)
            return fingerprint

        monkeypatch.setattr(
            explore_module, "state_fingerprint", checked_fingerprint
        )
        result = explore_module.explore(algorithm, **self.BOUND)
        assert result.passed
        assert len(seen) == result.stats.nodes + result.stats.dedup_hits

    def test_frozen_values_are_encoded_once(self):
        session = Session.of(0, {0, 1, 2})
        state = StateItem(
            session_number=2,
            ambiguous=(Session.of(1, {0, 1}),),
            last_primary=session,
            last_formed=((0, session),),
        )
        item = AttemptItem(session=Session.of(4, {1}))
        for value in (state, item):
            first = encode_value(value)
            assert vars(value)[MEMO] is first
            assert encode_value(value) is first
            # The memo sits in __dict__ beside the fields (and beside the
            # sessions' own memo), and never enters an encoding.
            assert first == reference_encode_value(value)
            assert MEMO not in set(nodes_of(first))
        assert vars(session)[MEMO] is encode_value(session)


    def test_values_outside_explored_states_follow_the_reference(self):
        @dataclass(frozen=True)
        class Wider(AttemptItem):
            """A dataclass subclass: tagged with its own name."""

            extra: int = 1

        class Tally(dict):
            """A dict subclass: encoded by the dict rule."""

        class Flag(int):
            """An int subclass: encoded as itself."""

        for value in (
            set(), frozenset(), {}, [], (),
            Wider(session=Session.of(1, {0})),
            Tally({View.of({0, 1}, seq=2): {0}}),
            Flag(3),
            Piggyback(sender=0, view_seq=1, items=()),  # slotted
        ):
            for _ in range(2):  # the second call finds the cached rule
                assert encode_value(value) == reference_encode_value(value)


def _install(name, value):
    def setup(algorithm):
        setattr(algorithm, name, value)

    return setup


S1 = Session.of(1, {0, 1})
S2 = Session.of(2, {0, 2})
V1 = View.of({0, 1}, seq=1)

#: (algorithm, how the live state is prepared before the snapshot, how
#: the restored clone is then mutated in place).
LEAK_CASES = {
    "list of items": (
        "ykd",
        _install("_outgoing", [AttemptItem(session=S1)]),
        lambda alg: alg._outgoing.append(AttemptItem(session=S2)),
    ),
    "dict of sets": (
        "mr1p",
        _install("_attempt_votes", {V1: {0}}),
        lambda alg: alg._attempt_votes[V1].add(1),
    ),
    "set": (
        "ykd",
        _install("_attempt_senders", {0}),
        lambda alg: alg._attempt_senders.add(2),
    ),
    "knowledge book": (
        "ykd",
        lambda alg: alg.knowledge.open_session(S1),
        lambda alg: alg.knowledge.learn(S1, 1, Outcome.NOT_FORMED),
    ),
    "None, then a value": (
        "dfls",
        _install("_confirming", None),
        lambda alg: (
            setattr(alg, "_confirming", S1),
            alg._early_confirms.append((1, ConfirmItem(session=S1))),
        ),
    ),
    "a value, then None": (
        "dfls",
        lambda alg: (
            setattr(alg, "_confirming", S1),
            setattr(alg, "_confirm_senders", {0}),
        ),
        lambda alg: (
            alg._confirm_senders.add(1),
            setattr(alg, "_confirming", None),
        ),
    ),
}


class TestForkIndependence:
    """Mutating a restored clone never reaches the snapshot it came from."""

    @pytest.mark.parametrize("case", sorted(LEAK_CASES))
    def test_mutating_a_restored_clone_leaves_the_snapshot(self, case):
        algorithm, prepare, mutate = LEAK_CASES[case]
        driver = build_driver(algorithm, 3)
        prepare(driver.algorithms[0])
        snap = driver.snapshot()
        stored = snap.algorithms[0]
        before = reference_encode_algorithm(stored)

        driver.restore(snap)
        mutate(driver.algorithms[0])
        assert reference_encode_algorithm(driver.algorithms[0]) != before
        assert reference_encode_algorithm(stored) == before

        driver.restore(snap)
        assert reference_encode_algorithm(driver.algorithms[0]) == before
        assert encode_algorithm(driver.algorithms[0]) == before
