"""Property-based (hypothesis) tests for the core value layers.

Two families of obligations:

* ``repro.core.serialize`` — every codec must round-trip exactly, both
  as Python dicts and through a real JSON encode/decode, for arbitrary
  values and for durable algorithm state produced by arbitrary runs.
* ``repro.core.quorum`` — the Fig. 3-4 predicates must satisfy their
  algebraic contract: majority implies subquorum, both are monotone in
  the candidate set, the exact-half tie-break picks exactly one side of
  an even split, and no two disjoint components can both hold a
  subquorum (the property that makes split brain impossible).
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.quorum import (
    is_exact_half,
    is_majority,
    is_subquorum,
    quorum_deficit,
    simple_majority_primary,
)
from repro.core.registry import algorithm_names
from repro.core.serialize import (
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

from tests.conftest import run_once

pids = st.integers(min_value=0, max_value=40)
pid_sets = st.frozensets(pids, min_size=1, max_size=12)


@st.composite
def set_with_half(draw):
    """An even-sized set together with one exactly-half subset."""
    members = sorted(draw(st.frozensets(pids, min_size=2, max_size=12)))
    if len(members) % 2:
        members = members[:-1]
    indices = draw(
        st.sets(
            st.sampled_from(range(len(members))),
            min_size=len(members) // 2,
            max_size=len(members) // 2,
        )
    )
    half = frozenset(members[i] for i in indices)
    return frozenset(members), half


@st.composite
def disjoint_partition(draw):
    """A set plus a partition of it into disjoint components."""
    members = draw(pid_sets)
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=len(members),
            max_size=len(members),
        )
    )
    blocks = {}
    for pid, label in zip(sorted(members), labels):
        blocks.setdefault(label, set()).add(pid)
    return members, [frozenset(block) for block in blocks.values()]


class TestSerializeRoundTrips:
    @given(
        number=st.integers(min_value=0, max_value=10_000),
        members=pid_sets,
    )
    def test_session_survives_json(self, number, members):
        session = Session(number=number, members=members)
        data = json.loads(json.dumps(session_to_dict(session)))
        assert session_from_dict(data) == session

    @given(seq=st.integers(min_value=0, max_value=10_000), members=pid_sets)
    def test_view_survives_json(self, seq, members):
        view = View.of(members, seq=seq)
        data = json.loads(json.dumps(view_to_dict(view)))
        assert view_from_dict(data) == view

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        algorithm=st.sampled_from(algorithm_names()),
        n_processes=st.integers(min_value=2, max_value=8),
        n_changes=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_snapshot_survives_json_after_arbitrary_run(
        self, algorithm, n_processes, n_changes, seed
    ):
        """Whatever durable state a random run leaves behind, the
        snapshot must survive a real JSON encode/decode and restore to
        an equal-state instance for every process."""
        driver = run_once(algorithm, n_processes, n_changes, 1.0, seed)
        for original in driver.algorithms.values():
            data = json.loads(json.dumps(snapshot(original)))
            restored = restore(data)
            assert snapshots_equal(original, restored)


class TestQuorumAlgebra:
    @given(x=pid_sets, y=pid_sets)
    def test_majority_implies_subquorum(self, x, y):
        if is_majority(x, y):
            assert is_subquorum(x, y)

    @given(x=pid_sets, y=pid_sets, extra=pid_sets)
    def test_predicates_are_monotone_in_the_candidate(self, x, y, extra):
        # Growing x can only help: a quorum never disappears when more
        # processes join the component holding it.
        grown = x | extra
        if is_majority(x, y):
            assert is_majority(grown, y)
        if is_subquorum(x, y):
            assert is_subquorum(grown, y)

    @given(pair=set_with_half())
    def test_tie_break_picks_exactly_one_half(self, pair):
        y, half = pair
        other = y - half
        assert is_exact_half(half, y) and is_exact_half(other, y)
        assert is_subquorum(half, y) != is_subquorum(other, y)

    @given(partition=disjoint_partition())
    def test_disjoint_components_never_share_a_subquorum(self, partition):
        y, components = partition
        holders = [c for c in components if is_subquorum(c, y)]
        assert len(holders) <= 1

    @given(partition=disjoint_partition())
    def test_at_most_one_simple_majority_primary(self, partition):
        universe, components = partition
        primaries = [
            c for c in components if simple_majority_primary(c, universe)
        ]
        assert len(primaries) <= 1

    @given(x=pid_sets, y=pid_sets)
    def test_deficit_is_zero_iff_subquorum(self, x, y):
        assert (quorum_deficit(x, y) == 0) == is_subquorum(x, y)

    @given(x=pid_sets, y=pid_sets)
    def test_paying_the_deficit_yields_a_quorum(self, x, y):
        deficit = quorum_deficit(x, y)
        if deficit:
            missing = sorted(y - x)[:deficit]
            assert len(missing) == deficit
            assert is_subquorum(x | set(missing), y)
