"""Property-based (hypothesis) tests for ``repro.core.quorum``.

The Fig. 3-4 predicates must satisfy their algebraic contract: majority
implies subquorum, both are monotone in the candidate set, the
exact-half tie-break picks exactly one side of an even split, and no
two disjoint components can both hold a subquorum (the property that
makes split brain impossible).
"""

from hypothesis import given, strategies as st

from repro.core.quorum import (
    is_exact_half,
    is_majority,
    is_subquorum,
    quorum_deficit,
    simple_majority_primary,
)

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
