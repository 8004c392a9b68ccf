"""Property tests for the batched kernel's bitmask primitives.

Every predicate in ``repro.sim.batch.bitops`` mirrors a function of
``repro.core.quorum`` (or the session order of ``repro.core.session``);
these tests pin the agreement on randomly drawn memberships, including
the ``n = 64`` boundary the uint64 lanes must survive.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.quorum import is_majority, is_subquorum, simple_majority_primary
from repro.core.session import Session
from repro.sim.batch.bitops import (
    MAX_PROCESSES,
    bits_list,
    expand_bits,
    is_majority_mask,
    is_majority_vec,
    is_subquorum_mask,
    is_subquorum_vec,
    iter_bits,
    lowest_bit,
    lowest_bit_vec,
    mask_of,
    masks_array,
    max_session_pair,
    members_gt,
    members_of,
    popcount,
    popcount_vec,
    session_gt,
    session_sort_key,
    simple_majority_primary_mask,
    simple_majority_primary_vec,
)

# Memberships over the full uint64 range, empty included.
members_strategy = st.sets(
    st.integers(min_value=0, max_value=MAX_PROCESSES - 1), max_size=MAX_PROCESSES
)
nonempty_members = st.sets(
    st.integers(min_value=0, max_value=MAX_PROCESSES - 1),
    min_size=1,
    max_size=MAX_PROCESSES,
)


# ----------------------------------------------------------------------
# Round-tripping and counting.
# ----------------------------------------------------------------------


@given(members_strategy)
def test_mask_roundtrip(members) -> None:
    mask = mask_of(members)
    assert members_of(mask) == frozenset(members)
    assert bits_list(mask) == sorted(members)
    assert popcount(mask) == len(members)


@given(nonempty_members)
def test_lowest_bit_is_lexically_smallest_member(members) -> None:
    assert lowest_bit(mask_of(members)) == min(members)


def test_lowest_bit_rejects_empty() -> None:
    with pytest.raises(ValueError):
        lowest_bit(0)


def test_iter_bits_full_universe() -> None:
    full = (1 << MAX_PROCESSES) - 1
    assert list(iter_bits(full)) == list(range(MAX_PROCESSES))
    assert popcount(full) == MAX_PROCESSES


# ----------------------------------------------------------------------
# Scalar predicates vs repro.core.quorum.
# ----------------------------------------------------------------------


@given(members_strategy, nonempty_members)
def test_is_majority_matches_quorum(x, y) -> None:
    assert is_majority_mask(mask_of(x), mask_of(y)) == is_majority(
        frozenset(x), frozenset(y)
    )


@given(members_strategy, nonempty_members)
def test_is_subquorum_matches_quorum(x, y) -> None:
    assert is_subquorum_mask(mask_of(x), mask_of(y)) == is_subquorum(
        frozenset(x), frozenset(y)
    )


@given(members_strategy, nonempty_members)
def test_simple_majority_primary_matches_quorum(component, universe) -> None:
    assert simple_majority_primary_mask(
        mask_of(component), mask_of(universe)
    ) == simple_majority_primary(frozenset(component), frozenset(universe))


def test_exact_half_tie_break_both_sides() -> None:
    # The thesis' SUBQUORUM tie-break: exactly half counts only when it
    # holds the lexically smallest member of the reference set.
    universe = mask_of(range(4))
    assert is_subquorum_mask(mask_of({0, 1}), universe)
    assert not is_subquorum_mask(mask_of({2, 3}), universe)


def test_scalar_predicates_reject_empty_reference() -> None:
    with pytest.raises(ValueError):
        is_majority_mask(0b1, 0)
    with pytest.raises(ValueError):
        is_subquorum_mask(0b1, 0)


# ----------------------------------------------------------------------
# Session total order vs repro.core.session.
# ----------------------------------------------------------------------


session_strategy = st.tuples(
    st.integers(min_value=0, max_value=50), nonempty_members
)


@given(session_strategy, session_strategy)
def test_session_order_matches_session_dataclass(a, b) -> None:
    sa = Session(number=a[0], members=frozenset(a[1]))
    sb = Session(number=b[0], members=frozenset(b[1]))
    pa = (a[0], mask_of(a[1]))
    pb = (b[0], mask_of(b[1]))
    assert session_gt(pa, pb) == (sa > sb)
    assert members_gt(pa[1], pb[1]) == (
        tuple(sorted(a[1])) > tuple(sorted(b[1]))
    )
    assert (session_sort_key(pa) > session_sort_key(pb)) == (sa > sb)


@given(st.lists(session_strategy, min_size=1, max_size=8))
def test_max_session_pair_matches_python_max(pairs) -> None:
    sessions = [Session(number=n, members=frozenset(m)) for n, m in pairs]
    masks = [(n, mask_of(m)) for n, m in pairs]
    best = max_session_pair(masks)
    expected = max(sessions)
    assert best == (expected.number, mask_of(expected.members))


def test_max_session_pair_rejects_empty() -> None:
    with pytest.raises(ValueError):
        max_session_pair([])


# ----------------------------------------------------------------------
# Vectorized forms agree with the scalar forms, lane for lane.
# ----------------------------------------------------------------------


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(members_strategy, nonempty_members), min_size=1, max_size=20
    )
)
def test_vectorized_lanes_match_scalar(pairs) -> None:
    xs = masks_array(mask_of(x) for x, _ in pairs)
    ys = masks_array(mask_of(y) for _, y in pairs)
    maj = is_majority_vec(xs, ys)
    sub = is_subquorum_vec(xs, ys)
    prim = simple_majority_primary_vec(xs, ys)
    pop = popcount_vec(xs)
    low = lowest_bit_vec(xs)
    for lane, (x, y) in enumerate(pairs):
        xm, ym = mask_of(x), mask_of(y)
        assert bool(maj[lane]) == is_majority_mask(xm, ym)
        assert bool(sub[lane]) == is_subquorum_mask(xm, ym)
        assert bool(prim[lane]) == simple_majority_primary_mask(xm, ym)
        assert int(pop[lane]) == popcount(xm)
        assert int(low[lane]) == (xm & -xm)


def test_vectorized_empty_reference_lane_is_false() -> None:
    # The scalar form raises on an empty reference set; the vectorized
    # form (used only on non-empty component lanes) reports False.
    xs = masks_array([0b1, 0b1])
    ys = masks_array([0b0, 0b1])
    assert list(is_subquorum_vec(xs, ys)) == [False, True]
    assert list(is_majority_vec(xs, ys)) == [False, True]


def test_uint64_boundary_lane() -> None:
    # Bit 63 set: the sign-bit position of a two's-complement int64 —
    # the lane where a silent signed-int implementation would break.
    top = 1 << (MAX_PROCESSES - 1)
    full = (1 << MAX_PROCESSES) - 1
    xs = masks_array([top, full])
    assert list(popcount_vec(xs)) == [1, MAX_PROCESSES]
    assert int(lowest_bit_vec(masks_array([top]))[0]) == top
    assert is_subquorum_mask(full, full)
    assert not is_subquorum_mask(top, full)
    assert bool(is_subquorum_vec(masks_array([full]), masks_array([full]))[0])


@given(st.lists(members_strategy, min_size=1, max_size=16))
def test_expand_bits_matches_membership(memberships) -> None:
    masks = masks_array(mask_of(m) for m in memberships)
    bits = expand_bits(masks, MAX_PROCESSES)
    assert bits.shape == (len(memberships), MAX_PROCESSES)
    for lane, members in enumerate(memberships):
        assert set(np.nonzero(bits[lane])[0]) == set(members)
