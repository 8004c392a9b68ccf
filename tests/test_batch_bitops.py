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

from repro.core.quorum import is_subquorum
from repro.core.session import Session
from repro.sim.batch.bitops import (
    MAX_PROCESSES,
    expand_bits,
    is_subquorum_mask,
    is_subquorum_vec,
    iter_bits,
    lowest_bit_vec,
    mask_of,
    members_gt,
    session_gt,
    session_sort_key,
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


def masks_array(masks) -> np.ndarray:
    """Scalar masks as the kernel's ``uint64`` lanes."""
    return np.array([int(m) for m in masks], dtype=np.uint64)


# ----------------------------------------------------------------------
# Round-tripping and counting.
# ----------------------------------------------------------------------


@given(members_strategy)
def test_mask_roundtrip(members) -> None:
    mask = mask_of(members)
    assert list(iter_bits(mask)) == sorted(members)
    assert mask.bit_count() == len(members)


def test_iter_bits_full_universe() -> None:
    full = (1 << MAX_PROCESSES) - 1
    assert list(iter_bits(full)) == list(range(MAX_PROCESSES))


# ----------------------------------------------------------------------
# Scalar predicates vs repro.core.quorum.
# ----------------------------------------------------------------------


@given(members_strategy, nonempty_members)
def test_is_subquorum_matches_quorum(x, y) -> None:
    assert is_subquorum_mask(mask_of(x), mask_of(y)) == is_subquorum(
        frozenset(x), frozenset(y)
    )


def test_exact_half_tie_break_both_sides() -> None:
    # The thesis' SUBQUORUM tie-break: exactly half counts only when it
    # holds the lexically smallest member of the reference set.
    universe = mask_of(range(4))
    assert is_subquorum_mask(mask_of({0, 1}), universe)
    assert not is_subquorum_mask(mask_of({2, 3}), universe)


def test_scalar_predicates_reject_empty_reference() -> None:
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
    sub = is_subquorum_vec(xs, ys)
    low = lowest_bit_vec(xs)
    for lane, (x, y) in enumerate(pairs):
        xm, ym = mask_of(x), mask_of(y)
        assert bool(sub[lane]) == is_subquorum_mask(xm, ym)
        assert int(low[lane]) == (xm & -xm)


def test_vectorized_empty_reference_lane_is_false() -> None:
    # The scalar form raises on an empty reference set; the vectorized
    # form (used only on non-empty component lanes) reports False.
    xs = masks_array([0b1, 0b1])
    ys = masks_array([0b0, 0b1])
    assert list(is_subquorum_vec(xs, ys)) == [False, True]


def test_uint64_boundary_lane() -> None:
    # Bit 63 set: the sign-bit position of a two's-complement int64 —
    # the lane where a silent signed-int implementation would break.
    top = 1 << (MAX_PROCESSES - 1)
    full = (1 << MAX_PROCESSES) - 1
    xs = masks_array([top, full])
    assert list(np.bitwise_count(xs)) == [1, MAX_PROCESSES]
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
