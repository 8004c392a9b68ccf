"""Property tests for the batched kernel's bitmask primitives.

Every predicate in ``repro.sim.batch.bitops`` mirrors a function of
``repro.core.quorum`` (or the session order of ``repro.core.session``);
these tests pin the agreement on randomly drawn memberships that reach
past bit 64: masks are plain ints, with no lane width to overflow.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.quorum import is_subquorum
from repro.core.session import Session
from repro.sim.batch.bitops import (
    is_subquorum_mask,
    iter_bits,
    mask_of,
    members_gt,
    session_gt,
    session_sort_key,
)

#: Drawn process ids reach past bit 64, where a fixed-width lane ends.
DRAWN_PROCESSES = 96

# Memberships over the whole drawn universe, empty included.
members_strategy = st.sets(
    st.integers(min_value=0, max_value=DRAWN_PROCESSES - 1),
    max_size=DRAWN_PROCESSES,
)
nonempty_members = st.sets(
    st.integers(min_value=0, max_value=DRAWN_PROCESSES - 1),
    min_size=1,
    max_size=DRAWN_PROCESSES,
)


# ----------------------------------------------------------------------
# Round-tripping and counting.
# ----------------------------------------------------------------------


@given(members_strategy)
def test_mask_roundtrip(members) -> None:
    mask = mask_of(members)
    assert list(iter_bits(mask)) == sorted(members)
    assert mask.bit_count() == len(members)


def test_iter_bits_full_universe() -> None:
    full = (1 << DRAWN_PROCESSES) - 1
    assert list(iter_bits(full)) == list(range(DRAWN_PROCESSES))


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


def test_uint64_boundary_lane() -> None:
    # Bit 63 set: the sign-bit position of a two's-complement int64 —
    # where a fixed-width implementation would break.
    top = 1 << 63
    full = (1 << 64) - 1
    assert is_subquorum_mask(full, full)
    assert not is_subquorum_mask(top, full)


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

