"""Bitmask primitives for the batched campaign kernel.

Process sets live as packed bitmasks: bit ``p`` set means process ``p``
is a member.  Two flavours share one semantics:

* scalar helpers over plain Python ints (arbitrary precision, but the
  kernel caps the universe at 64 processes so every mask also fits a
  ``uint64``) — these drive the sparse per-component protocol logic;
* vectorized helpers over numpy ``uint64`` arrays — these drive the
  bulk membership bookkeeping and the simple-majority baseline, one
  batch of runs per operation.

Every predicate mirrors a function of :mod:`repro.core.quorum` (or the
session order of :mod:`repro.core.session`) exactly; the property tests
in ``tests/test_batch_bitops.py`` pin the agreement on random
memberships up to the ``n = 64`` boundary.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Tuple

import numpy as np

from repro.types import ProcessId

#: The kernel packs memberships into uint64 lanes, so a batch supports
#: at most 64 processes (the thesis' full scale).
MAX_PROCESSES = 64

_ONE = np.uint64(1)


# ----------------------------------------------------------------------
# Scalar (Python int) masks.
# ----------------------------------------------------------------------


def mask_of(members: Iterable[ProcessId]) -> int:
    """Pack an iterable of process ids into a bitmask."""
    mask = 0
    for pid in members:
        mask |= 1 << pid
    return mask


def members_of(mask: int) -> FrozenSet[ProcessId]:
    """Unpack a bitmask into the frozenset the object engine uses."""
    return frozenset(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[ProcessId]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> List[ProcessId]:
    """The set bit positions of ``mask``, ascending (sorted members)."""
    return list(iter_bits(mask))


def popcount(mask: int) -> int:
    """Number of members in the mask."""
    return mask.bit_count()


def lowest_bit(mask: int) -> int:
    """The lexically smallest member (lowest set bit position)."""
    if not mask:
        raise ValueError("empty mask has no smallest member")
    return (mask & -mask).bit_length() - 1


def is_majority_mask(x: int, y: int) -> bool:
    """``repro.core.quorum.is_majority`` over masks."""
    if not y:
        raise ValueError("majority of an empty set is undefined")
    return 2 * (x & y).bit_count() > y.bit_count()


def is_subquorum_mask(x: int, y: int) -> bool:
    """Thesis Fig. 3-4 SUBQUORUM(X, Y) over masks.

    More than half of ``y`` in ``x``, or exactly half and ``y``'s
    lexically smallest member (its lowest set bit) in ``x``.
    """
    if not y:
        raise ValueError("subquorum of an empty set is undefined")
    doubled = 2 * (x & y).bit_count()
    size = y.bit_count()
    if doubled > size:
        return True
    if doubled == size:
        return x & (y & -y) != 0
    return False


def simple_majority_primary_mask(component: int, universe: int) -> bool:
    """``repro.core.quorum.simple_majority_primary`` over masks."""
    if not component:
        return False
    return is_subquorum_mask(component, universe)


def members_gt(a: int, b: int) -> bool:
    """Does member-mask ``a`` sort after ``b`` as a sorted-pid tuple?

    This is the deterministic tie-break of the session total order
    (:class:`repro.core.session.Session` compares equal numbers by
    ``sorted_members`` tuples).  Derivation: let ``d`` be the lowest
    differing bit — everything below it is a shared tuple prefix.  If
    ``d`` is in ``a``, the tuples first differ where ``a`` holds ``d``
    and ``b`` holds either a later pid (making ``a`` smaller) or
    nothing at all (making ``b`` a proper prefix, hence smaller).
    """
    if a == b:
        return False
    diff = a ^ b
    low = diff & -diff
    if a & low:
        # a holds the first differing pid: a > b only when b has no
        # member beyond it (b is a proper prefix of a's tuple).
        return b & ~((low << 1) - 1) == 0
    # b holds the first differing pid: a > b when a continues past it.
    return a & ~((low << 1) - 1) != 0


def session_gt(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    """Total session order over ``(number, member_mask)`` pairs.

    Mirrors :meth:`repro.core.session.Session.__gt__`: numbers first,
    then the sorted-member-tuple tie-break.
    """
    if a[0] != b[0]:
        return a[0] > b[0]
    return members_gt(a[1], b[1])


#: Swaps the digits of a binary numeral.
_SWAP_BITS = str.maketrans("01", "10")


def session_sort_key(session: Tuple[int, int]) -> Tuple[int, str]:
    """Sort key realizing the session total order (:func:`session_gt`).

    The mask's numeral read from bit 0 up ends at its last member, so
    as a string it orders like the sorted member tuple once a member
    sorts before a gap: at the first pid two sets differ on, the one
    holding it is the smaller tuple unless the other has run out of
    members — the shorter numeral, a proper prefix, and the smaller
    string.
    """
    return session[0], bin(session[1])[:1:-1].translate(_SWAP_BITS)


def max_session_pair(sessions: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
    """The maximum of non-empty ``(number, mask)`` pairs under session order."""
    best = None
    for session in sessions:
        if best is None or session_gt(session, best):
            best = session
    if best is None:
        raise ValueError("max of no sessions")
    return best


# ----------------------------------------------------------------------
# Vectorized (numpy uint64) masks.
# ----------------------------------------------------------------------


def masks_array(masks: Iterable[int]) -> np.ndarray:
    """Pack an iterable of scalar masks into a ``uint64`` array."""
    return np.fromiter((int(m) for m in masks), dtype=np.uint64)


def popcount_vec(masks: np.ndarray) -> np.ndarray:
    """Per-lane popcount of a ``uint64`` mask array."""
    return np.bitwise_count(masks)


def lowest_bit_vec(masks: np.ndarray) -> np.ndarray:
    """Per-lane lowest set bit (as a mask; 0 lanes stay 0)."""
    # Two's complement negation under uint64 wraparound isolates the
    # lowest set bit exactly as ``mask & -mask`` does for Python ints.
    return masks & (~masks + _ONE)


def is_majority_vec(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized ``is_majority`` (lanes with empty ``y`` are False)."""
    return 2 * np.bitwise_count(x & y) > np.bitwise_count(y)


def is_subquorum_vec(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized SUBQUORUM(X, Y) (lanes with empty ``y`` are False).

    The scalar predicate rejects empty ``y`` loudly; the vectorized
    form is used on component lanes that are non-empty by construction,
    so empty lanes simply report False.
    """
    inter = 2 * np.bitwise_count(x & y)
    size = np.bitwise_count(y)
    tie = (inter == size) & ((x & lowest_bit_vec(y)) != 0) & (y != 0)
    return (inter > size) | tie


def simple_majority_primary_vec(
    components: np.ndarray, universe: np.ndarray
) -> np.ndarray:
    """Vectorized §3.3 baseline (empty component lanes are False)."""
    return is_subquorum_vec(components, universe) & (components != 0)


def expand_bits(masks: np.ndarray, n_processes: int) -> np.ndarray:
    """Expand a ``(K,)`` mask array into a ``(K, n)`` boolean matrix."""
    shifts = np.arange(n_processes, dtype=np.uint64)
    return (masks[:, None] >> shifts[None, :]) & _ONE != 0
