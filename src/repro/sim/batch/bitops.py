"""Bitmask primitives for the batched campaign kernel.

Process sets live as packed bitmasks over plain Python ints: bit ``p``
set means process ``p`` is a member.  Ints have arbitrary precision,
so a universe of any size fits one mask.

Every predicate mirrors a function of :mod:`repro.core.quorum` (or the
session order of :mod:`repro.core.session`) exactly; the property tests
in ``tests/test_batch_bitops.py`` pin the agreement on random
memberships past bit 64.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from repro.types import ProcessId


def mask_of(members: Iterable[ProcessId]) -> int:
    """Pack an iterable of process ids into a bitmask."""
    mask = 0
    for pid in members:
        mask |= 1 << pid
    return mask


def iter_bits(mask: int) -> Iterator[ProcessId]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

