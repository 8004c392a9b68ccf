"""Where a class of members must fork: class-stepped == member-stepped.

The YKD-family engine plays an episode once per class of members
holding the same book.  That is exact as long as a class forks wherever
the scalar rule reads the member's own pid; the places are listed in
``_YkdFamilyEngine``'s docstring, and each has a snapshot here that
reaches it.  Some cannot be reached from a crash-free run at all (an
owner of a pending session is never inside a later formation; see
``test_one_pending_tells_the_owner_inside_a_later_formation_apart``), so
the battery of ``tests/test_batch_differential.py`` would never notice
them missing: these snapshots are handcrafted, and the oracle is the
engine itself with every group exploded into single members, which is
the per-member rule by construction — a class of one has nobody to be
told apart from.
"""

from __future__ import annotations

import pytest

from repro.sim.batch import kernel
from repro.sim.batch.bitops import iter_bits, mask_of
from repro.sim.batch.kernel import _YkdBook

INSTALLED = 10
FINAL = INSTALLED + 1_000  # cut long after every stage


def book(lp, lf, snum=0, amb=(), kf=(), ki=None) -> _YkdBook:
    made = _YkdBook(lp)
    made.snum = snum
    made.lf = frozenset(lf.items())
    made.amb = tuple(amb)
    made.kf = frozenset(kf)
    made.ki = dict(ki or {})
    return made


def per_member(groups):
    """pid -> its book's content, the implicit own bit spelled out."""
    found = {}
    for group, held in groups:
        for pid in iter_bits(group):
            assert pid not in found, "groups overlap"
            found[pid] = (
                held.snum,
                held.lp,
                held.amb,
                held.lf,
                held.kf,
                frozenset((s, m | 1 << pid) for s, m in held.ki.items()),
            )
    return found


def play(variant, held, cut_round=FINAL, late=0):
    """One episode class-stepped and member-stepped; returns the
    class-stepped groups once both agree on every member."""
    mask = 0
    for group, _ in held:
        mask |= group
    engine = kernel._YkdFamilyEngine(variant, 1, mask)
    args = (mask, 1, INSTALLED, cut_round, late)
    groups, sent, primary = engine._episode(held, *args)
    singles = [(1 << pid, b) for group, b in held for pid in iter_bits(group)]
    expected, expected_sent, expected_primary = engine._episode(singles, *args)
    assert per_member(groups) == per_member(expected)
    assert (sent, primary) == (expected_sent, expected_primary)
    assert set(per_member(groups)) == set(iter_bits(mask))
    return groups


EVERYONE = mask_of(range(6))
INITIAL = (0, EVERYONE)


@pytest.mark.parametrize("variant", ["ykd", "ykd_unopt", "dfls", "one_pending"])
@pytest.mark.parametrize("stage", [1, 2, 3])
def test_a_cut_round_forks_on_the_late_mask_in_every_stage(variant, stage) -> None:
    held = [(EVERYONE, book(INITIAL, {INITIAL: EVERYONE}))]
    late = mask_of([1, 4])
    groups = play(variant, held, cut_round=INSTALLED + stage, late=late)
    stages = 3 if variant == "dfls" else 2
    if stage > stages:
        assert len(groups) == 1  # the episode was over already
    else:
        assert sorted(group for group, _ in groups) == [late, EVERYONE & ~late]
        if stage == 1:
            assert dict(groups)[late] is held[0][1]  # no effects at all


def test_a_lone_late_member_still_hears_itself() -> None:
    lone = [(1, book((0, 1), {(0, 1): 1}))]
    (group, after), = play("ykd", lone, cut_round=INSTALLED + 1, late=1)
    assert after.amb == ((1, 1),)


@pytest.mark.parametrize("variant", ["ykd", "ykd_unopt", "dfls", "one_pending"])
def test_accept_forks_on_the_best_formed_session_containing_the_member(
    variant,
) -> None:
    """One book, but the formations the other member reports contain
    different members of the class holding it."""
    older = (1, EVERYONE)
    theirs = book(older, {older: EVERYONE}, snum=1)
    first = (3, mask_of([0, 1, 4]))
    second = (2, mask_of([1, 2, 4]))
    witness = book(
        first,
        {first: first[1], second: mask_of([2]), older: mask_of([3, 5])},
        snum=3,
    )
    held = [(mask_of([0, 1, 2, 3]), theirs), (mask_of([4]), witness)]
    play(variant, held)  # through to the formed primary
    groups = play(variant, held, cut_round=INSTALLED + 1)
    accepted = {pid: content[1] for pid, content in per_member(groups).items()}
    assert accepted[0] == accepted[1] == first  # 1 is in both: the better
    assert accepted[2] == second
    assert accepted[3] == older
    assert len(groups) == 4


def test_one_pending_tells_the_owner_inside_a_later_formation_apart() -> None:
    """``_session_resolvable``'s superseded test names the owner: a
    group that straddles the later formation blocks the attempt, and
    only the owners inside it drop the pending session — ACCEPT's fork,
    which is why the rule needs none of its own.

    Unreachable without crashes: an owner inside a later formation
    opened it, and 1-pending opens nothing while it has a pending
    session it cannot resolve.  The rule is mirrored all the same.
    """
    view = mask_of(range(4))
    pending = (3, mask_of(range(5)))  # member 4 is elsewhere: never settled
    older = (1, EVERYONE)
    owners = book(older, {older: EVERYONE}, snum=3, amb=[pending])
    later = (5, mask_of([1, 2, 3]))
    witnesses = book(
        later, {later: later[1], older: EVERYONE & ~later[1]}, snum=5
    )
    held = [(mask_of([0, 1]), owners), (mask_of([2, 3]), witnesses)]
    assert kernel._resolvable(
        kernel._Exchange(held), mask_of([0, 1]), pending
    ) == mask_of([1])
    groups = play("one_pending", held)
    pending_of = {pid: c[2] for pid, c in per_member(groups).items()}
    assert pending_of[0] == (pending,)  # not superseded: still blocked
    assert pending_of[1] == ()
    assert view == mask_of(pending_of)


def test_aggressive_forks_on_the_member_innocent_in_its_own_eyes_only() -> None:
    """``nobody_formed`` needs every member innocent, and a member's own
    innocence is the bit its book leaves implicit."""
    view = mask_of(range(3))
    tied = (4, mask_of(range(4)))
    pending = (4, view)
    suspect_is_0 = book(
        tied, {tied: EVERYONE}, snum=4, amb=[pending],
        ki={pending: mask_of([1, 2])},
    )
    other = book(tied, {tied: EVERYONE}, snum=4)
    held = [(mask_of([0, 1]), suspect_is_0), (mask_of([2]), other)]
    # Cut at the exchange with nobody late: LEARN and DELETE, no attempt.
    groups = play("ykd_aggressive", held, cut_round=INSTALLED + 1)
    pending_of = {pid: c[2] for pid, c in per_member(groups).items()}
    assert pending not in pending_of[0]
    assert pending in pending_of[1]
    # Plain ykd has no such rule and keeps the class whole.
    assert len(play("ykd", held, cut_round=INSTALLED + 1)) == 2


def test_learn_skips_the_own_row_only_for_a_member_that_was_alone() -> None:
    view = mask_of(range(3))
    pending = (4, view)
    below = (2, EVERYONE)
    # Holding an entry numbered below the session proves innocence.
    shared = book(below, {below: EVERYONE}, snum=4, amb=[pending], ki={pending: 0})
    for held in (
        [(mask_of([0, 1]), shared), (mask_of([2]), shared.clone())],
        [(mask_of([0]), shared), (mask_of([1, 2]), shared.clone())],
    ):
        held[1][1].snum = 5  # two books, or _slice would have joined them
        groups = play("ykd", held, cut_round=INSTALLED + 1)
        for group, after in groups:
            innocents = after.ki[pending]
            for pid in iter_bits(group):
                assert innocents | 1 << pid == view
            if group & (group - 1):
                assert innocents == view  # heard it from a classmate
            else:
                assert innocents == view & ~group  # own row skipped
