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

from repro.sim.batch import kernel, run_case_batched
from repro.sim.batch.bitops import iter_bits, mask_of
from repro.sim.batch.kernel import _MR1pBook, _YkdBook
from repro.sim.campaign import CaseConfig

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


# ----------------------------------------------------------------------
# MR1p: answer rounds on sender masks, and late cells.
#
# The MR1p engine forks a class where a share straddles it and where a
# cut round's late members fall into different cells; an answer round
# (every bundle an ``info``) is heard once per class from a per-session
# summary.  The oracle below goes further than the family's: every
# group exploded into single members *and* every answer round handed
# out sender by sender through ``_deliver``.
# ----------------------------------------------------------------------

SIX = mask_of(range(6))
OLD = (SIX, 3)  # an interrupted session: (member mask, install seq)
VIEW_SEQ = 5  # the episode's view: the same six members, reinstalled


def mr1p_book(pending=None, num=0, status="none", formed=()):
    made = _MR1pBook((SIX, 1))
    made.formed = {(SIX, 1), *formed}
    made.pending, made.num, made.status = pending, num, status
    return made


def mr1p_per_member(groups):
    found = {}
    for group, held in groups:
        for pid in iter_bits(group):
            assert pid not in found, "groups overlap"
            found[pid] = (held.key(), tuple(held.out))
    return found


def play_mr1p(held, cut_round=FINAL, late=0):
    """One MR1p episode class-stepped, and member-stepped with every
    round delivered sender by sender; returns the class-stepped groups
    once both agree on every member."""
    mask = 0
    for group, _ in held:
        mask |= group
    engine = kernel._MR1pEngine(1, SIX)
    args = (mask, VIEW_SEQ, INSTALLED, cut_round, late)
    groups, sent, primary = engine._episode(held, *args)
    singles = [(1 << pid, b) for group, b in held for pid in iter_bits(group)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_answer_round", lambda sent: None)
        expected = engine._episode(singles, *args)
    assert mr1p_per_member(groups) == mr1p_per_member(expected[0])
    assert (sent, primary) == expected[1:]
    return {pid: content for pid, content in mr1p_per_member(groups).items()}


def status_of(after, pid):
    (_, pending, num, status, _), out = after[pid]
    return pending, num, status, out


@pytest.mark.parametrize("attempt_at, called", [(1, "attempt"), (4, "try_fail")])
def test_mr1p_call_fires_at_the_kth_fresh_reporter(attempt_at, called) -> None:
    """Two classes report on the old session, interleaved by pid; the
    fourth reporter (pid 3) makes the majority of six, so an ``attempt``
    from pid 1 is heard before the call and one from pid 4 is not."""
    held = [
        (SIX & ~(1 << attempt_at), mr1p_book(OLD, 1, "sent")),
        (1 << attempt_at, mr1p_book(OLD, 2, "attempt")),
    ]
    after = play_mr1p(held, cut_round=INSTALLED + 2)  # up to the call
    for pid in range(6):
        assert status_of(after, pid)[2] == called
    play_mr1p(held)  # and on to the end of the view


@pytest.mark.parametrize("formed", [True, False])
@pytest.mark.parametrize("answerer, before_call", [(1, True), (5, False)])
def test_mr1p_formed_or_aborted_ends_the_session_where_it_is_heard(
    formed, answerer, before_call
) -> None:
    """One member answers ``formed`` (or ``aborted``) below or above the
    sender whose report makes the majority: below, the session ends
    with no call; above, the call goes out first."""
    reporters = SIX & ~(1 << answerer)
    held = [
        (reporters, mr1p_book(OLD, 1, "sent")),
        (1 << answerer, mr1p_book(formed=[OLD] if formed else [])),
    ]
    after = play_mr1p(held, cut_round=INSTALLED + 2)
    pid = next(iter_bits(reporters))
    pending, _, status, out = status_of(after, pid)
    assert pending == (SIX, VIEW_SEQ) and status == "sent"  # try-new'd
    called = [item for item in out if item[0] == "fail"]
    assert bool(called) != before_call
    assert (OLD in after[pid][0][4]) == formed
    play_mr1p(held)


def test_mr1p_rounds_after_the_call_and_a_share_that_straddles() -> None:
    """A class straddling the shared session forks: its members inside
    answer ``aborted``, the others stay silent.  The calls, votes and
    the new view's attempt then follow the answer round to quiescence."""
    four = (mask_of(range(4)), 3)
    held = [
        (mask_of([0, 1]), mr1p_book(four, 1, "sent")),
        (mask_of([2, 3, 4, 5]), mr1p_book()),
    ]
    after = play_mr1p(held, cut_round=INSTALLED + 2)
    assert status_of(after, 0)[0] == (SIX, VIEW_SEQ)  # aborted: try-new'd
    after = play_mr1p(held)
    assert all(status_of(after, pid)[0] is None for pid in range(6))
    assert len(set(after.values())) == 1


def answer_round_both_ways(trans, bundles):
    """One answer round heard by one class of owners of ``OLD``: from
    the summary, and sender by sender through ``_deliver``."""
    engine = kernel._MR1pEngine(1, SIX)
    view = (SIX, VIEW_SEQ)
    books = []
    for summarised in (True, False):
        members = kernel._MemberClass(
            mask_of([0, 1]), mr1p_book(OLD, 1, "sent"), trans.clone()
        )
        senders = {
            kernel._MemberClass(group, mr1p_book(), kernel._Transient()): items
            for group, items in bundles
        }
        if summarised:
            answers = kernel._answer_round(senders)
            engine._hear_answers(members, answers, view)
        else:
            events = [
                (1 << pid, item)
                for pid in range(6)
                for group, items in bundles
                if group >> pid & 1
                for item in items
            ]
            engine._deliver(members, events, 0, view, [members])
        books.append((members.book.key(), tuple(members.book.out)))
    assert books[0] == books[1]
    return books[0]


def status(num, state):
    return ("info", OLD, "status", num, state)


@pytest.mark.parametrize(
    "known, call_done",
    [(0, False), (mask_of([1, 4]), False), (mask_of([0, 1, 2, 3]), True)],
)
@pytest.mark.parametrize(
    "ending",
    [(), (("info", OLD, "formed", 0, "none"),), (("info", OLD, "aborted", 0, "none"),)],
)
@pytest.mark.parametrize("ends_at", [[2], [5], [1, 5]])
def test_an_answer_round_heard_from_masks_equals_it_sender_by_sender(
    known, call_done, ending, ends_at
) -> None:
    """Reports ``infos`` already holds are not fresh; after the call
    nothing reads ``infos``; the session ends where its first
    ``formed``/``aborted`` is heard.  Other sessions' answers mix in."""
    trans = kernel._Transient()
    trans.infos = {(1, "sent"): known} if known else {}
    trans.call_done = call_done
    other = ("info", (mask_of([4, 5]), 2), "aborted", 0, "none")
    enders = mask_of(ends_at) if ending else 0
    reporters = SIX & ~enders
    low, high = reporters & 0b000111, reporters & 0b111000
    bundles = [
        (low, [status(1, "sent")]),
        (high, [other, status(2, "attempt")]),
    ]
    if ending:
        bundles.append((enders, list(ending)))
    answer_round_both_ways(trans, bundles)


@pytest.mark.parametrize("reported", [[0, 1, 3], [0, 3]])
def test_mr1p_late_cell_splits_on_the_last_reporter_missing(reported) -> None:
    """Of the late members pid 3 has reported and pids 2 and 4 have not.
    With three of the seven owners reported, hearing its own report
    makes the majority for each of 2 and 4 and not for 3; with two, for
    nobody — the cell's stand-in is one member, not the cell.  (Played
    episodes seldom split a late class at all, hence the handcrafted
    state.)"""
    seven = (mask_of(range(7)), 3)
    trans = kernel._Transient()
    trans.infos = {(1, "sent"): mask_of(reported)}
    book = mr1p_book(seven, 1, "sent")
    engine = kernel._MR1pEngine(1, mask_of(range(7)))
    view = (mask_of(range(5)), VIEW_SEQ)
    late = mask_of([2, 3, 4])
    bundle = [("info", seven, "status", 1, "sent")]
    members = kernel._MemberClass(mask_of(range(5)), book, trans)
    hearing, cells = engine._late_cells([members], {members: bundle}, late, view)
    assert [c.mask for c in hearing] == [mask_of([0, 1])]
    assert sorted(c.mask for c in cells) == [mask_of([3]), mask_of([2, 4])]
    for cell in cells:
        for pid in iter_bits(cell.mask):
            alone = kernel._MemberClass(1 << pid, book.clone(), trans.clone())
            own = [(1 << pid, item) for item in bundle]
            engine._deliver(alone, own, 0, view, [alone])
            assert alone.book.key() == cell.book.key()
            assert alone.book.out == cell.book.out
            assert alone.trans.call_done == (pid != 3 and len(reported) == 3)


def test_mr1p_answer_round_invariants_on_the_pinned_case(monkeypatch) -> None:
    """The three facts ``_hear_answers`` rests on, checked where it runs:
    no answer is about the current view, no sender answers a session
    twice, and scrambling ``infos`` once the call is made changes no
    outcome."""
    config = CaseConfig(
        algorithm="mr1p",
        n_processes=64,
        n_changes=12,
        mean_rounds_between_changes=2.0,
        runs=40,
        master_seed=1,
    )
    before = run_case_batched(config)
    summarise = kernel._answer_round
    answer_rounds = 0

    def checking(sent):
        nonlocal answer_rounds
        answers = summarise(sent)
        if answers is not None:
            answer_rounds += 1
            senders = {}
            for members, items in sent.items():
                for item in items:
                    assert not senders.get(item[1], 0) & members.mask
                    senders[item[1]] = senders.get(item[1], 0) | members.mask
        return answers

    hear = kernel._MR1pEngine._hear_answers

    def hearing(self, members, answers, view):
        assert view not in answers
        return hear(self, members, answers, view)

    call = kernel._MR1pEngine._maybe_call

    def scrambling(self, book, trans):
        call(self, book, trans)
        if trans.call_done:
            trans.infos = {(99, "attempt"): self.universe}

    monkeypatch.setattr(kernel, "_answer_round", checking)
    monkeypatch.setattr(kernel._MR1pEngine, "_hear_answers", hearing)
    monkeypatch.setattr(kernel._MR1pEngine, "_maybe_call", scrambling)
    after = run_case_batched(config)
    assert answer_rounds > 100
    assert after.outcomes == before.outcomes
    assert after.rounds_total == before.rounds_total
    assert after.final_primary_masks == before.final_primary_masks
