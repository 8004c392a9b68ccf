"""The batched campaign kernel: a case's runs over packed bitmasks.

The scalar engine advances a run through a graph of Python objects
(endpoints, messages, piggybacks, views, sessions).  This kernel plays
each compiled run change by change over plain ``int`` bitmasks (bit
``p`` set means process ``p`` is a member; Python ints have no lane
width, so any number of processes fits):

* who currently counts as in the primary is one mask per run, cleared
  on every install and set again where a view forms a primary;
* the simple-majority baseline is one ``SUBQUORUM`` test per installed
  view;
* the dynamic voting algorithms keep sparse *books* (sessions as
  ``(number, member-mask)`` pairs, ``lastFormed`` as an inverted
  session→member-mask map, knowledge as bitmask fact sets), one per
  class of processes in the same state, and process each view's
  message exchange as an *episode* — exploiting that between a view's
  installation and its interruption, a member's state is touched by
  nothing but that view's own protocol rounds;
* an episode — the YKD family's staged exchange, and MR1p's, which
  really is a message exchange — runs once per class of members that
  nothing has told apart, not once per member.

Equivalence contract: for every supported configuration the kernel
reproduces the scalar driver's per-run availability outcomes, final
views, round totals and quiescence failures exactly.  Every rule below
cites the scalar code it mirrors; the differential battery in
``tests/test_batch_differential.py`` enforces the contract per
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.sim.batch.bitops import (
    is_subquorum_mask,
    session_gt,
    session_sort_key,
)
from repro.sim.batch.compile import CompiledRun

#: Session / view as a ``(number-or-seq, member-mask)`` pair.
SessionPair = Tuple[int, int]

#: Algorithms the kernel implements (see also ``repro.sim.batch.api``).
KERNEL_ALGORITHMS = (
    "simple_majority",
    "ykd",
    "ykd_unopt",
    "ykd_aggressive",
    "dfls",
    "one_pending",
    "mr1p",
)


@dataclass
class BatchOutcome:
    """What a batch execution produces, in run order."""

    outcomes: List[bool]
    rounds_total: int
    changes_total: int
    #: Per run, the mask of processes that finished in the primary.
    final_primary_masks: List[int]


def execute_batch(
    algorithm: str,
    n_processes: int,
    runs: Sequence[CompiledRun],
    max_quiescence_rounds: int,
) -> BatchOutcome:
    """Play every compiled run to quiescence, one run at a time."""
    universe = (1 << n_processes) - 1
    if algorithm == "simple_majority":
        engine: _Engine = _MajorityEngine(universe)
    elif algorithm == "mr1p":
        engine = _MR1pEngine(universe)
    else:
        engine = _YkdFamilyEngine(algorithm, universe)

    primaries: List[int] = []
    rounds_total = 0
    changes_total = 0
    for run in runs:
        engine.start_run()
        primary = universe
        for change in run.changes:
            engine.on_change(change)
            for mask, _ in change.installs:
                primary = engine.on_install(primary, mask)
        # Finale: settle the surviving episodes, then account rounds
        # the way DriverLoop.execute_run + run_until_quiescent do.
        last_send, formed = engine.finish_run(run)
        settle = last_send - run.t_last + 1 if last_send > run.t_last else 1
        if settle > max_quiescence_rounds:
            # Mirrors DriverLoop.run_until_quiescent, including the
            # max_quiescence_rounds=0 edge (always raises).
            raise SimulationError(
                f"{algorithm} did not quiesce within "
                f"{max_quiescence_rounds} rounds — livelock?"
            )
        rounds_total += run.t_last + settle
        changes_total += len(run.changes)
        primaries.append(primary | formed)
    return BatchOutcome(
        outcomes=[primary != 0 for primary in primaries],
        rounds_total=rounds_total,
        changes_total=changes_total,
        final_primary_masks=primaries,
    )


#: The members of a view grouped by the book they hold.
_Groups = List[Tuple[int, Any]]


class _Engine:
    """Per-algorithm protocol engine behind the per-run loop.

    The message-exchanging algorithms keep the run in play's processes
    partitioned twice over in ``states``: by the view they are in, and
    within it by the *book* (persistent protocol state) they hold.
    Books are shared by reference and never written once stored — an
    episode copies before it writes (:class:`_Cohort`) — so a stored
    book doubles as its holders' install-time snapshot.  A view's
    message exchange is played as one *episode*, lazily, when the
    change that interrupts it (or the end of the run) arrives: between
    a view's installation and its interruption a member's state is
    touched by nothing but that view's own protocol rounds.  The unit
    of protocol work is the class of members holding one book, not the
    member, and a cut round's late members split off every class in
    one place (:func:`_split_late`).
    """

    def __init__(self, universe: int, initial) -> None:
        self.universe = universe
        self.initial = initial
        #: View mask -> (view seq, install round, its groups).
        self.states: Dict[int, Tuple[int, Optional[int], _Groups]] = {}

    def start_run(self) -> None:
        """Every process back in the initial view, holding the initial
        book.  The initial view has no install round: nothing to play."""
        everyone = self.universe
        self.states = {everyone: (0, None, [(everyone, self.initial)])}

    def on_change(self, change) -> None:
        """A change lands: settle the interrupted episodes and hand
        their members' books on to the views it installs."""
        views = self.states
        affected = change.affected_mask
        pool: _Groups = []
        for mask in [m for m in views if m & affected]:
            seq, installed, groups = views.pop(mask)
            if installed is not None:
                groups = self._episode(
                    groups, mask, seq, installed,
                    change.round_index, change.late_mask,
                )[0]
            pool += groups
        # The installs of a change cover exactly the views it affects.
        for mask, seq in change.installs:
            views[mask] = (seq, change.round_index, _slice(pool, mask))

    def on_install(self, primary: int, mask: int) -> int:
        """The primary mask after the view ``mask`` installs."""
        return primary & ~mask  # YKD._on_view, MR1p._on_view

    def finish_run(self, run: CompiledRun) -> Tuple[int, int]:
        """Settle the run's surviving episodes; returns its last send
        round and the members whose final view made it a primary."""
        last_send = formed = 0
        # A final episode is one cut with nobody late, far enough past
        # the livelock bound that the settle check in execute_batch
        # sees the overrun and raises exactly where the scalar engine
        # would.
        horizon = run.t_last + 10_000
        for mask, (seq, installed, groups) in self.states.items():
            if installed is None:
                continue  # never left the initial primary
            _, sent, primary = self._episode(
                groups, mask, seq, installed, horizon, 0
            )
            last_send = max(last_send, sent)
            formed |= primary
        return last_send, formed

    def _episode(
        self,
        held: _Groups,
        mask: int,
        seq: int,
        installed: int,
        cut_round: int,
        late: int,
    ) -> Tuple[_Groups, int, int]:
        """Play the view ``(mask, seq)``, installed at round
        ``installed`` with its members holding ``held``, until it
        quiesces or the change at ``cut_round`` with late mask ``late``
        interrupts it.  Returns what the members hold afterwards, the
        last round anything was sent in, and who ends in the primary."""
        raise NotImplementedError


class _Cohort:
    """A class of a view's members that nothing has told apart so far.

    They entered the view holding one book and have heard the same
    messages since, so one book — and for MR1p one transient state —
    stands for all of them.  A class only ever splits (:meth:`fork`),
    and only where the protocol can tell two of its members apart.

    One copy rule: a stored book is shared until :meth:`own` copies it
    before the first write, and :meth:`fork` gives the twin a copy of
    its own only when the class already owns its book.  MR1p classes
    own theirs from install on (``_MR1pEngine._install``).
    """

    __slots__ = ("mask", "book", "trans", "owned")

    def __init__(self, mask: int, book: Any, trans: Any = None) -> None:
        self.mask = mask
        self.book = book
        self.trans = trans
        self.owned = False

    def own(self) -> Any:
        """The class's book, writable."""
        if not self.owned:
            self.book = self.book.clone()
            self.owned = True
        return self.book

    def fork(self, mask: int) -> "_Cohort":
        """Split ``mask`` off into a class of its own."""
        self.mask &= ~mask
        trans = self.trans
        if trans is not None:
            trans = trans.clone()
        twin = _Cohort(mask, self.book, trans)
        if self.owned:
            twin.own()
        return twin


def _split_late(
    classes: List[_Cohort], late: int
) -> Tuple[List[_Cohort], List[_Cohort]]:
    """A cut round: the late members of every class hear none of it.
    Returns the classes that hear the round and the late ones, which
    keep the state they have; a class that straddles ``late`` forks."""
    heard: List[_Cohort] = []
    deaf: List[_Cohort] = []
    for members in classes:
        cut = members.mask & late
        if cut == members.mask:
            deaf.append(members)
            continue
        if cut:
            deaf.append(members.fork(cut))
        heard.append(members)
    return heard, deaf


def _groups(classes: List[_Cohort]) -> _Groups:
    """What the members of ``classes`` hold, to store."""
    return [(members.mask, members.book) for members in classes]


def _slice(pool: _Groups, mask: int) -> _Groups:
    """The groups of ``pool`` inside the view ``mask``, one per distinct
    book: books that went separate ways and ended up equal again (the
    late members of one cut round, mostly) rejoin here."""
    held = [(group & mask, book) for group, book in pool if group & mask]
    if len(held) > 1:
        joined: Dict[tuple, Tuple[int, Any]] = {}
        for group, book in held:
            key = book.key()
            if key in joined:
                group |= joined[key][0]
            joined[key] = (group, book)
        held = list(joined.values())
    return held


# ----------------------------------------------------------------------
# Simple majority (§3.3): stateless, one quorum test per install.
# ----------------------------------------------------------------------


class _MajorityEngine(_Engine):
    """``SimpleMajority._on_view``: a view is a primary when it holds a
    majority of the universe."""

    def __init__(self, universe: int) -> None:
        self.universe = universe

    def start_run(self) -> None:
        pass  # no messages, so no episodes and no books

    def on_change(self, change) -> None:
        pass

    def on_install(self, primary: int, mask: int) -> int:
        if is_subquorum_mask(mask, self.universe):
            return primary | mask
        return primary & ~mask

    def finish_run(self, run: CompiledRun) -> Tuple[int, int]:
        return 0, 0  # never sends a message; on_install said it all


# ----------------------------------------------------------------------
# The YKD family: ykd, ykd_unopt, ykd_aggressive, dfls, one_pending.
# ----------------------------------------------------------------------


class _YkdBook:
    """The persistent state of the processes holding it, in bitmask form.

    ``lf`` is the inverted ``lastFormed`` table: (session, mask of the
    processes whose ``lastFormed`` entry is that session) pairs, every
    process in exactly one mask.  ``kf``/``ki`` mirror the
    :class:`~repro.core.knowledge.KnowledgeBook` fact sets: sessions
    proven formed, and session → mask of members proven innocent.  A
    holder's own bit is implicit in every ``ki`` mask — it is the one
    thing ``KnowledgeBook.open_session`` records differently for each
    member, and spelling it out would give every member its own book.

    Every field holds a value that is replaced, never changed in
    place, so copies share them all.  ``lp`` is the best session in
    ``lf``: an adoption always raises it (ACCEPT by its own test; a
    formed attempt because it is numbered past ``snum``, and a member
    of a formed session opened it, so its ``snum`` is no lower).
    """

    __slots__ = ("snum", "lp", "lf", "amb", "kf", "ki", "_key")

    def __init__(self, initial: SessionPair) -> None:
        self.snum = 0
        self.lp = initial
        self.lf: FrozenSet[Tuple[SessionPair, int]] = frozenset(
            [(initial, initial[1])]
        )
        self.amb: Tuple[SessionPair, ...] = ()
        self.kf: FrozenSet[SessionPair] = frozenset()
        self.ki: Dict[SessionPair, int] = {}
        self._key: Optional[tuple] = None

    def clone(self) -> "_YkdBook":
        twin = _YkdBook.__new__(_YkdBook)
        twin.snum = self.snum
        twin.lp = self.lp
        twin.lf = self.lf
        twin.amb = self.amb
        twin.kf = self.kf
        twin.ki = self.ki
        twin._key = None
        return twin

    def key(self) -> tuple:
        """Equal keys, equal books (memoized: a stored book is final)."""
        if self._key is None:
            self._key = (
                self.snum,
                self.lp,
                self.amb,
                self.lf,
                self.kf,
                frozenset(self.ki.items()),
            )
        return self._key


class _Exchange:
    """One view's state exchange: the install-time snapshot ``held``
    (stored books are never written, so they are it) and what the
    members pool from it, worked out on first use and shared by every
    class."""

    __slots__ = ("held", "_evidence", "_best_first", "rows", "never_formed")

    def __init__(self, held: List[Tuple[int, _YkdBook]]) -> None:
        self.held = held
        self._evidence: Optional[Set[SessionPair]] = None
        self._best_first: Optional[List[SessionPair]] = None
        #: LEARN's evidence per pending session: (the reporting group
        #: of ``held``, its members inside the session, what their book
        #: proves: 1 formed, -1 not formed).
        self.rows: Dict[SessionPair, List[Tuple[int, int, int]]] = {}
        #: 1-pending's owner-independent never-formed verdicts.
        self.never_formed: Dict[SessionPair, bool] = {}

    def evidence(self) -> Set[SessionPair]:
        """Every last_primary and lastFormed entry any member reports."""
        if self._evidence is None:
            self._evidence = {
                session for _, book in self.held for session, _ in book.lf
            }
        return self._evidence

    def best_first(self) -> List[SessionPair]:
        """The evidence in descending session order: the first entry
        containing a member is the best formed session containing it
        (the max over members of ``best_formed_by_member``)."""
        if self._best_first is None:
            self._best_first = sorted(
                self.evidence(), key=session_sort_key, reverse=True
            )
        return self._best_first


class _YkdFamilyEngine(_Engine):
    """Staged episode processing for the two/three-round exchanges.

    An installed view's protocol life is three fixed stages: the state
    exchange at R+1, the attempt round at R+2 (if and only if the
    deterministic decision allowed it — all-or-none across members),
    and for DFLS the confirm round at R+3.  An interrupting change at
    round T delivers the in-flight stage-T messages to the non-late
    members only (a singleton's self-delivery always lands), and the
    view install then discards everything still queued.

    Every stage runs once per :class:`_Cohort`.  A class forks in
    three kinds of place, each where the scalar rule reads the
    member's own pid:

    * a cut round's late mask, in whichever of the three stages the
      change lands (:func:`_split_late`) — the late members keep the
      book they have;
    * ACCEPT's "best formed session *containing p*" (:meth:`_exchange`);
    * ``ykd_aggressive``'s never-formed verdict when the only member
      not proven innocent is the holder itself
      (:meth:`_delete_settled`).

    Two more rules read the pid without forking anything.  1-pending's
    resolvability asks for a later formation *containing the owner*
    (:func:`_resolvable`): across a whole group that decides whether
    the view may attempt, but within a class ACCEPT has peeled it is
    all or none — a formation numbered past the pending session that
    contains some of the class is the one the class has just adopted,
    or no better than the last primary that contains it all.  And
    LEARN's "skip my own row" (:meth:`_learn`) reads the class's size:
    it drops a row only for a member that held its book alone.
    """

    def __init__(self, variant: str, universe: int) -> None:
        super().__init__(universe, _YkdBook((0, universe)))
        self.optimized = variant in ("ykd", "ykd_aggressive")
        self.aggressive = variant == "ykd_aggressive"
        self.dfls = variant == "dfls"
        self.one_pending = variant == "one_pending"

    def _episode(
        self,
        held: List[Tuple[int, _YkdBook]],
        mask: int,
        seq: int,
        installed: int,
        cut_round: int,
        late: int,
    ) -> Tuple[List[Tuple[int, _YkdBook]], int, int]:
        # A singleton's self-delivery always lands.
        late = late & mask if mask & (mask - 1) else 0
        exchange_round = installed + 1
        attempt_round = installed + 2
        confirm_round = installed + 3

        # The shared, deterministic decision (thesis Figs. 3-2/3-4):
        # every member computes it from the same snapshot, so the
        # attempt round is all-or-none.
        exchange = _Exchange(held)
        max_session = 0
        best = held[0][1].lp
        pending_any = False
        for _, book in held:
            if book.snum > max_session:
                max_session = book.snum
            if book.lp != best and session_gt(book.lp, best):
                best = book.lp
            if book.amb:
                pending_any = True
        allowed = is_subquorum_mask(mask, best[1])
        if allowed and pending_any:
            if self.one_pending:
                allowed = all(
                    _resolvable(exchange, group, pending) == group
                    for group, book in held
                    for pending in book.amb
                )
            else:
                allowed = all(
                    is_subquorum_mask(mask, pending[1])
                    for _, book in held
                    for pending in book.amb
                    if self.dfls or pending[0] > best[0]
                )
        new_session = (max_session + 1, mask)
        # When the attempt is already known to form with every member
        # present — for DFLS, to be confirmed by every member — the
        # session opened in stage 1 is deleted again within this very
        # episode, so recording it is skipped.
        forms = allowed and cut_round > (
            confirm_round if self.dfls else attempt_round
        )

        # Stage 1 — the state exchange at R+1.  Completers run
        # LEARN/RESOLVE/DECIDE; a late member only hears itself and
        # (unless alone) resets on the incoming view with no effects.
        classes = [_Cohort(group, book) for group, book in held]
        done: List[_Cohort] = []
        if cut_round == exchange_round:
            classes, done = _split_late(classes, late)
        heard: List[_Cohort] = []
        for members in classes:
            self._exchange(members, best, exchange, heard)
        classes = heard
        if allowed:
            for members in classes:
                book = members.own()
                book.snum = new_session[0]
                if not forms:
                    book.amb += (new_session,)
                    if self.optimized:
                        # KnowledgeBook.open_session, own bit implicit.
                        book.ki = {**book.ki, new_session: 0}
        if not allowed or cut_round == exchange_round:
            # Attempts were never sent (not allowed, or queued at R+1
            # and wiped by the interrupting install).
            return _groups(done + classes), exchange_round, 0

        # Stage 2 — the attempt round at R+2: receiving attempts from
        # everyone forms the primary (YKD._form_primary).
        if cut_round == attempt_round:
            classes, deaf = _split_late(classes, late)
            done += deaf
        for members in classes:
            book = members.own()
            _adopt(book, new_session)
            if not self.dfls:
                book.amb = ()
                book.kf = frozenset()
                book.ki = {}
        sent, formed = attempt_round, not self.dfls
        if self.dfls and cut_round > attempt_round:
            # Stage 3 — DFLS's confirm round at R+3: only once
            # *everyone* formed (and so broadcast a confirm); hearing
            # all confirms finally deletes the ambiguous sessions.
            if cut_round == confirm_round:
                classes, deaf = _split_late(classes, late)
                done += deaf
            for members in classes:
                members.own().amb = ()
            sent, formed = confirm_round, True
        return _groups(done + classes), sent, mask if formed else 0

    def _exchange(
        self,
        members: _Cohort,
        best: SessionPair,
        exchange: _Exchange,
        classes: List[_Cohort],
    ) -> None:
        """One class's persistent effects of a completed exchange,
        short of opening the new session; what it splits into is
        appended to ``classes``.  ``best`` is the best last primary,
        and so the best of the pooled evidence.
        """
        if self.optimized and members.book.amb:
            self._learn(members, exchange)
        # ACCEPT (YKD._resolve, OnePending._all_states_received): a
        # member adopts the best formed session containing it, if that
        # beats its last primary.  The class peels off session by
        # session, best first, down to its own last primary, which
        # contains it all.
        last_primary = members.book.lp
        if last_primary != best:
            for session in exchange.best_first():
                if session == last_primary:
                    break
                inside = members.mask & session[1]
                if inside:
                    rest = members.mask & ~inside
                    adopters = members.fork(inside) if rest else members
                    self._settle(adopters, session, exchange, classes)
                    if not rest:
                        return
        self._settle(members, last_primary, exchange, classes)

    def _settle(
        self,
        members: _Cohort,
        best: SessionPair,
        exchange: _Exchange,
        classes: List[_Cohort],
    ) -> None:
        """The rest of RESOLVE for a class that agrees on ``best``."""
        book = members.book
        pending = book.amb
        if pending and self.optimized:
            for session in pending:
                if session in book.kf and session_gt(session, best):
                    best = session
        if best != book.lp:
            _adopt(members.own(), best)
        classes.append(members)
        if not pending:
            return
        if self.optimized:
            self._delete_settled(members, classes)
        elif self.one_pending:
            # All or none: the owners a later formation contains are
            # the ones ACCEPT has just peeled off the others.
            resolved = _resolvable(exchange, members.mask, pending[0])
            assert resolved in (0, members.mask)
            if resolved:
                members.own().amb = ()

    def _learn(self, members: _Cohort, exchange: _Exchange) -> None:
        """KnowledgeBook.learn_from_states for every pending session.

        The rows depend only on the episode's fixed snapshot, so they
        are computed once per session and shared by every learner.  A
        learner skips its own row: for a member that held its book
        alone that is the row of the group that is exactly its class
        (held groups are disjoint, so no other group can be), while in
        a larger group every member hears the row from the others (and
        the own bit it adds is implicit anyway).
        """
        book = members.book
        mask = members.mask
        alone = 0 if mask & (mask - 1) else mask
        for session in book.amb:
            known = book.ki.get(session)
            if known is None:
                continue
            rows = exchange.rows.get(session)
            if rows is None:
                smask = session[1]
                rows = exchange.rows[session] = []
                for group, snap in exchange.held:
                    if group & smask:
                        outcome = _outcome(snap, session)
                        if outcome:
                            rows.append((group, group & smask, outcome))
            innocents = known
            formed = False
            for group, reporters, outcome in rows:
                if group == alone:
                    continue
                if outcome > 0:
                    formed = True
                else:
                    innocents |= reporters
            if innocents != known:
                book = members.own()
                book.ki = {**book.ki, session: innocents}
            if formed and session not in book.kf:
                book = members.own()
                book.kf = book.kf | {session}

    def _delete_settled(
        self, members: _Cohort, classes: List[_Cohort]
    ) -> None:
        """YKD._delete_settled over bitmask books."""
        book = members.book
        lp = book.lp
        kept: List[SessionPair] = []
        for session in book.amb:
            superseded = session == lp or session[0] < lp[0]
            never_formed = False
            if self.aggressive and not superseded:
                # KnowledgeBook.nobody_formed: every member provably
                # innocent, and no formation fact recorded.
                innocents = book.ki.get(session)
                if innocents is not None and session not in book.kf:
                    suspects = session[1] & ~innocents
                    if suspects & (suspects - 1):
                        pass  # two or more not proven innocent
                    elif not suspects or suspects == members.mask:
                        never_formed = True
                    elif suspects & members.mask:
                        # The one member not proven innocent is one of
                        # these, and innocent in its own eyes only.
                        loner = members.fork(suspects)
                        classes.append(loner)
                        self._delete_settled(loner, classes)
            if not (superseded or never_formed):
                kept.append(session)
        if len(kept) != len(book.amb):
            # Facts are only ever recorded about pending sessions.
            book = members.own()
            book.amb = tuple(kept)
            book.kf = book.kf.intersection(kept)
            book.ki = {s: book.ki[s] for s in kept if s in book.ki}


def _adopt(book: _YkdBook, session: SessionPair) -> None:
    """``last_primary = session; last_formed[m] = session for m in it``."""
    book.lp = session
    smask = holders = session[1]
    entries = []
    for entry in book.lf:
        other, members = entry
        if other == session:
            holders |= members
        elif not members & smask:
            entries.append(entry)
        elif members & ~smask:
            entries.append((other, members & ~smask))
    entries.append((session, holders))
    book.lf = frozenset(entries)


def _outcome(snap: _YkdBook, session: SessionPair) -> int:
    """knowledge.outcome_for: 1 formed, -1 not formed, 0 unknown."""
    number, smask = session
    outcome = 0
    for other, members in snap.lf:  # the last primary is one of these
        if other == session:
            return 1
        if other[0] < number and members & smask:
            # Some member's lastFormed entry is still numbered below
            # the session — that member provably never formed it.
            outcome = -1
    return outcome


def _resolvable(exchange: _Exchange, owners: int, pending: SessionPair) -> int:
    """OnePending._session_resolvable over the pooled evidence: the
    members of ``owners``, who all hold ``pending``, that can resolve it.

    The evidence is the union of every member's, so "formed anywhere"
    is a membership test, and "some member reports a formation
    containing the owner numbered past ``pending``" — the one test
    that tells owners apart — scans the union once instead of every
    member's book.  The never-formed scan is owner-independent, so its
    verdict is memoized per episode.
    """
    evidence = exchange.evidence()
    if pending in evidence:
        return owners  # formed_anywhere
    number = pending[0]
    superseded = 0  # by a later formation
    for session in evidence:
        if session[0] > number:
            superseded |= session[1]
    if not owners & ~superseded:
        return owners
    never_formed = exchange.never_formed.get(pending)
    if never_formed is None:
        absent = pending[1]
        for group, snap in exchange.held:
            if group & absent:
                if _outcome(snap, pending) >= 0:
                    break
                absent &= ~group
        never_formed = exchange.never_formed[pending] = not absent
    return owners if never_formed else owners & superseded


# ----------------------------------------------------------------------
# MR1p: a message-driven micro engine per episode, stepped once per
# class of members nothing has told apart.
# ----------------------------------------------------------------------


class _MR1pBook:
    """MR1p's persistent ballot state plus the send queue.

    One book is shared by reference by every process in that state: an
    episode's classes own copies from install on
    (:meth:`_MR1pEngine._install`), so a stored book is never written
    again.
    """

    __slots__ = (
        "cur_primary",
        "formed",
        "pending",
        "num",
        "status",
        "in_primary",
        "out",
        "_key",
    )

    def __init__(self, initial: SessionPair) -> None:
        self.cur_primary = initial
        self.formed: Set[SessionPair] = {initial}
        self.pending: Optional[SessionPair] = None
        self.num = 0
        self.status = "none"
        self.in_primary = True
        self.out: List[tuple] = []
        self._key: Optional[tuple] = None

    def clone(self) -> "_MR1pBook":
        twin = _MR1pBook.__new__(_MR1pBook)
        twin.cur_primary = self.cur_primary
        twin.formed = set(self.formed)
        twin.pending = self.pending
        twin.num = self.num
        twin.status = self.status
        twin.in_primary = self.in_primary
        twin.out = list(self.out)
        twin._key = None
        return twin

    def key(self) -> tuple:
        """Equal keys, equal books as the next install sees them
        (memoized: a stored book is final)."""
        if self._key is None:
            self._key = (
                self.cur_primary,
                self.pending,
                self.num,
                self.status,
                frozenset(self.formed),
            )
        return self._key


class _Transient:
    """MR1p per-view collections (MR1p._reset_collections).

    Senders are recorded as masks: ``infos`` maps a reported
    ``(num, status)`` to the mask of members that reported it.
    """

    __slots__ = (
        "try_mask",
        "votes",
        "infos",
        "fail_mask",
        "call_done",
        "formed_handled",
        "responded",
    )

    def __init__(self) -> None:
        self.try_mask = 0
        self.votes: Dict[SessionPair, int] = {}
        self.infos: Dict[Tuple[int, str], int] = {}
        self.fail_mask = 0
        self.call_done = False
        self.formed_handled: Set[SessionPair] = set()
        self.responded: Set[SessionPair] = set()

    def clone(self) -> "_Transient":
        twin = _Transient.__new__(_Transient)
        twin.try_mask = self.try_mask
        twin.votes = dict(self.votes)
        twin.infos = dict(self.infos)
        twin.fail_mask = self.fail_mask
        twin.call_done = self.call_done
        twin.formed_handled = set(self.formed_handled)
        twin.responded = set(self.responded)
        return twin


#: One delivery of a round: (mask of senders, item).
_Event = Tuple[int, tuple]


def _round_events(sent: Dict[_Cohort, List[tuple]]) -> List[_Event]:
    """One round's deliveries in the driver's order, folded.

    The scalar engine delivers bundle by bundle in ascending sender
    order, which depends only on who sent which items, so classes
    sending equal bundles are merged first.  Two rewrites of that
    sequence leave every recipient's end state unchanged:

    * equal items in adjacent deliveries become one delivery from the
      union of their senders — every handler ORs the sender into a
      mask and then tests a monotone threshold whose effect fires at
      most once, so testing once after the union is the same;
    * a ``share`` of a session already shared this round is dropped —
      the recipient's ``responded`` set makes it a no-op.
    """
    merged: Dict[tuple, int] = {}
    for members, items in sent.items():
        key = tuple(items)
        merged[key] = merged.get(key, 0) | members.mask
    if len(merged) == 1:
        ((items, senders),) = merged.items()
        if len(items) == 1:
            return [(senders, items[0])]
    bundles: List[Tuple[int, tuple]] = []
    for items, rest in merged.items():
        while rest:
            low = rest & -rest
            bundles.append((low, items))
            rest ^= low
    bundles.sort()  # sender bits are distinct: never compares items
    events: List[_Event] = []
    shared: Set[SessionPair] = set()
    last: Optional[tuple] = None
    for sender, items in bundles:
        for item in items:
            if item == last:
                events[-1] = (events[-1][0] | sender, item)
                continue
            if item[0] == "share":
                if item[1] in shared:
                    continue
                shared.add(item[1])
            events.append((sender, item))
            last = item
    return events


def _answer_round(sent: Dict[_Cohort, List[tuple]]) -> Optional[dict]:
    """A round in which every bundle is ``info`` — answers to ``share`` —
    summarised per session from class masks, or None for any other
    round: the sender mask of each ``(num, status)`` report and of all
    of them, of ``formed`` answers and of ``aborted`` answers."""
    answers: Dict[SessionPair, list] = {}
    for members, items in sent.items():
        for item in items:
            if item[0] != "info":
                return None
            entry = answers.get(item[1])
            if entry is None:
                entry = answers[item[1]] = [{}, 0, 0, 0]
            kind = item[2]
            if kind == "status":
                reports = entry[0]
                report = (item[3], item[4])
                reports[report] = reports.get(report, 0) | members.mask
                entry[1] |= members.mask
            else:
                entry[2 if kind == "formed" else 3] |= members.mask
    return answers


class _MR1pEngine(_Engine):
    """MR1p's five-round resolution pipeline, simulated message by
    message inside each episode.

    Unlike the YKD family, MR1p's round structure is data-dependent
    (members resolve old sessions at different rounds, ``try-new`` can
    re-fire mid-view), so the engine drains the send queues round by
    round — over bitmask state, one component at a time — until the
    episode quiesces or its interrupting change cuts it short.  The
    unit of work is the :class:`_Cohort`, not the member: a round
    costs (classes x folded deliveries), not (members x senders), and
    an answer round one visit per class (:meth:`_hear_answers`).  A
    class forks where a cut round's late members fall into different
    cells (:meth:`_late_cells`) and where a shared session straddles it
    (:meth:`_handle_share`).
    """

    def __init__(self, universe: int) -> None:
        # Views as (member mask, install seq).
        super().__init__(universe, _MR1pBook((universe, 0)))

    # -- one episode ----------------------------------------------------

    def _episode(
        self,
        held: List[Tuple[int, _MR1pBook]],
        mask: int,
        seq: int,
        installed: int,
        cut_round: int,
        late: int,
    ) -> Tuple[List[Tuple[int, _MR1pBook]], int, int]:
        view = (mask, seq)
        classes = self._install(held, view)
        # A singleton's self-delivery always lands.
        late = late & mask if mask & (mask - 1) else 0

        last_send = installed
        t = installed
        while True:
            t += 1
            if t > cut_round:
                break
            sent = {
                members: members.book.out
                for members in classes
                if members.book.out
            }
            if not sent:
                break  # quiescent
            last_send = t
            # Read the senders before the late members fork off, and
            # empty the queues after: a late twin's book takes its
            # bundle along in ``out``, which is all it will hear.
            answers = _answer_round(sent)
            events = _round_events(sent) if answers is None else []
            cells: List[_Cohort] = []
            if late and t == cut_round:
                classes, deaf = _split_late(classes, late)
                for members in deaf:
                    self._late_cells(members, view, cells)
            for members in classes:
                members.book.out = []
            if answers is not None:
                for members in classes:
                    self._hear_answers(members, answers, view)
            else:
                for members in list(classes):
                    self._deliver(members, events, 0, view, classes)
            classes += cells
        primary = 0
        for members in classes:
            if members.book.in_primary:
                primary |= members.mask
        return _groups(classes), last_send, primary

    def _install(
        self, held: List[Tuple[int, _MR1pBook]], view: SessionPair
    ) -> List[_Cohort]:
        """Install effects (MR1p._on_view), one class per distinct book."""
        classes: List[_Cohort] = []
        for group, stored in held:
            members = _Cohort(group, stored, _Transient())
            book = members.own()
            book.in_primary = False
            book.out = []
            if book.pending is not None:
                book.out.append(
                    ("share", book.pending, book.num, book.status)
                )
            else:
                self._try_new(book, view)
            classes.append(members)
        return classes

    def _late_cells(
        self, members: _Cohort, view: SessionPair, cells: List[_Cohort]
    ) -> None:
        """The interrupting change's round for one late class: a late
        member hears only its own bundle, which its book still holds in
        ``out``.  The class splits into cells, appended to ``cells``
        once they have heard theirs.

        Handlers read the sender's pid only through masks: the view, the
        class's ``try_mask``/``fail_mask``/``votes``/``infos`` (dead
        after ``call_done``), the pending session and its own items'
        sessions.  Late members on the same side of each form a cell,
        and any one of them stands in as the sender: swapping two such
        pids fixes every mask a handler reads, so the book comes out as
        each member's would (the transient state ends with the episode).
        """
        book = members.book
        items, book.out = book.out, []
        deaf = members.mask
        split = [deaf]  # silent and deaf: hears nothing, stays whole
        if items and deaf & (deaf - 1):
            trans = members.trans
            pending = book.pending
            for mask in (
                trans.try_mask,
                trans.fail_mask,
                pending[0] if pending is not None else 0,
                *trans.votes.values(),
                *(() if trans.call_done else trans.infos.values()),
                *(item[1][0] for item in items),
            ):
                if deaf & mask and deaf & ~mask:
                    split = [c & m for c in split for m in (mask, ~mask)]
                    split = [cell for cell in split if cell]
        forked = [members.fork(cell) for cell in split[:-1]]
        for alone in forked + [members]:
            cells.append(alone)
            if items:
                stand_in = alone.mask & -alone.mask
                bundle = [(stand_in, item) for item in items]
                self._deliver(alone, bundle, 0, view, cells)

    def _deliver(
        self,
        members: _Cohort,
        events: List[_Event],
        start: int,
        view: SessionPair,
        classes: List[_Cohort],
    ) -> None:
        """Hand ``events[start:]`` to one class.  A class that splits
        on the way appends its other half to ``classes``; that half
        hears the rest of the round from where the split happened."""
        book = members.book
        trans = members.trans
        for index in range(start, len(events)):
            senders, item = events[index]
            kind = item[0]
            if kind == "try":
                trans.try_mask |= senders
                # _maybe_vote_attempt
                if (
                    book.pending == view
                    and book.status == "sent"
                    and trans.try_mask == view[0]
                ):
                    book.status = "attempt"
                    book.num = 2
                    book.out.append(("vote", view))
            elif kind == "vote":
                voted = item[1]
                votes = trans.votes.get(voted, 0) | senders
                trans.votes[voted] = votes
                if 2 * (votes & voted[0]).bit_count() > voted[0].bit_count():
                    self._session_formed(book, trans, voted, view)
            elif kind == "share":
                outsiders = self._handle_share(members, item[1])
                if outsiders is not None:
                    classes.append(outsiders)
                    self._deliver(outsiders, events, index + 1, view, classes)
            elif kind == "info":
                self._handle_info(book, trans, senders, item, view)
            else:  # "fail"
                self._handle_fail(book, trans, senders, item, view)

    # -- handlers (each mirrors the MR1p method it is named after) ------

    def _try_new(self, book: _MR1pBook, view: SessionPair) -> None:
        if is_subquorum_mask(view[0], book.cur_primary[0]):
            book.pending = view
            book.num = 1
            book.status = "sent"
            book.out.append(("try", view))
        else:
            book.pending = None
            book.num = 0
            book.status = "none"

    def _session_formed(
        self,
        book: _MR1pBook,
        trans: _Transient,
        formed: SessionPair,
        view: SessionPair,
    ) -> None:
        if formed in trans.formed_handled:
            return
        trans.formed_handled.add(formed)
        self._adopt_formed(book, formed)
        if formed == view:
            book.pending = None
            book.num = 0
            book.status = "none"
            book.in_primary = True
        elif book.pending == formed:
            self._try_new(book, view)  # rewrites pending, num and status

    def _adopt_formed(self, book: _MR1pBook, formed: SessionPair) -> None:
        book.formed.add(formed)
        if formed[0] == self.universe:
            book.formed = {formed}
        if formed[1] > book.cur_primary[1]:
            book.cur_primary = formed

    def _handle_share(
        self, members: _Cohort, session: SessionPair
    ) -> Optional[_Cohort]:
        """Answer a shared session.  Only the session's own members
        answer, so a class that straddles it splits here: the
        outsiders are returned as a class of their own."""
        book = members.book
        responded = members.trans.responded
        if session in responded:
            return None
        responded.add(session)
        if book.pending is not None and session == book.pending:
            book.out.append(
                ("info", session, "status", book.num, book.status)
            )
            return None
        insiders = members.mask & session[0]
        if not insiders:
            return None
        outsiders = None
        if insiders != members.mask:
            outsiders = members.fork(members.mask & ~insiders)
        if session in book.formed:
            book.out.append(("info", session, "formed", 0, "none"))
        else:
            book.out.append(("info", session, "aborted", 0, "none"))
        return outsiders

    def _handle_info(
        self,
        book: _MR1pBook,
        trans: _Transient,
        senders: int,
        item: tuple,
        view: SessionPair,
    ) -> None:
        session, kind = item[1], item[2]
        if book.pending is None or session != book.pending:
            return
        if kind == "status":
            report = (item[3], item[4])
            infos = trans.infos
            for other in infos:
                if other != report:
                    infos[other] &= ~senders  # a later report replaces
            infos[report] = infos.get(report, 0) | senders
            self._maybe_call(book, trans)
        else:  # "formed" or "aborted": the session is settled
            if kind == "formed":
                self._adopt_formed(book, session)
            self._try_new(book, view)  # rewrites pending, num and status

    def _hear_answers(
        self,
        members: _Cohort,
        answers: Dict[SessionPair, list],
        view: SessionPair,
    ) -> None:
        """An answer round for one class, as ``_handle_info`` hears it
        sender by sender in ascending pid order: the session ends at the
        lowest ``formed | aborted`` sender, the call fires at the k-th
        fresh reporter (k: the majority less the reporters ``infos``
        holds), and the lower of the two acts first.  Exact because

        * an ``info`` is never about the current view (a ``share`` is
          only sent at install), so after the end the round is ignored;
        * a sender answers a session at most once per view
          (``responded``), so every reporter not in ``infos`` is fresh;
        * after ``call_done`` nothing reads ``infos`` again.
        """
        book = members.book
        entry = answers.get(book.pending)  # type: ignore[arg-type]
        if entry is None:
            return
        session = book.pending
        reports, reported, formed, aborted = entry
        trans = members.trans
        ends = formed | aborted
        end = ends & -ends
        if not trans.call_done:
            smask = session[0]
            infos = trans.infos
            known = 0
            for reporters in infos.values():
                known |= reporters
            known &= smask
            fresh = reported & smask & ~known & (end - 1 if end else -1)
            need = smask.bit_count() // 2 + 1 - known.bit_count()
            if fresh.bit_count() >= need:
                for _ in range(need - 1):
                    fresh &= fresh - 1
                upto = ((fresh & -fresh) << 1) - 1  # through the caller
                for report, reporters in reports.items():
                    if reporters & upto:
                        infos[report] = infos.get(report, 0) | reporters & upto
                self._maybe_call(book, trans)
            elif not end:  # once the session ends, nothing reads infos
                for report, reporters in reports.items():
                    infos[report] = infos.get(report, 0) | reporters
        if end:
            if end & formed:
                self._adopt_formed(book, session)
            self._try_new(book, view)

    def _maybe_call(self, book: _MR1pBook, trans: _Transient) -> None:
        if trans.call_done or book.pending is None:
            return
        session = book.pending
        smask = session[0]
        known = 0
        for reporters in trans.infos.values():
            known |= reporters
        known &= smask
        if 2 * known.bit_count() <= smask.bit_count():
            return
        max_num = max(
            num
            for (num, _), reporters in trans.infos.items()
            if reporters & smask
        )
        statuses_at_max = {
            status
            for (num, status), reporters in trans.infos.items()
            if num == max_num and reporters & smask
        }
        trans.call_done = True
        book.num = max_num + 1
        if "attempt" in statuses_at_max:
            book.status = "attempt"
            book.out.append(("vote", session))
        else:
            book.status = "try_fail"
            book.out.append(("fail", session, book.num))

    def _handle_fail(
        self,
        book: _MR1pBook,
        trans: _Transient,
        senders: int,
        item: tuple,
        view: SessionPair,
    ) -> None:
        session = item[1]
        if book.pending is None or session != book.pending:
            return
        trans.fail_mask |= senders
        smask = session[0]
        if 2 * (trans.fail_mask & smask).bit_count() > smask.bit_count():
            self._try_new(book, view)  # rewrites pending, num and status
