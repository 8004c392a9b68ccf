"""The batched campaign kernel: whole batches of runs in lockstep.

The scalar engine advances one run at a time through a graph of Python
objects (endpoints, messages, piggybacks, views, sessions).  This
kernel advances *all* runs of a case together, one compiled change step
at a time, over packed bitmask state:

* membership bookkeeping — who holds which view, with which sequence
  number, and who currently counts as in the primary — lives in
  ``(runs, n)`` numpy arrays updated by one vectorized scatter per
  change step;
* the simple-majority baseline is evaluated entirely vectorized (one
  ``SUBQUORUM`` lane per installed view across the whole batch);
* the dynamic voting algorithms keep sparse per-process *books*
  (sessions as ``(number, member-mask)`` pairs, ``lastFormed`` as an
  inverted session→member-mask map, knowledge as bitmask fact sets)
  and process each view's message exchange as an *episode* — exploiting
  that between a view's installation and its interruption, a member's
  state is touched by nothing but that view's own protocol rounds;
* MR1p, whose episode really is a message exchange, runs it once per
  class of members that nothing has told apart, sharing one book
  between them.

Equivalence contract: for every supported configuration the kernel
reproduces the scalar driver's per-run availability outcomes, final
views, round totals and quiescence failures exactly.  Every rule below
cites the scalar code it mirrors; the differential battery in
``tests/test_batch_differential.py`` enforces the contract per
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.batch.bitops import (
    bits_list,
    expand_bits,
    is_subquorum_mask,
    is_subquorum_vec,
    iter_bits,
    session_gt,
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
    #: Final ``in_primary`` bits per run, packed into one mask per run.
    final_primary_masks: List[int]


def execute_batch(
    algorithm: str,
    n_processes: int,
    runs: Sequence[CompiledRun],
    max_quiescence_rounds: int,
) -> BatchOutcome:
    """Advance every compiled run to quiescence, in lockstep steps."""
    n = n_processes
    batch = len(runs)
    universe = (1 << n) - 1
    # The three bookkeeping arrays: every install step updates them
    # with one vectorized scatter, whatever the algorithm.
    view_mask = np.full((batch, n), np.uint64(universe))
    view_seq = np.zeros((batch, n), dtype=np.int64)
    in_primary = np.ones((batch, n), dtype=bool)

    if algorithm == "simple_majority":
        engine: _Engine = _MajorityEngine(universe)
    elif algorithm == "mr1p":
        engine = _MR1pEngine(batch, universe)
    else:
        engine = _YkdFamilyEngine(algorithm, batch, universe)

    max_steps = max((len(run.changes) for run in runs), default=0)
    for step in range(max_steps):
        rows: List[int] = []
        masks: List[int] = []
        seqs: List[int] = []
        for b, run in enumerate(runs):
            if step >= len(run.changes):
                continue
            change = run.changes[step]
            engine.on_change(b, change)
            for mask, seq in change.installs:
                rows.append(b)
                masks.append(mask)
                seqs.append(seq)
        if rows:
            row_arr = np.asarray(rows)
            mask_arr = np.asarray(masks, dtype=np.uint64)
            seq_arr = np.asarray(seqs, dtype=np.int64)
            bits = expand_bits(mask_arr, n)
            # One install per run per step and installs of one change
            # are disjoint, so the (run, pid) target pairs are unique
            # and plain fancy assignment is exact.
            k_idx, pid_idx = np.nonzero(bits)
            r_idx = row_arr[k_idx]
            view_mask[r_idx, pid_idx] = mask_arr[k_idx]
            view_seq[r_idx, pid_idx] = seq_arr[k_idx]
            engine.on_installs(r_idx, pid_idx, k_idx, mask_arr, in_primary)

    # Finale: settle the surviving episodes, then account rounds the
    # way DriverLoop.execute_run + run_until_quiescent do.
    rounds_total = 0
    changes_total = 0
    for b, run in enumerate(runs):
        last_send = engine.finish_run(b, run, in_primary)
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

    shifts = np.arange(n, dtype=np.uint64)
    packed = np.bitwise_or.reduce(
        in_primary.astype(np.uint64) << shifts[None, :], axis=1
    )
    outcomes = in_primary.any(axis=1)
    return BatchOutcome(
        outcomes=[bool(v) for v in outcomes],
        rounds_total=rounds_total,
        changes_total=changes_total,
        final_primary_masks=[int(v) for v in packed],
    )


class _Engine:
    """Per-algorithm protocol engine behind the lockstep loop."""

    def on_change(self, b: int, change) -> None:
        """A change lands in run ``b``: settle interrupted episodes."""

    def on_installs(self, r_idx, pid_idx, k_idx, mask_arr, in_primary) -> None:
        """Vectorized install effect on the ``in_primary`` array."""

    def finish_run(self, b: int, run: CompiledRun, in_primary) -> int:
        """Settle run ``b``'s surviving episodes; return its last send round."""
        return 0


# ----------------------------------------------------------------------
# Simple majority (§3.3): stateless, fully vectorized.
# ----------------------------------------------------------------------


class _MajorityEngine(_Engine):
    """``SimpleMajority._on_view`` across the whole batch at once."""

    def __init__(self, universe: int) -> None:
        self._universe = np.uint64(universe)

    def on_installs(self, r_idx, pid_idx, k_idx, mask_arr, in_primary) -> None:
        flags = is_subquorum_vec(mask_arr, self._universe)
        in_primary[r_idx, pid_idx] = flags[k_idx]

    def finish_run(self, b: int, run: CompiledRun, in_primary) -> int:
        return 0  # never sends a message


# ----------------------------------------------------------------------
# The YKD family: ykd, ykd_unopt, ykd_aggressive, dfls, one_pending.
# ----------------------------------------------------------------------


class _YkdBook:
    """One process's persistent state, in bitmask form.

    ``lf`` is the inverted ``lastFormed`` table: session → mask of the
    processes whose ``lastFormed`` entry is that session (every process
    appears in exactly one value mask).  ``kf``/``ki`` mirror the
    :class:`~repro.core.knowledge.KnowledgeBook` fact sets: sessions
    proven formed, and session → mask of members proven innocent.
    """

    __slots__ = ("snum", "lp", "lf", "amb", "kf", "ki")

    def __init__(self, initial: SessionPair, universe: int) -> None:
        self.snum = 0
        self.lp = initial
        self.lf: Dict[SessionPair, int] = {initial: universe}
        self.amb: List[SessionPair] = []
        self.kf: Set[SessionPair] = set()
        self.ki: Dict[SessionPair, int] = {}


#: Install-time snapshot: (session_number, ambiguous tuple,
#: last_primary, lastFormed copy) — the bitmask StateItem.
_Snapshot = Tuple[int, Tuple[SessionPair, ...], SessionPair, Dict[SessionPair, int]]


class _YkdFamilyEngine(_Engine):
    """Staged episode processing for the two/three-round exchanges.

    An installed view's protocol life is three fixed stages: the state
    exchange at R+1, the attempt round at R+2 (if and only if the
    deterministic decision allowed it — all-or-none across members),
    and for DFLS the confirm round at R+3.  An interrupting change at
    round T delivers the in-flight stage-T messages to the non-late
    members only (a singleton's self-delivery always lands), and the
    view install then discards everything still queued.
    """

    def __init__(self, variant: str, batch: int, universe: int) -> None:
        self.optimized = variant in ("ykd", "ykd_aggressive")
        self.aggressive = variant == "ykd_aggressive"
        self.dfls = variant == "dfls"
        self.one_pending = variant == "one_pending"
        self.universe = universe
        initial = (0, universe)
        self.books: List[List[_YkdBook]] = [
            [_YkdBook(initial, universe) for _ in range(universe.bit_count())]
            for _ in range(batch)
        ]
        #: Live episodes per run: component mask -> (view seq, install round).
        self.episodes: List[Dict[int, Tuple[int, int]]] = [
            {} for _ in range(batch)
        ]
        #: Component mask -> sorted member list, shared across runs.
        self._members_cache: Dict[int, List[int]] = {}

    def _session_sort_key(self, session: SessionPair):
        """Sort key realizing the session total order (``session_gt``):
        number first, then the sorted-member-tuple tie-break."""
        members = self._members_cache.get(session[1])
        if members is None:
            members = bits_list(session[1])
            self._members_cache[session[1]] = members
        return (session[0], members)

    # -- lockstep hooks -------------------------------------------------

    def on_change(self, b: int, change) -> None:
        episodes = self.episodes[b]
        affected = change.affected_mask
        for mask in [m for m in episodes if m & affected]:
            seq, installed = episodes.pop(mask)
            self._episode(
                b, mask, seq, installed, change.round_index, change.late_mask
            )
        for mask, seq in change.installs:
            episodes[mask] = (seq, change.round_index)

    def on_installs(self, r_idx, pid_idx, k_idx, mask_arr, in_primary) -> None:
        in_primary[r_idx, pid_idx] = False  # YKD._on_view

    def finish_run(self, b: int, run: CompiledRun, in_primary) -> int:
        last_send = 0
        for mask, (seq, installed) in self.episodes[b].items():
            sent, formed = self._episode(b, mask, seq, installed, None, 0)
            last_send = max(last_send, sent)
            if formed:
                for pid in iter_bits(mask):
                    in_primary[b, pid] = True
        return last_send

    # -- one episode ----------------------------------------------------

    def _episode(
        self,
        b: int,
        mask: int,
        seq: int,
        installed: int,
        cut_round: Optional[int],
        late: int,
    ) -> Tuple[int, bool]:
        """Play out one view's stages; returns (last send round, formed).

        ``cut_round`` is the interrupting change's round (None for a
        final episode); ``late`` the late mask of that change.
        """
        books = self.books[b]
        members = self._members_cache.get(mask)
        if members is None:
            members = bits_list(mask)
            self._members_cache[mask] = members
        size = len(members)
        exchange_round = installed + 1
        attempt_round = installed + 2

        # One pass over the live books: the pooled formed evidence
        # (every last_primary and lastFormed entry any member reports —
        # the max over members of per-member "best formed containing p"
        # equals the max over this union, which turns the O(|C|^2)
        # resolve scan into O(|C| x |evidence|)), the shared decision
        # inputs, and whether anyone carries a pending session.
        evidence: Set[SessionPair] = set()
        max_session = 0
        max_primary = None
        amb_any = False
        for p in members:
            book = books[p]
            if book.snum > max_session:
                max_session = book.snum
            lp = book.lp
            evidence.add(lp)
            evidence.update(book.lf)
            if max_primary is None or session_gt(lp, max_primary):
                max_primary = lp
            if book.amb:
                amb_any = True
        assert max_primary is not None

        # Install-time snapshots (books are untouched between install
        # and this call — the lazy-episode soundness property).  Only
        # pending sessions are judged against other members' snapshots
        # (LEARN, RESOLVE's settled scan, 1-pending's resolvability),
        # so when nobody carries one the copies are skipped entirely —
        # the dominant case at realistic change rates.
        snaps: Optional[Dict[int, _Snapshot]] = None
        if amb_any:
            snaps = {
                p: (
                    books[p].snum,
                    tuple(books[p].amb),
                    books[p].lp,
                    dict(books[p].lf),
                )
                for p in members
            }

        # Evidence sorted best-first: each member's ACCEPT picks the
        # first entry containing it (the max of the per-member subset),
        # so the per-member scan short-circuits after one hit.  Sessions
        # order primarily by number; ties fall back to the member-tuple
        # order, which the cached sorted member lists compare as-is.
        if len(evidence) == 1:
            ev_sorted = list(evidence)
        else:
            ev_sorted = sorted(
                evidence, key=self._session_sort_key, reverse=True
            )
        # Per-episode memos: _outcome rows per pending session (shared
        # by every learner — the snapshots are fixed for the episode)
        # and 1-pending's owner-independent never-formed verdicts.
        outcome_rows: Dict[SessionPair, List[Tuple[int, int]]] = {}
        nf_cache: Dict[SessionPair, bool] = {}

        # The shared, deterministic decision (thesis Figs. 3-2/3-4):
        # every member computes it from the same snapshot, so the
        # attempt round is all-or-none.
        if not amb_any:
            allowed = is_subquorum_mask(mask, max_primary[1])
        elif self.one_pending:
            assert snaps is not None
            allowed = is_subquorum_mask(mask, max_primary[1]) and not any(
                not _resolvable(snaps, evidence, owner, pending, nf_cache)
                for owner, snap in snaps.items()
                for pending in snap[1]
            )
        else:
            assert snaps is not None
            if self.dfls:
                constraints = {
                    s for snap in snaps.values() for s in snap[1]
                }
            else:
                constraints = {
                    s
                    for snap in snaps.values()
                    for s in snap[1]
                    if s[0] > max_primary[0]
                }
            allowed = is_subquorum_mask(mask, max_primary[1]) and all(
                is_subquorum_mask(mask, c[1]) for c in constraints
            )
        new_session = (max_session + 1, mask) if allowed else None

        # Stage 1 — the state exchange at R+1.  Completers run
        # LEARN/RESOLVE/DECIDE; a late member only hears itself and
        # (unless alone) resets on the incoming view with no effects.
        if cut_round is None or cut_round > exchange_round:
            completers = members
        else:  # cut_round == exchange_round
            completers = (
                members
                if size == 1
                else [p for p in members if not (late >> p) & 1]
            )
        if not amb_any:
            # Nobody carried a pending session, so LEARN, the settled
            # scan, and the resolvability checks are all vacuous — a
            # completed exchange reduces to ACCEPT plus (when allowed)
            # opening the new session.  And when the attempt is already
            # known to form with *every* member present — for DFLS,
            # to be confirmed by every member — the opened session is
            # deleted again within this very episode, so recording it
            # (amb append + KnowledgeBook.open_session) is skipped.
            if self.dfls:
                forms = allowed and (
                    cut_round is None or cut_round > installed + 3
                )
            else:
                forms = allowed and (
                    cut_round is None or cut_round > attempt_round
                )
            snum = new_session[0] if allowed else 0
            for p in completers:
                book = books[p]
                best = book.lp
                for session in ev_sorted:
                    if (session[1] >> p) & 1:
                        if session_gt(session, best):
                            best = session
                        break
                if best != book.lp:
                    _adopt(book, best)
                if allowed:
                    book.snum = snum
                    if not forms:
                        book.amb.append(new_session)
                        if self.optimized:
                            book.ki[new_session] = 1 << p
        else:
            for p in completers:
                self._exchange_effects(
                    books[p], p, snaps, evidence, ev_sorted, allowed,
                    new_session, outcome_rows, nf_cache,
                )

        if not allowed or (cut_round is not None and cut_round <= exchange_round):
            # Attempts were never sent (not allowed, or queued at R+1
            # and wiped by the interrupting install).
            return exchange_round, False

        # Stage 2 — the attempt round at R+2: receiving attempts from
        # everyone forms the primary (YKD._form_primary).
        if cut_round is None or cut_round > attempt_round:
            formers = members
        else:  # cut_round == attempt_round
            formers = (
                members
                if size == 1
                else [p for p in members if not (late >> p) & 1]
            )
        for p in formers:
            book = books[p]
            _adopt(book, new_session)
            if not self.dfls:
                book.amb = []
                if self.optimized:
                    book.kf.clear()
                    book.ki.clear()
        if not self.dfls:
            return attempt_round, True

        # Stage 3 — DFLS's confirm round at R+3: only once *everyone*
        # formed (and so broadcast a confirm); hearing all confirms
        # finally deletes the ambiguous sessions.
        confirm_round = installed + 3
        if cut_round is not None and cut_round <= attempt_round:
            return attempt_round, False
        if cut_round is None or cut_round > confirm_round:
            confirmers = members
        else:  # cut_round == confirm_round
            confirmers = (
                members
                if size == 1
                else [p for p in members if not (late >> p) & 1]
            )
        for p in confirmers:
            books[p].amb = []
        return confirm_round, True

    def _exchange_effects(
        self,
        book: _YkdBook,
        pid: int,
        snaps: Optional[Dict[int, _Snapshot]],
        evidence: Set[SessionPair],
        ev_sorted: List[SessionPair],
        allowed: bool,
        new_session: Optional[SessionPair],
        outcome_rows: Dict[SessionPair, List[Tuple[int, int]]],
        nf_cache: Dict[SessionPair, bool],
    ) -> None:
        """One member's persistent effects of a completed exchange.

        The ACCEPT scan (max over members of ``best_formed_by_member``)
        takes the first ``ev_sorted`` entry containing ``pid`` — the
        list is sorted best-first, so that entry is the max of the
        member's evidence subset.  ``snaps`` is None exactly when no
        member carries a pending session, in which case neither LEARN
        nor the resolvability checks can reach it (their loops run over
        the empty ``amb``).
        """
        if self.one_pending:
            # ACCEPT (OnePending._all_states_received).
            best = book.lp
            for session in ev_sorted:
                if (session[1] >> pid) & 1:
                    if session_gt(session, best):
                        best = session
                    break
            if best != book.lp:
                _adopt(book, best)
            if book.amb and _resolvable(
                snaps, evidence, pid, book.amb[0], nf_cache
            ):
                book.amb = []
        else:
            if self.optimized:
                self._learn(book, pid, snaps, outcome_rows)
            # RESOLVE: ACCEPT then (optimized) DELETE (YKD._resolve).
            best = book.lp
            for session in ev_sorted:
                if (session[1] >> pid) & 1:
                    if session_gt(session, best):
                        best = session
                    break
            if self.optimized:
                for session in book.amb:
                    if session in book.kf and session_gt(session, best):
                        best = session
            if best != book.lp:
                _adopt(book, best)
            if self.optimized:
                self._delete_settled(book)
        if allowed:
            assert new_session is not None
            book.snum = new_session[0]
            book.amb.append(new_session)
            if self.optimized:
                book.ki[new_session] = 1 << pid  # KnowledgeBook.open_session

    def _learn(
        self,
        book: _YkdBook,
        pid: int,
        snaps: Optional[Dict[int, _Snapshot]],
        outcome_rows: Dict[SessionPair, List[Tuple[int, int]]],
    ) -> None:
        """KnowledgeBook.learn_from_states for every pending session.

        The (member, outcome) rows depend only on the episode's fixed
        snapshots, so they are computed once per session and shared by
        every learner; each learner skips its own row at use time.
        """
        if not book.amb:
            return
        assert snaps is not None
        for session in book.amb:
            innocents = book.ki.get(session)
            if innocents is None:
                continue
            rows = outcome_rows.get(session)
            if rows is None:
                smask = session[1]
                rows = []
                for member, snap in snaps.items():
                    if not (smask >> member) & 1:
                        continue
                    outcome = _outcome(snap, session)
                    if outcome:
                        rows.append((member, outcome))
                outcome_rows[session] = rows
            for member, outcome in rows:
                if member == pid:
                    continue
                if outcome > 0:
                    book.kf.add(session)
                else:
                    innocents |= 1 << member
            book.ki[session] = innocents

    def _delete_settled(self, book: _YkdBook) -> None:
        """YKD._delete_settled over bitmask books."""
        kept: List[SessionPair] = []
        for session in book.amb:
            superseded = session == book.lp or session[0] < book.lp[0]
            never_formed = False
            if self.aggressive and not superseded:
                # KnowledgeBook.nobody_formed: every member provably
                # innocent, and no formation fact recorded.
                innocents = book.ki.get(session)
                never_formed = (
                    innocents is not None
                    and session not in book.kf
                    and session[1] & ~innocents == 0
                )
            if superseded or never_formed:
                book.ki.pop(session, None)
                book.kf.discard(session)
            else:
                kept.append(session)
        book.amb = kept


def _adopt(book: _YkdBook, session: SessionPair) -> None:
    """``last_primary = session; last_formed[m] = session for m in it``."""
    book.lp = session
    smask = session[1]
    lf = book.lf
    for key in list(lf):
        if key == session:
            continue
        remaining = lf[key] & ~smask
        if remaining:
            lf[key] = remaining
        else:
            del lf[key]
    lf[session] = lf.get(session, 0) | smask


def _outcome(snap: _Snapshot, session: SessionPair) -> int:
    """knowledge.outcome_for: 1 formed, -1 not formed, 0 unknown."""
    if session == snap[2] or session in snap[3]:
        return 1
    number, smask = session
    for other, qmask in snap[3].items():
        if other[0] < number and qmask & smask:
            # Some member's lastFormed entry is still numbered below
            # the session — that member provably never formed it.
            return -1
    return 0


def _resolvable(
    snaps: Dict[int, _Snapshot],
    evidence: Set[SessionPair],
    owner: int,
    pending: SessionPair,
    nf_cache: Dict[SessionPair, bool],
) -> bool:
    """OnePending._session_resolvable over the pooled evidence.

    ``evidence`` is the union of every member's formed evidence, so
    "formed anywhere" is a membership test, and "some member reports a
    formation containing ``owner`` numbered past ``pending``" scans the
    union once instead of every member's book.  The never-formed scan
    is owner-independent, so its verdict is memoized per episode in
    ``nf_cache``.
    """
    if pending in evidence:
        return True  # formed_anywhere
    number = pending[0]
    for session in evidence:
        if (session[1] >> owner) & 1 and session[0] > number:
            return True  # superseded by a later formation
    never_formed = nf_cache.get(pending)
    if never_formed is None:
        never_formed = True
        for member in iter_bits(pending[1]):
            snap = snaps.get(member)
            if snap is None or _outcome(snap, pending) >= 0:
                never_formed = False
                break
        nf_cache[pending] = never_formed
    return never_formed


# ----------------------------------------------------------------------
# MR1p: a message-driven micro engine per episode, stepped once per
# class of members nothing has told apart.
# ----------------------------------------------------------------------


class _MR1pBook:
    """MR1p's persistent ballot state plus the send queue.

    One book is shared by reference by every process in that state: an
    episode works on clones (:meth:`_MR1pEngine._install`), so a stored
    book is never written again.
    """

    __slots__ = (
        "cur_primary",
        "formed",
        "pending",
        "num",
        "status",
        "in_primary",
        "out",
    )

    def __init__(self, initial: SessionPair) -> None:
        self.cur_primary = initial
        self.formed: Set[SessionPair] = {initial}
        self.pending: Optional[SessionPair] = None
        self.num = 0
        self.status = "none"
        self.in_primary = True
        self.out: List[tuple] = []

    def clone(self) -> "_MR1pBook":
        twin = _MR1pBook.__new__(_MR1pBook)
        twin.cur_primary = self.cur_primary
        twin.formed = set(self.formed)
        twin.pending = self.pending
        twin.num = self.num
        twin.status = self.status
        twin.in_primary = self.in_primary
        twin.out = list(self.out)
        return twin


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


class _MemberClass:
    """The members of a view that nothing has told apart so far.

    They entered the view in the same state and have heard the same
    messages since, so one ``(book, trans)`` pair stands for all of
    them.  A class only ever splits (:meth:`fork`), and only where the
    protocol can tell two members apart: on which side of a cut
    round's late mask they are, and whether they are members of a
    shared session (``_MR1pEngine._handle_share``).
    """

    __slots__ = ("mask", "book", "trans")

    def __init__(self, mask: int, book: _MR1pBook, trans: _Transient) -> None:
        self.mask = mask
        self.book = book
        self.trans = trans

    def fork(self, mask: int) -> "_MemberClass":
        """Split ``mask`` off into a class of its own, state copied."""
        self.mask &= ~mask
        return _MemberClass(mask, self.book.clone(), self.trans.clone())


#: One delivery of a round: (mask of senders, item).
_Event = Tuple[int, tuple]


def _round_events(sent: Dict[_MemberClass, List[tuple]]) -> List[_Event]:
    """One round's deliveries in the driver's order, folded.

    The driver delivers bundle by bundle in ascending sender order.
    Two rewrites of that sequence leave every recipient's end state
    unchanged:

    * equal items in adjacent deliveries become one delivery from the
      union of their senders — every handler ORs the sender into a
      mask and then tests a monotone threshold whose effect fires at
      most once, so testing once after the union is the same;
    * a ``share`` of a session already shared this round is dropped —
      the recipient's ``responded`` set makes it a no-op.
    """
    if len(sent) == 1:
        ((members, items),) = sent.items()
        if len(items) == 1:
            return [(members.mask, items[0])]
    bundles: List[Tuple[int, List[tuple]]] = []
    for members, items in sent.items():
        rest = members.mask
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


class _MR1pEngine(_Engine):
    """MR1p's five-round resolution pipeline, simulated message by
    message inside each episode.

    Unlike the YKD family, MR1p's round structure is data-dependent
    (members resolve old sessions at different rounds, ``try-new`` can
    re-fire mid-view), so the engine drains the send queues round by
    round — over bitmask state, one component at a time — until the
    episode quiesces or its interrupting change cuts it short.  The
    unit of work is the :class:`_MemberClass`, not the member: a round
    costs (classes x folded deliveries), not (members x senders).
    """

    def __init__(self, batch: int, universe: int) -> None:
        self.universe = universe
        # Views as (member mask, install seq).  Never written: episodes
        # clone before they touch a book.
        initial = _MR1pBook((universe, 0))
        #: Per run, the processes partitioned by the book they hold.
        self.states: List[List[Tuple[int, _MR1pBook]]] = [
            [(universe, initial)] for _ in range(batch)
        ]
        self.episodes: List[Dict[int, Tuple[int, int]]] = [
            {} for _ in range(batch)
        ]

    # -- lockstep hooks -------------------------------------------------

    def on_change(self, b: int, change) -> None:
        episodes = self.episodes[b]
        affected = change.affected_mask
        for mask in [m for m in episodes if m & affected]:
            seq, installed = episodes.pop(mask)
            self._episode(
                b, mask, seq, installed, change.round_index, change.late_mask, 0
            )
        for mask, seq in change.installs:
            episodes[mask] = (seq, change.round_index)

    def on_installs(self, r_idx, pid_idx, k_idx, mask_arr, in_primary) -> None:
        in_primary[r_idx, pid_idx] = False  # MR1p._on_view

    def finish_run(self, b: int, run: CompiledRun, in_primary) -> int:
        last_send = 0
        # Cap far enough past the livelock bound that the settle check
        # in execute_batch sees the overrun and raises exactly where
        # the scalar engine would.
        cap = run.t_last + 10_000
        for mask, (seq, installed) in self.episodes[b].items():
            sent = self._episode(b, mask, seq, installed, None, 0, cap)
            last_send = max(last_send, sent)
        for mask, book in self.states[b]:
            for pid in iter_bits(mask):
                in_primary[b, pid] = book.in_primary
        return last_send

    # -- one episode ----------------------------------------------------

    def _episode(
        self,
        b: int,
        mask: int,
        seq: int,
        installed: int,
        cut_round: Optional[int],
        late: int,
        cap: int,
    ) -> int:
        view = (mask, seq)
        classes = self._install(b, mask, view)
        # A singleton's self-delivery always lands.
        late = late & mask if mask & (mask - 1) else 0

        last_send = installed
        t = installed
        while True:
            t += 1
            if cut_round is not None and t > cut_round:
                break
            sent: Dict[_MemberClass, List[tuple]] = {}
            for members in classes:
                book = members.book
                if book.out:
                    sent[members] = book.out
                    book.out = []
            if not sent:
                break  # quiescent
            last_send = t
            events = _round_events(sent)
            if late and t == cut_round:
                classes = self._deliver_cut(classes, sent, events, late, view)
            else:
                for members in list(classes):
                    self._deliver(members, events, 0, view, classes)
            if cut_round is None and t > cap:
                break  # livelock: surface through the settle check
        self.states[b] = [
            (group & ~mask, book)
            for group, book in self.states[b]
            if group & ~mask
        ] + [(members.mask, members.book) for members in classes]
        return last_send

    def _install(
        self, b: int, mask: int, view: SessionPair
    ) -> List[_MemberClass]:
        """Install effects (MR1p._on_view), one class per distinct book."""
        held = [
            (group & mask, book)
            for group, book in self.states[b]
            if group & mask
        ]
        if len(held) > 1:
            # Books that went separate ways and ended up equal again
            # (the late members of one cut round, mostly) rejoin here.
            joined: Dict[tuple, Tuple[int, _MR1pBook]] = {}
            for group, book in held:
                key = (
                    book.cur_primary,
                    book.pending,
                    book.num,
                    book.status,
                    frozenset(book.formed),
                )
                if key in joined:
                    group |= joined[key][0]
                joined[key] = (group, book)
            held = list(joined.values())
        classes: List[_MemberClass] = []
        for group, book in held:
            book = book.clone()
            book.in_primary = False
            book.out = []
            if book.pending is not None:
                book.out.append(
                    ("share", book.pending, book.num, book.status)
                )
            else:
                self._try_new(book, view)
            classes.append(_MemberClass(group, book, _Transient()))
        return classes

    def _deliver_cut(
        self,
        classes: List[_MemberClass],
        sent: Dict[_MemberClass, List[tuple]],
        events: List[_Event],
        late: int,
        view: SessionPair,
    ) -> List[_MemberClass]:
        """The interrupting change's round: the late members of a class
        hear only their own bundle, the others the whole round."""
        heard: List[_MemberClass] = []
        for members in classes:
            late_members = members.mask & late
            if late_members:
                items = sent.get(members)
                if items is not None:
                    for pid in iter_bits(late_members):
                        alone = members.fork(1 << pid)
                        heard.append(alone)
                        self._deliver(
                            alone,
                            [(alone.mask, item) for item in items],
                            0,
                            view,
                            heard,
                        )
                elif members.mask != late_members:
                    heard.append(members.fork(late_members))
                else:
                    heard.append(members)  # silent and deaf: untouched
                    continue
                if not members.mask:
                    continue
            heard.append(members)
            self._deliver(members, events, 0, view, heard)
        return heard

    def _deliver(
        self,
        members: _MemberClass,
        events: List[_Event],
        start: int,
        view: SessionPair,
        classes: List[_MemberClass],
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
            book.pending = None
            book.num = 0
            book.status = "none"
            self._try_new(book, view)

    def _adopt_formed(self, book: _MR1pBook, formed: SessionPair) -> None:
        book.formed.add(formed)
        if formed[0] == self.universe:
            book.formed = {formed}
        if formed[1] > book.cur_primary[1]:
            book.cur_primary = formed

    def _handle_share(
        self, members: _MemberClass, session: SessionPair
    ) -> Optional[_MemberClass]:
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
        if kind == "formed":
            self._adopt_formed(book, session)
            book.pending = None
            book.num = 0
            book.status = "none"
            self._try_new(book, view)
        elif kind == "aborted":
            book.pending = None
            book.num = 0
            book.status = "none"
            self._try_new(book, view)
        else:  # "status"
            report = (item[3], item[4])
            infos = trans.infos
            for other in infos:
                if other != report:
                    infos[other] &= ~senders  # a later report replaces
            infos[report] = infos.get(report, 0) | senders
            self._maybe_call(book, trans)

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
            book.pending = None
            book.num = 0
            book.status = "none"
            self._try_new(book, view)
