"""Canonical state encoding and hashing.

The prefix-sharing explorer (:mod:`repro.sim.explore`) needs to decide,
cheaply and soundly, when two simulation states are *behaviourally
identical* — every future event sequence produces the same messages,
views, primaries and invariant verdicts from both.  This module defines
that judgement:

* :func:`canonical_driver_state` — a nested tuple of primitives built
  from everything behaviour-relevant (topology, view sequence, every
  process's full algorithm state including mid-exchange volatile state,
  and the invariant checker's accumulated chain) and *nothing* else
  (round counters, recorded schedules and the never-consumed fault RNG
  are excluded: they provably do not influence future behaviour).
  Equal encodings imply equal states because the encoder is injective
  on the state space: every container is tagged by kind, every value by
  type, and unknown types fail loudly instead of encoding lossily.
* :func:`state_fingerprint` / :func:`state_digest` — the encoding as a
  hashable memo key / a stable hex digest of it.

States are only ever merged when *identical*.  Merging states that are
equal up to a renaming of process ids would be unsound: dynamic *linear*
voting breaks exact-half quorum ties in favour of the lexically
smallest member (:func:`repro.core.quorum.is_subquorum`, thesis
figs. 3-4), so process ids carry behavioural meaning (see
``docs/model-checking.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import Callable, Dict, Tuple

from repro.core.interface import PrimaryComponentAlgorithm
from repro.core.knowledge import KnowledgeBook, StateItem
from repro.core.session import Session
from repro.core.view import View

#: Algorithm attributes holding ``[(pid, item), ...]`` pair lists (the
#: early-arrival buffers of the YKD family and DFLS).  They encode flat,
#: without the ``"seq"`` tags — usually to the shared empty tuple, which
#: keeps memo keys small and :func:`state_digest` values stable.
_PAIR_LIST_ATTRS = frozenset({"_early_attempts", "_early_confirms"})

#: The instance attribute a frozen value keeps its encoding in.  It lives
#: in ``__dict__`` outside the declared dataclass fields, so the
#: generated ``__eq__``/``__hash__``/``repr`` never see it, and no
#: encoding rule reads it back as state.
_MEMO = "_state_encoding"

_PRIMITIVES = frozenset({type(None), bool, int, str, float})

#: Encodings of the empty containers: constants, built once.  Sets (of
#: any kind) encode empty as a pid set, dicts as a plain map.
_EMPTY_SET = ("pids", ())
_EMPTY_MAP = ("map", ())
_EMPTY_SEQ = ("seq", ())


def _memoised(encode: Callable[[object], tuple]) -> Callable[[object], tuple]:
    """Wrap a rule for a frozen type so each instance is encoded once.

    Sound only for frozen values whose fields are themselves immutable
    (``fork()`` already shares such values between clones for the same
    reason): their encoding cannot change after construction.
    """

    def encode_once(value: object) -> tuple:
        try:
            return value.__dict__[_MEMO]
        except KeyError:
            encoded = encode(value)
            object.__setattr__(value, _MEMO, encoded)
            return encoded

    return encode_once


def _encode_session(value: Session) -> tuple:
    return ("session", value.number, tuple(sorted(value.members)))


def _encode_view(value: View) -> tuple:
    return ("view", value.seq, tuple(sorted(value.members)))


def _encode_state_item(value: StateItem) -> tuple:
    return (
        "stateitem",
        value.session_number,
        tuple([encode_value(s) for s in value.ambiguous]),
        encode_value(value.last_primary),
        tuple(sorted([(p, encode_value(s)) for p, s in value.last_formed])),
    )


def _encode_knowledge(value: KnowledgeBook) -> tuple:
    return (
        "knowledge",
        value._owner,
        tuple(
            sorted(
                [
                    (encode_value(s), tuple(sorted(members)))
                    for s, members in value._not_formed.items()
                ],
                key=repr,
            )
        ),
        tuple(sorted([encode_value(s) for s in value._formed], key=repr)),
    )


def _encode_set(value: frozenset) -> tuple:
    if not value:
        return _EMPTY_SET
    if all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        return ("pids", tuple(sorted(value)))
    return ("set", tuple(sorted([encode_value(v) for v in value], key=repr)))


def _encode_dict(value: dict) -> tuple:
    if not value:
        return _EMPTY_MAP
    if all(isinstance(k, int) and not isinstance(k, bool) for k in value):
        return (
            "pidmap",
            tuple(sorted([(k, encode_value(v)) for k, v in value.items()])),
        )
    return (
        "map",
        tuple(
            sorted(
                [(encode_value(k), encode_value(v)) for k, v in value.items()],
                key=lambda pair: repr(pair[0]),
            )
        ),
    )


def _encode_sequence(value: list) -> tuple:
    if not value:
        return _EMPTY_SEQ
    return ("seq", tuple([encode_value(v) for v in value]))


def _dataclass_rule(cls: type) -> Callable[[object], tuple]:
    names = tuple(f.name for f in fields(cls))
    tag = cls.__name__

    def encode(value: object) -> tuple:
        return (
            "dc",
            tag,
            tuple([(n, encode_value(getattr(value, n))) for n in names]),
        )

    # Slotted instances have nowhere to keep the memo.
    if cls.__dataclass_params__.frozen and not hasattr(cls, "__slots__"):
        return _memoised(encode)
    return encode


def _identity(value: object) -> object:
    return value


#: The rules in the order they are tried on a type met for the first
#: time; the first whose type is a base of it wins.
_BASE_RULES: Tuple[Tuple[type, Callable[[object], object]], ...] = (
    (bool, _identity),
    (int, _identity),
    (str, _identity),
    (float, _identity),
    (Session, _memoised(_encode_session)),
    (View, _memoised(_encode_view)),
    (StateItem, _memoised(_encode_state_item)),
    (KnowledgeBook, _encode_knowledge),
    (set, _encode_set),
    (frozenset, _encode_set),
    (dict, _encode_dict),
    (list, _encode_sequence),
    (tuple, _encode_sequence),
)

#: The rule for every type met so far, by exact type.  A type with no
#: rule is never added, so it raises on every call.
_RULES: Dict[type, Callable[[object], object]] = dict(_BASE_RULES)


def _rule_for(cls: type) -> Callable[[object], object]:
    """The rule for a type not met before."""
    for base, rule in _BASE_RULES:
        if issubclass(cls, base):
            break
    else:
        if not is_dataclass(cls):
            raise TypeError(
                f"cannot canonically encode {cls.__name__!r}; add an "
                "explicit rule to repro.sim.statehash before relying "
                "on state hashing for it"
            )
        rule = _dataclass_rule(cls)
    _RULES[cls] = rule
    return rule


def encode_value(value: object) -> object:
    """One value as a canonical nested tuple of primitives.

    The rules mirror how the package stores state: member sets and
    pid-keyed tables are emitted in sorted order, containers of other
    values in ``repr`` order, sequences in their own order, and every
    node carries a tag naming its kind so that no two distinct values
    share an encoding.  Unknown types raise ``TypeError`` so a future
    state attribute cannot be silently mis-encoded.

    Rules are found by exact type.  Frozen values (sessions, views,
    state items and frozen dataclasses such as the protocol items) are
    encoded once per instance and the result is kept on the instance;
    the empty containers encode to shared constants.
    """
    cls = type(value)
    if cls in _PRIMITIVES:
        return value
    rule = _RULES.get(cls)
    if rule is None:
        rule = _rule_for(cls)
    return rule(value)


#: Per distinct attribute-name tuple of an algorithm's ``__dict__``:
#: the same names, sorted.
_ATTRIBUTE_ORDERS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


def encode_algorithm(algorithm: PrimaryComponentAlgorithm) -> tuple:
    """One process's complete algorithm state, canonically encoded.

    Walks the live ``__dict__`` (attribute-name order), so mid-protocol
    volatile state — half-filled exchanges, queued items, pending
    attempts, ballots — is all captured; nothing behaviour-relevant can
    be missed by construction, because every attribute is encoded or
    the encoder raises.
    """
    state = vars(algorithm)
    names = tuple(state)
    order = _ATTRIBUTE_ORDERS.get(names)
    if order is None:
        order = _ATTRIBUTE_ORDERS[names] = tuple(sorted(names))
    encoded = []
    for name in order:
        value = state[name]
        if name in _PAIR_LIST_ATTRS:
            encoded.append(
                (name, tuple([(p, encode_value(item)) for p, item in value]))
            )
        else:
            encoded.append((name, encode_value(value)))
    return ("algorithm", type(algorithm).__name__, tuple(encoded))


def canonical_driver_state(driver) -> tuple:
    """The whole system as a canonical nested tuple of primitives.

    Covers exactly the behaviour-determining state: topology, view
    sequence counter (future views draw from it), every algorithm's
    full state, and the invariant checker's accumulated formation chain
    (keyed by session number).  Round counters, recorded schedules and
    the fault RNG are excluded: the explorer never consumes the RNG
    (all cuts are explicit) and the counters are bookkeeping only, so
    states differing only there behave identically.
    """
    topology = driver.topology
    chain = tuple(
        sorted(
            (order_key, tuple(sorted(members)))
            for order_key, members in driver.checker._chain.items()
        )
    )
    algorithms = tuple(
        sorted(
            (pid, encode_algorithm(alg))
            for pid, alg in driver.algorithms.items()
        )
    )
    return (
        "driver",
        (
            "topology",
            tuple(sorted(tuple(sorted(c)) for c in topology.components)),
            tuple(sorted(topology.crashed)),
        ),
        driver.view_seq,
        algorithms,
        ("chain", chain),
    )


def state_fingerprint(driver) -> tuple:
    """A hashable memo key: equal iff the states are identical.

    This *is* the canonical encoding (nested tuples hash fast and need
    no serialization); use :func:`state_digest` when a compact stable
    string is wanted instead.
    """
    return canonical_driver_state(driver)


def state_digest(driver) -> str:
    """Stable SHA-256 hex digest of the canonical state encoding."""
    return hashlib.sha256(
        repr(canonical_driver_state(driver)).encode("utf-8")
    ).hexdigest()
