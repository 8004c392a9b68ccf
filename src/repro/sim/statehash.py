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

from repro.core.interface import PrimaryComponentAlgorithm
from repro.core.knowledge import KnowledgeBook, StateItem
from repro.core.session import Session
from repro.core.view import View

#: Algorithm attributes holding ``[(pid, item), ...]`` pair lists (the
#: early-arrival buffers of the YKD family and DFLS).  They encode flat,
#: without the ``"seq"`` tags — usually to the shared empty tuple, which
#: keeps memo keys small and :func:`state_digest` values stable.
_PAIR_LIST_ATTRS = frozenset({"_early_attempts", "_early_confirms"})


def encode_value(value: object) -> object:
    """One value as a canonical nested tuple of primitives.

    The rules mirror how the package stores state: member sets and
    pid-keyed tables are emitted in sorted order, containers of other
    values in ``repr`` order, sequences in their own order, and every
    node carries a tag naming its kind so that no two distinct values
    share an encoding.  Unknown types raise ``TypeError`` so a future
    state attribute cannot be silently mis-encoded.
    """
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Session):
        return ("session", value.number, tuple(sorted(value.members)))
    if isinstance(value, View):
        return ("view", value.seq, tuple(sorted(value.members)))
    if isinstance(value, StateItem):
        return (
            "stateitem",
            value.session_number,
            tuple(encode_value(s) for s in value.ambiguous),
            encode_value(value.last_primary),
            tuple(sorted((p, encode_value(s)) for p, s in value.last_formed)),
        )
    if isinstance(value, KnowledgeBook):
        return (
            "knowledge",
            value._owner,
            tuple(
                sorted(
                    (
                        (encode_value(s), tuple(sorted(members)))
                        for s, members in value._not_formed.items()
                    ),
                    key=repr,
                )
            ),
            tuple(sorted((encode_value(s) for s in value._formed), key=repr)),
        )
    if isinstance(value, (set, frozenset)):
        if all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            return ("pids", tuple(sorted(value)))
        return ("set", tuple(sorted((encode_value(v) for v in value), key=repr)))
    if isinstance(value, dict):
        if value and all(
            isinstance(k, int) and not isinstance(k, bool) for k in value
        ):
            return (
                "pidmap",
                tuple(sorted((k, encode_value(v)) for k, v in value.items())),
            )
        return (
            "map",
            tuple(
                sorted(
                    (
                        (encode_value(k), encode_value(v))
                        for k, v in value.items()
                    ),
                    key=lambda pair: repr(pair[0]),
                )
            ),
        )
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(encode_value(v) for v in value))
    if is_dataclass(value) and not isinstance(value, type):
        return (
            "dc",
            type(value).__name__,
            tuple(
                (f.name, encode_value(getattr(value, f.name)))
                for f in fields(value)
            ),
        )
    raise TypeError(
        f"cannot canonically encode {type(value).__name__!r}; add an "
        "explicit rule to repro.sim.statehash before relying on state "
        "hashing for it"
    )


def encode_algorithm(algorithm: PrimaryComponentAlgorithm) -> tuple:
    """One process's complete algorithm state, canonically encoded.

    Walks the live ``__dict__`` (attribute-name order), so mid-protocol
    volatile state — half-filled exchanges, queued items, pending
    attempts, ballots — is all captured; nothing behaviour-relevant can
    be missed by construction, because every attribute is encoded or
    the encoder raises.
    """
    encoded = []
    for name, value in sorted(vars(algorithm).items()):
        if name in _PAIR_LIST_ATTRS:
            encoded.append(
                (name, tuple((p, encode_value(item)) for p, item in value))
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
