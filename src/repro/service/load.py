"""The open-loop heavy-traffic load generator.

Workloads here are *replayed*, not sampled: every draw is a pure hash
of ``(seed, client, tick)`` through :func:`~repro.sim.rng.derive_seed`,
so no RNG stream is ever consumed.  The same profile produces the same
op stream bit-for-bit, and each client's ops depend on that client
alone: the merged stream is the per-client streams re-sorted by
``(tick, client)``.

The traffic shape follows the usual heavy-tail trio:

* **Zipf key popularity** — key ranks weighted ``(rank+1)^-s`` with
  ``s`` given in milli-units (``zipf_s_milli=1100`` → s=1.1), drawn by
  inverting the cumulative weights;
* **arrival bursts** — recurring windows during which every client's
  arrival probability is boosted (hashed inter-burst gaps with mean
  ``burst_gap_mean`` ticks);
* **reconnect storms** — instants at which every client re-pins to a
  freshly hashed replica, modelling a load balancer flushing its
  connection table.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.canonical import canonical_digest
from repro.sim.rng import derive_seed
from repro.types import ProcessId

#: Namespace label separating these draws from every other consumer.
NS = "service.load"

_SCALE = float(2**64)


def _draws(seed: int, label: str, client: int) -> Callable[[int], float]:
    """One uniform draw in [0, 1) per tick, ``derive_seed(seed, NS,
    label, client, tick) / 2**64``, hashing the shared prefix once.

    SHA-256 is a streaming hash, so copying the state after
    ``seed␟service.load␟label␟client␟`` and feeding it the tick yields
    the digest :func:`~repro.sim.rng.derive_seed` computes from scratch.
    """
    prefix = hashlib.sha256(
        f"{seed}\x1f{NS}\x1f{label}\x1f{client}\x1f".encode("utf-8")
    )

    def unit(tick: int) -> float:
        hasher = prefix.copy()
        hasher.update(str(tick).encode())
        return int.from_bytes(hasher.digest()[:8], "big") / _SCALE

    return unit


@dataclass(frozen=True)
class LoadProfile:
    """A replayable workload, all-integer so it canonicalizes exactly."""

    clients: int = 8
    ticks: int = 120
    n_keys: int = 64
    #: Zipf exponent in milli-units (1100 → s = 1.1).
    zipf_s_milli: int = 1100
    #: Per-client per-tick arrival probability, in permille.
    arrival_permille: int = 350
    #: Fraction of arrivals that are writes, in permille.
    put_permille: int = 500
    #: Mean ticks between burst starts (0 disables bursts).
    burst_gap_mean: int = 40
    burst_len: int = 5
    #: Added to ``arrival_permille`` inside a burst (capped at 1000).
    burst_boost_permille: int = 450
    #: Mean ticks between reconnect storms (0 disables storms).
    storm_gap_mean: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("clients", "ticks", "n_keys"):
            if getattr(self, name) < 1:
                raise ReproError(f"{name} must be >= 1")
        for name in ("arrival_permille", "put_permille"):
            value = getattr(self, name)
            if not 0 <= value <= 1000:
                raise ReproError(f"{name} must be within 0..1000")
        for name in (
            "zipf_s_milli",
            "burst_gap_mean",
            "burst_len",
            "burst_boost_permille",
            "storm_gap_mean",
        ):
            if getattr(self, name) < 0:
                raise ReproError(f"{name} must be >= 0")

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready form, echoed verbatim into reports."""
        return asdict(self)


@dataclass(frozen=True)
class ClientOp:
    """One client request at one tick."""

    tick: int
    client: int
    kind: str  # "get" or "put"
    key: str
    value: Optional[str]

    def to_dict(self) -> Dict[str, object]:
        """The canonical JSON-ready form (digest and JSONL framing)."""
        return {
            "tick": self.tick,
            "client": self.client,
            "kind": self.kind,
            "key": self.key,
            "value": self.value,
        }


def _event_ticks(profile: LoadProfile, label: str, gap_mean: int) -> List[int]:
    """Start ticks of a recurring event with hashed inter-arrival gaps.

    Gaps are uniform over ``1..2*gap_mean-1`` (mean ``gap_mean``), each
    drawn by event index so the whole series is a pure function of the
    profile.
    """
    if gap_mean <= 0:
        return []
    ticks: List[int] = []
    tick = -1
    for index in range(profile.ticks):
        gap = 1 + derive_seed(profile.seed, NS, label, index) % (
            2 * gap_mean - 1
        )
        tick += gap
        if tick >= profile.ticks:
            break
        ticks.append(tick)
    return ticks


def burst_windows(profile: LoadProfile) -> frozenset:
    """Every tick that falls inside an arrival burst."""
    window = set()
    for start in _event_ticks(profile, "burst", profile.burst_gap_mean):
        window.update(
            range(start, min(start + profile.burst_len, profile.ticks))
        )
    return frozenset(window)


def storm_ticks(profile: LoadProfile) -> Tuple[int, ...]:
    """The reconnect storms: at each, every client re-pins its replica."""
    return tuple(_event_ticks(profile, "storm", profile.storm_gap_mean))


def zipf_cdf(profile: LoadProfile) -> List[float]:
    """Cumulative Zipf weights over the key ranks (last entry 1.0)."""
    s = profile.zipf_s_milli / 1000.0
    weights = [(rank + 1) ** (-s) for rank in range(profile.n_keys)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    return cdf


def _rank_key(cdf: List[float], u: float) -> str:
    """The key whose Zipf rank the uniform draw ``u`` inverts to."""
    return f"k{min(bisect_left(cdf, u), len(cdf) - 1)}"


def key_for(profile: LoadProfile, client: int, tick: int) -> str:
    """The Zipf-popular key one client touches at one tick."""
    u = _draws(profile.seed, "key", client)(tick)
    return _rank_key(zipf_cdf(profile), u)


def _client_ops(
    profile: LoadProfile, client: int, bursts: frozenset, cdf: List[float]
) -> Iterator[ClientOp]:
    """:func:`client_ops` with the per-profile tables passed in."""
    arrive = _draws(profile.seed, "arrive", client)
    key = _draws(profile.seed, "key", client)
    kind = _draws(profile.seed, "kind", client)
    for tick in range(profile.ticks):
        rate = profile.arrival_permille
        if tick in bursts:
            rate = min(1000, rate + profile.burst_boost_permille)
        if arrive(tick) * 1000.0 >= rate:
            continue
        name = _rank_key(cdf, key(tick))
        if kind(tick) * 1000.0 < profile.put_permille:
            yield ClientOp(tick, client, "put", name, f"v{tick}.{client}")
        else:
            yield ClientOp(tick, client, "get", name, None)


def client_ops(profile: LoadProfile, client: int) -> Iterator[ClientOp]:
    """One client's op stream — pure and independent of other clients."""
    return _client_ops(
        profile, client, burst_windows(profile), zipf_cdf(profile)
    )


def workload(profile: LoadProfile) -> List[ClientOp]:
    """Every client's ops merged into one stream, by ``(tick, client)``."""
    bursts = burst_windows(profile)
    cdf = zipf_cdf(profile)
    ops: List[ClientOp] = []
    for client in range(profile.clients):
        ops.extend(_client_ops(profile, client, bursts, cdf))
    ops.sort(key=lambda op: (op.tick, op.client))
    return ops


def replica_for(
    profile: LoadProfile, client: int, n_processes: int, tick: int
) -> ProcessId:
    """The replica a client is pinned to at ``tick``.

    The pin is re-drawn at every reconnect storm; between storms it is
    sticky, like a session-affine load balancer.
    """
    epoch = sum(1 for storm in storm_ticks(profile) if storm <= tick)
    return derive_seed(profile.seed, NS, "pin", client, epoch) % n_processes


def workload_digest(profile: LoadProfile) -> str:
    """SHA-256 over the canonical op stream — the workload's identity."""
    return canonical_digest(op.to_dict() for op in workload(profile))
