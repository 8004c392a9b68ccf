"""Pure-hash per-delivery link fault draws.

Every stochastic link decision is a *pure function* of
``(seed, round, link)`` computed through :func:`repro.sim.rng.derive_seed`
— no RNG stream is consumed.  Two properties follow:

* the fault environment is identical for every algorithm replaying the
  same plan (the thesis' "same random sequence" discipline), because
  there is no stream whose alignment could drift with per-algorithm
  behaviour differences;
* replay is bit-exact from the plan alone: a
  :class:`~repro.faults.model.LinkFaults` value plus the round index and
  the directed link fully determine whether a delivery is lost, how long
  it is held, and where it sorts on release.

Draw labels are namespaced under ``"faults.link"`` so link draws can
never collide with the driver's fault-plan streams.
"""

from __future__ import annotations

from typing import Tuple

from repro.faults.model import LinkFaults
from repro.sim.rng import derive_seed

_SCALE = 2 ** 64


def _unit(seed: int, *labels) -> float:
    """Uniform [0, 1) draw, pure in (seed, labels)."""
    return derive_seed(seed, "faults.link", *labels) / _SCALE


def _loss_permille(link: LinkFaults, sender: int, recipient: int) -> int:
    for entry_sender, entry_recipient, permille in link.link_loss:
        if entry_sender == sender and entry_recipient == recipient:
            return permille
    return link.loss_permille


def delivery_lost(
    link: LinkFaults, round_index: int, sender: int, recipient: int
) -> bool:
    """Whether this round's ``sender -> recipient`` delivery is lost."""
    permille = _loss_permille(link, sender, recipient)
    if permille <= 0:
        return False
    if permille >= 1000:
        return True
    return _unit(link.seed, "loss", round_index, sender, recipient) * 1000 < permille


def _delay_params(
    link: LinkFaults, sender: int, recipient: int
) -> Tuple[int, int]:
    """Effective ``(delay_permille, delay_max)`` for one directed link."""
    for entry_sender, entry_recipient, permille, delay_max in link.link_delay:
        if entry_sender == sender and entry_recipient == recipient:
            return permille, delay_max
    return link.delay_permille, link.delay_max


def delivery_delay(
    link: LinkFaults, round_index: int, sender: int, recipient: int
) -> int:
    """Rounds this delivery is held back (0 = delivered in-round)."""
    delay_permille, delay_max = _delay_params(link, sender, recipient)
    if delay_permille <= 0 or delay_max <= 0:
        return 0
    if delay_permille < 1000:
        hit = (
            _unit(link.seed, "delay", round_index, sender, recipient) * 1000
            < delay_permille
        )
        if not hit:
            return 0
    if delay_max == 1:
        return 1
    span = _unit(link.seed, "delay.len", round_index, sender, recipient)
    return 1 + int(span * delay_max) % delay_max


def reorder_key(
    link: LinkFaults, round_index: int, recipient: int, sender: int
) -> Tuple[int, int]:
    """Sort key for releasing matured deliveries to ``recipient``.

    Without ``reorder`` the natural (deterministic) order is by sender
    id; with it, a pure-hash shuffle key is prepended so the release
    order is an arbitrary — but replayable — permutation.
    """
    if not link.reorder:
        return (0, sender)
    return (derive_seed(link.seed, "faults.link", "reorder",
                        round_index, recipient, sender) % _SCALE, sender)

