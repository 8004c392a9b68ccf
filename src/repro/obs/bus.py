"""The unified observer protocol and its dispatch bus.

Everything the simulator can report — driver rounds, broadcasts,
connectivity changes, campaign lifecycles, group-communication ticks —
is published through one :class:`Subscriber` protocol.  A subscriber
overrides the hooks it cares about and attaches through the single
``observers=[...]`` parameter of :class:`~repro.sim.driver.DriverLoop`,
:func:`~repro.sim.campaign.run_case` or
:class:`~repro.gcs.stack.GCSCluster`; the statistics collectors, the
trace recorder and the invariant checker are all ordinary subscribers.

Dispatch is pay-for-what-you-use: an :class:`EventBus` snapshots, per
hook, the bound methods of exactly the subscribers whose *class*
overrides that hook, so a publisher's cost for an unwatched event is an
iteration over an empty tuple.  This is what keeps the disabled-observer
overhead of the simulation fast path near zero.

Subscribers are dispatched in attachment order.  Hooks that observe the
same moment (e.g. every ``on_round``) therefore run deterministically,
which the byte-identity guarantees of ``repro.sim.trace`` rely on.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Tuple


class Subscriber:
    """Base observer: override any subset of the hooks below.

    Hook arguments are the live publisher objects (a driver loop, a
    GCS cluster, a case config/result) — subscribers read whatever
    state they need from them and must not mutate it.  The base
    implementations are no-ops, and the :class:`EventBus` never calls
    a hook a subclass did not override.
    """

    # ------------------------------------------------------------------
    # Driver lifecycle (published by repro.sim.driver.DriverLoop).
    # ------------------------------------------------------------------

    def on_run_start(self, driver: Any) -> None:
        """A new run begins (fresh or cascading)."""

    def on_round(self, driver: Any) -> None:
        """A round completed (after deliveries and view installation)."""

    def on_change(self, driver: Any, change: Any) -> None:
        """A connectivity change was injected this round."""

    def on_broadcast(self, driver: Any, sender: int, message: Any) -> None:
        """A process broadcast a message within its component."""

    def on_quiescence(self, driver: Any) -> None:
        """The run drained to quiescence (before ``on_run_end``)."""

    def on_run_end(self, driver: Any) -> None:
        """The run reached its end state."""

    # ------------------------------------------------------------------
    # Campaign lifecycle (published by repro.sim.campaign.run_case).
    # ------------------------------------------------------------------

    def on_case_start(self, config: Any) -> None:
        """A campaign case is about to execute its runs."""

    def on_case_end(self, result: Any) -> None:
        """A campaign case finished; ``result`` is its CaseResult."""

    # ------------------------------------------------------------------
    # Group communication (published by repro.gcs.stack.GCSCluster).
    # ------------------------------------------------------------------

    def on_gcs_tick(self, cluster: Any) -> None:
        """One lock-step tick of a GCS cluster completed."""

    def on_gcs_event(self, cluster: Any, pid: int, event: Any) -> None:
        """A stack raised a view-installation or delivery event."""


#: Every hook name of the protocol, in publication order.
HOOK_NAMES: Tuple[str, ...] = (
    "on_run_start",
    "on_round",
    "on_change",
    "on_broadcast",
    "on_quiescence",
    "on_run_end",
    "on_case_start",
    "on_case_end",
    "on_gcs_tick",
    "on_gcs_event",
)


def overrides_hook(subscriber: Subscriber, hook_name: str) -> bool:
    """Does this subscriber's class override the named hook?

    The check is by function identity against :class:`Subscriber`, so
    an intermediate base that merely inherits the no-op does not count
    as an override — only a class that actually redefines the method
    pays its dispatch cost.
    """
    return getattr(type(subscriber), hook_name) is not getattr(
        Subscriber, hook_name
    )


class EventBus:
    """Dispatch snapshots for a fixed set of subscribers.

    The bus precomputes, for every hook, the tuple of bound methods of
    the subscribers that override it (`hooks("on_round")` etc.), in
    attachment order.  Publishers fetch a tuple once and iterate it in
    their hot loop; an event nobody watches costs one empty-tuple
    iteration.

    Buses are cheap to build (a driver constructs one per run in
    fresh-start campaigns) and intentionally simple: subscribing after
    construction rebuilds the snapshots, and there is no unsubscribe —
    a bus lives exactly as long as its publisher.
    """

    __slots__ = ("_subscribers", "_hooks")

    def __init__(self, subscribers: Iterable[Subscriber] = ()) -> None:
        self._subscribers: List[Subscriber] = []
        self._hooks = {name: () for name in HOOK_NAMES}
        for subscriber in subscribers:
            self.subscribe(subscriber)

    def subscribe(self, subscriber: Subscriber) -> None:
        """Attach one subscriber and refresh the dispatch snapshots."""
        self._subscribers.append(subscriber)
        for name in HOOK_NAMES:
            if overrides_hook(subscriber, name):
                self._hooks[name] = self._hooks[name] + (
                    getattr(subscriber, name),
                )

    @property
    def subscribers(self) -> Tuple[Subscriber, ...]:
        """Every attached subscriber, in attachment order."""
        return tuple(self._subscribers)

    def hooks(self, name: str) -> Tuple[Callable[..., None], ...]:
        """The bound methods overriding one hook, in attachment order."""
        return self._hooks[name]

    def publish(self, name: str, *args: Any) -> None:
        """Call every override of one hook (convenience, not hot path).

        Publishers with a hot loop should fetch :meth:`hooks` once and
        iterate the tuple themselves instead of paying the dict lookup
        per event.
        """
        for hook in self._hooks[name]:
            hook(*args)

    def __len__(self) -> int:
        return len(self._subscribers)
