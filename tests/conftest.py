"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import ClassVar

import pytest

from repro.core.majority import SimpleMajority
from repro.core.quorum import is_exact_half, is_majority
from repro.core.registry import temporary_algorithm
from repro.core.view import View, initial_view
from repro.net.changes import MergeChange, PartitionChange
from repro.net.schedule import GeometricSchedule
from repro.sim.driver import DriverLoop
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import derive_rng


class BrokenMajority(SimpleMajority):
    """Majority voting *without* the exact-half tie-break.

    On an even split both halves satisfy "at least half", so both
    declare primaryhood — the textbook split brain the tie-break
    exists to prevent.  The fuzzer/shrinker tests register this
    deliberately broken algorithm to prove the harness catches and
    minimizes real violations.
    """

    name: ClassVar[str] = "broken_majority"

    def _on_view(self, view: View) -> None:
        members = view.members
        self._in_primary = is_majority(members, self.universe) or is_exact_half(
            members, self.universe
        )


@pytest.fixture
def broken_majority():
    """The broken algorithm, registered for the duration of one test."""
    with temporary_algorithm(BrokenMajority) as cls:
        yield cls


class LateClaimer(SimpleMajority):
    """:class:`BrokenMajority` that claims the primary one round late.

    A view only stores the verdict "majority or exact half"; the next
    ``outgoing_message_poll`` acts on it.  The split brain of an even
    split therefore surfaces in whichever round follows the change — a
    quiet gap round, the next change round or the final settling — so
    the explorer meets a violation at each of the places it can raise.
    """

    name: ClassVar[str] = "late_claimer"

    def __init__(self, pid, initial_view: View) -> None:
        super().__init__(pid, initial_view)
        self._claim = False

    def _on_view(self, view: View) -> None:
        members = view.members
        self._in_primary = False
        self._claim = is_majority(members, self.universe) or is_exact_half(
            members, self.universe
        )

    def outgoing_message_poll(self, message):
        if self._claim:
            self._in_primary = True
            self._claim = False
        return super().outgoing_message_poll(message)


@pytest.fixture
def late_claimer():
    """The late-claiming broken algorithm, registered for one test."""
    with temporary_algorithm(LateClaimer) as cls:
        yield cls


@pytest.fixture
def view5() -> View:
    return initial_view(5)


@pytest.fixture
def view8() -> View:
    return initial_view(8)


def make_driver(algorithm: str, n: int = 5, seed: int = 1, **kwargs) -> DriverLoop:
    """A driver with a deterministic fault RNG for scripted scenarios."""
    return DriverLoop(
        algorithm=algorithm, n_processes=n, fault_rng=random.Random(seed), **kwargs
    )


def run_once(
    algorithm: str, n_processes: int, n_changes: int, rate: float, seed: int
) -> DriverLoop:
    """One checked fresh-start run on the thesis' geometric schedule.

    Returns the settled driver.  The fault RNG's label leaves the
    algorithm out, so every algorithm meets the same faults per seed.
    """
    driver = DriverLoop(
        algorithm=algorithm,
        n_processes=n_processes,
        fault_rng=derive_rng(seed, "faults", n_processes, n_changes, rate),
        observers=[InvariantChecker()],
    )
    driver.execute_run(
        GeometricSchedule(rate).draw_gaps(driver.fault_rng, n_changes)
    )
    return driver


def outcome(driver: DriverLoop) -> tuple:
    """What a finished run amounts to, as one comparable value."""
    return (
        driver.round_index,
        driver.changes_injected,
        driver.topology.describe(),
        driver.primary_members(),
    )


def split(driver: DriverLoop, moved) -> None:
    """Partition the component containing the moved processes."""
    moved = frozenset(moved)
    component = next(
        c for c in driver.topology.components if moved <= c
    )
    driver.run_round(PartitionChange(component=component, moved=moved))


def heal(driver: DriverLoop) -> None:
    """Merge components pairwise until the network is whole again."""
    while len(driver.topology.components) > 1:
        first, second = driver.topology.components[:2]
        driver.run_round(MergeChange(first=first, second=second))
        driver.run_until_quiescent()


def settle(driver: DriverLoop) -> None:
    driver.run_until_quiescent()
