"""Fault schedules: when connectivity changes fire (thesis §2.2, §5.1).

The thesis specifies change frequency "as the mean number of message
rounds which are successfully executed between two subsequent
connectivity changes", realized with a per-round uniform probability p:
that is a geometric gap distribution with ``p = 1 / (1 + mean)`` (the
expected number of change-free rounds between changes is then exactly
``mean``; ``mean = 0`` fires a change every round — the extreme left of
the availability figures).

§5.1 invites other probability functions, so the schedule is an
abstraction: deterministic gaps and bursty gaps are provided alongside
the thesis' geometric schedule.

A schedule draws *gaps* — whole runs of change-free rounds — rather
than a per-round coin.  Drawing gaps up front lets a fault plan be
fixed per run and replayed identically under every algorithm, matching
the thesis' "the same random sequence was used to test each of the
algorithms".
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import List

from repro.errors import ScheduleError


class ChangeSchedule(ABC):
    """Distribution of the number of quiet rounds between changes."""

    @abstractmethod
    def draw_gap(self, rng: random.Random) -> int:
        """Number of change-free rounds before the next change fires."""

    def draw_gaps(self, rng: random.Random, count: int) -> List[int]:
        """Draw a whole run's gaps up front (replayable fault plans)."""
        if count < 0:
            raise ScheduleError("cannot draw a negative number of gaps")
        return [self.draw_gap(rng) for _ in range(count)]

    @abstractmethod
    def mean_gap(self) -> float:
        """Expected quiet rounds between changes (the figures' x-axis)."""


class GeometricSchedule(ChangeSchedule):
    """The thesis' uniform-probability schedule.

    A change fires at each round with probability ``p = 1/(1 + mean)``,
    independently; equivalently, gaps are geometric with that success
    probability and expectation ``mean``.
    """

    def __init__(self, mean_rounds_between_changes: float) -> None:
        if not 0 <= mean_rounds_between_changes < math.inf:
            raise ScheduleError(
                "mean rounds between changes must be finite and >= 0"
            )
        self.mean = float(mean_rounds_between_changes)
        self.probability = 1.0 / (1.0 + self.mean)

    def draw_gap(self, rng: random.Random) -> int:
        gap = 0
        while rng.random() >= self.probability:
            gap += 1
        return gap

    def mean_gap(self) -> float:
        return self.mean

    def __repr__(self) -> str:
        return f"GeometricSchedule(mean={self.mean})"


class DeterministicSchedule(ChangeSchedule):
    """Fixed gaps: a change exactly every ``gap`` quiet rounds (§5.1)."""

    def __init__(self, gap: int) -> None:
        if gap < 0:
            raise ScheduleError("gap must be >= 0")
        self.gap = int(gap)

    def draw_gap(self, rng: random.Random) -> int:
        return self.gap

    def mean_gap(self) -> float:
        return float(self.gap)

    def __repr__(self) -> str:
        return f"DeterministicSchedule(gap={self.gap})"


class BurstSchedule(ChangeSchedule):
    """Clustered changes: tight bursts separated by long lulls (§5.1).

    Within a burst, changes fire on consecutive rounds (gap 0); between
    bursts the network is quiet for ``lull`` rounds.  This sharpens the
    thesis' "closely clustered changes ... then the network stabilizes"
    scenario into its extreme form.
    """

    def __init__(self, burst_size: int, lull: int) -> None:
        if burst_size < 1:
            raise ScheduleError("burst_size must be >= 1")
        if lull < 0:
            raise ScheduleError("lull must be >= 0")
        self.burst_size = int(burst_size)
        self.lull = int(lull)
        self._position = 0

    def draw_gap(self, rng: random.Random) -> int:
        in_burst = self._position % self.burst_size != 0
        self._position += 1
        return 0 if in_burst else self.lull

    def mean_gap(self) -> float:
        return self.lull / self.burst_size

    def __repr__(self) -> str:
        return f"BurstSchedule(burst_size={self.burst_size}, lull={self.lull})"
