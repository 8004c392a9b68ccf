"""Tests for the fault schedules."""

import math
import random
import statistics

import pytest

from repro.errors import ScheduleError
from repro.net.schedule import BurstSchedule, DeterministicSchedule, GeometricSchedule


class TestGeometricSchedule:
    def test_mean_zero_fires_every_round(self):
        schedule = GeometricSchedule(0.0)
        rng = random.Random(0)
        assert all(schedule.draw_gap(rng) == 0 for _ in range(100))

    def test_probability_matches_thesis_formula(self):
        # p = 1 / (1 + mean): mean quiet rounds between changes = mean.
        assert GeometricSchedule(0.0).probability == 1.0
        assert GeometricSchedule(4.0).probability == pytest.approx(0.2)

    def test_empirical_mean_matches(self):
        schedule = GeometricSchedule(6.0)
        rng = random.Random(123)
        gaps = [schedule.draw_gap(rng) for _ in range(6000)]
        assert statistics.mean(gaps) == pytest.approx(6.0, rel=0.1)
        assert schedule.mean_gap() == 6.0

    def test_rejects_negative_mean(self):
        # nan and inf too: p = 1/(1 + mean) would be nan (every gap 0)
        # or 0 (draw_gap never returns).
        for mean in (-1.0, math.nan, math.inf):
            with pytest.raises(ScheduleError):
                GeometricSchedule(mean)

    def test_draw_gaps_count(self):
        schedule = GeometricSchedule(2.0)
        assert len(schedule.draw_gaps(random.Random(0), 12)) == 12
        with pytest.raises(ScheduleError):
            schedule.draw_gaps(random.Random(0), -1)


class TestDeterministicSchedule:
    def test_fixed_gap(self):
        schedule = DeterministicSchedule(3)
        rng = random.Random(0)
        assert [schedule.draw_gap(rng) for _ in range(5)] == [3] * 5
        assert schedule.mean_gap() == 3.0

    def test_rejects_negative(self):
        with pytest.raises(ScheduleError):
            DeterministicSchedule(-1)


class TestBurstSchedule:
    def test_burst_pattern(self):
        schedule = BurstSchedule(burst_size=3, lull=9)
        rng = random.Random(0)
        gaps = [schedule.draw_gap(rng) for _ in range(9)]
        assert gaps == [9, 0, 0, 9, 0, 0, 9, 0, 0]

    def test_mean_gap(self):
        assert BurstSchedule(burst_size=3, lull=12).mean_gap() == 4.0

    def test_validation(self):
        with pytest.raises(ScheduleError):
            BurstSchedule(burst_size=0, lull=1)
        with pytest.raises(ScheduleError):
            BurstSchedule(burst_size=1, lull=-1)
