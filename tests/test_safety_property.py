"""Randomized safety validation — the test-suite version of the thesis'
1,310,000-change trial (§2.2).

Every simulated round already runs the invariant checker (at most one
live primary; view agreement; the YKD-family subquorum chain), so these
tests simply subject every algorithm to broad randomized fault
pressure: many seeds, both run protocols, extreme change rates, uneven
partitions, and the crash/recovery extension.  Any safety violation
raises :class:`InvariantViolation` and fails the test with the
offending evidence in the message.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.registry import algorithm_names
from repro.net.changes import CrashRecoveryChangeGenerator
from repro.sim.campaign import CaseConfig, run_case

from tests.conftest import run_once

ALL_ALGORITHMS = algorithm_names()


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@pytest.mark.parametrize("rate", [0.0, 1.0, 4.0])
def test_fresh_runs_hold_invariants(algorithm, rate):
    case = CaseConfig(
        algorithm=algorithm,
        n_processes=7,
        n_changes=10,
        mean_rounds_between_changes=rate,
        runs=25,
        master_seed=17,
    )
    run_case(case)  # raises InvariantViolation on any safety breach


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_cascading_runs_hold_invariants(algorithm):
    case = CaseConfig(
        algorithm=algorithm,
        n_processes=7,
        n_changes=8,
        mean_rounds_between_changes=0.5,
        runs=25,
        mode="cascading",
        master_seed=23,
    )
    run_case(case)


@pytest.mark.parametrize("algorithm", ["ykd", "one_pending", "mr1p", "dfls"])
def test_crash_recovery_runs_hold_invariants(algorithm):
    case = CaseConfig(
        algorithm=algorithm,
        n_processes=7,
        n_changes=10,
        mean_rounds_between_changes=1.0,
        runs=20,
        master_seed=29,
        change_generator=CrashRecoveryChangeGenerator(crash_weight=0.3),
    )
    run_case(case)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    algorithm=st.sampled_from(ALL_ALGORITHMS),
    n_processes=st.integers(min_value=2, max_value=12),
    n_changes=st.integers(min_value=1, max_value=16),
    rate=st.floats(min_value=0.0, max_value=6.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_arbitrary_configurations_hold_invariants(
    algorithm, n_processes, n_changes, rate, seed
):
    """Hypothesis sweeps the whole configuration space for violations."""
    driver = run_once(algorithm, n_processes, n_changes, rate, seed)
    assert driver.changes_injected == n_changes
