"""Simulation engine: driver loop, campaigns, invariants, statistics."""

from repro.sim.campaign import (
    MODE_CASCADING,
    MODE_FRESH,
    CaseConfig,
    CaseResult,
    compare_algorithms,
    run_case,
)
from repro.sim.driver import DriverLoop, DriverSnapshot, ProcessEndpoint
from repro.sim.explore import (
    ExplorationResult,
    ExploreStats,
    enumerate_changes,
    enumerate_cuts,
    explore,
    explore_replay,
)
from repro.sim.invariants import InvariantChecker
from repro.sim.parallel import run_cases_parallel
from repro.sim.rng import derive_rng, derive_seed
from repro.sim.statehash import (
    canonical_driver_state,
    state_digest,
    state_fingerprint,
)
from repro.sim.stats import (
    AmbiguousSessionCollector,
    AvailabilityCollector,
    BlockingCollector,
    MessageSizeCollector,
)
from repro.sim.trace import (
    TraceDigester,
    TraceRecorder,
    render_timeline,
    trace_canonical_json,
    trace_digest,
)

__all__ = [
    "AmbiguousSessionCollector",
    "AvailabilityCollector",
    "BlockingCollector",
    "CaseConfig",
    "CaseResult",
    "DriverLoop",
    "DriverSnapshot",
    "ExplorationResult",
    "ExploreStats",
    "InvariantChecker",
    "MODE_CASCADING",
    "MODE_FRESH",
    "MessageSizeCollector",
    "ProcessEndpoint",
    "TraceDigester",
    "TraceRecorder",
    "canonical_driver_state",
    "compare_algorithms",
    "derive_rng",
    "derive_seed",
    "enumerate_changes",
    "enumerate_cuts",
    "explore",
    "explore_replay",
    "render_timeline",
    "state_digest",
    "state_fingerprint",
    "run_case",
    "run_cases_parallel",
    "trace_canonical_json",
    "trace_digest",
]
