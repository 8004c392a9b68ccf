"""repro: availability study of dynamic voting algorithms.

A from-scratch reproduction of Kyle W. Ingols' MIT MEng thesis
"Availability Study of Dynamic Voting Algorithms" (June 2000; basis of
the ICDCS 2001 paper with Idit Keidar): the primary-component algorithm
framework of Ch. 2, the six algorithms of Ch. 3 (YKD, unoptimized YKD,
DFLS, 1-pending, MR1p and simple majority), the in-memory driver loop
and fault injector of §2.2, and the full experiment harness behind the
figures of Ch. 4.

Quickstart::

    from repro import CaseConfig, run_case

    case = CaseConfig(algorithm="ykd", n_processes=16, n_changes=6,
                      mean_rounds_between_changes=4.0, runs=100)
    print(run_case(case).availability_percent)
"""

from repro.core import (
    DFLS,
    MR1p,
    Message,
    OnePending,
    PrimaryComponentAlgorithm,
    Session,
    SimpleMajority,
    UnoptimizedYKD,
    View,
    YKD,
    algorithm_names,
    create_algorithm,
    display_name,
    initial_view,
    is_majority,
    is_subquorum,
)
from repro.errors import (
    InvariantViolation,
    ProtocolError,
    ReproError,
    ScheduleError,
    SimulationError,
    TopologyError,
)
from repro.net import (
    BurstSchedule,
    CrashRecoveryChangeGenerator,
    DeterministicSchedule,
    GeometricSchedule,
    Topology,
    UniformChangeGenerator,
)
from repro.obs import (
    CampaignMetrics,
    EventBus,
    MetricsRegistry,
    PhaseProfiler,
    Subscriber,
)
from repro.sim import (
    CaseConfig,
    CaseResult,
    DriverLoop,
    compare_algorithms,
    run_case,
)

__version__ = "1.0.0"

__all__ = [
    "BurstSchedule",
    "CampaignMetrics",
    "CaseConfig",
    "CaseResult",
    "CrashRecoveryChangeGenerator",
    "DFLS",
    "DeterministicSchedule",
    "DriverLoop",
    "EventBus",
    "GeometricSchedule",
    "InvariantViolation",
    "MR1p",
    "Message",
    "MetricsRegistry",
    "OnePending",
    "PhaseProfiler",
    "PrimaryComponentAlgorithm",
    "ProtocolError",
    "ReproError",
    "ScheduleError",
    "Session",
    "SimpleMajority",
    "SimulationError",
    "Subscriber",
    "Topology",
    "TopologyError",
    "UniformChangeGenerator",
    "UnoptimizedYKD",
    "View",
    "YKD",
    "algorithm_names",
    "compare_algorithms",
    "create_algorithm",
    "display_name",
    "initial_view",
    "is_majority",
    "is_subquorum",
    "run_case",
    "__version__",
]
