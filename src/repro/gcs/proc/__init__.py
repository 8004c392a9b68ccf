"""A real multi-process GCS cluster over UDP.

Where :class:`repro.gcs.stack.GCSCluster` usually hosts every stack
inside one interpreter, this package spawns **one OS process per group
member**: each child runs a ``GCSCluster`` that hosts its own pid only,
plus one replicated-store replica (the endpoint a
:class:`~repro.service.cluster.StoreCluster` process runs), exchanges length-prefixed canonical-JSON
datagrams over real UDP sockets (:mod:`repro.gcs.transport.asyncnet`),
and elects primaries across genuine packet loss.  A controller in the
parent process sends each stage of a recorded partition schedule to
every child as one topology and harvests view/primary logs over
control pipes.

The supported surface:

* :class:`~repro.gcs.proc.controller.ProcCluster` — spawn, drive,
  harvest, stop.
* :class:`~repro.gcs.proc.schedule.RecordedSchedule` and the stock
  :data:`~repro.gcs.proc.schedule.STOCK_SCHEDULES` — replayable
  partition scripts.
* :func:`~repro.gcs.proc.schedule.simulate_reference` — the same
  schedule on the deterministic in-memory substrate.
* :func:`~repro.gcs.proc.controller.run_differential` — the
  convergence battery: the real cluster must reach the same stable
  views and primaries as the simulated reference, stage by stage.
"""

from repro.gcs.proc.controller import (
    DifferentialResult,
    ProcCluster,
    run_differential,
)
from repro.gcs.proc.schedule import (
    STOCK_SCHEDULES,
    RecordedSchedule,
    StageOutcome,
    generated_schedule,
    simulate_reference,
)

__all__ = [
    "ProcCluster",
    "DifferentialResult",
    "run_differential",
    "RecordedSchedule",
    "StageOutcome",
    "STOCK_SCHEDULES",
    "generated_schedule",
    "simulate_reference",
]
