"""Batched campaign kernel: a whole case compiled once, played on int bitmasks.

Opt-in backend for :func:`repro.sim.campaign.run_case` (pass
``kernel="batched"``); the scalar :class:`~repro.sim.driver.DriverLoop`
remains the authoritative oracle and ``tests/test_batch_differential.py``
pins exact per-run equivalence.  See ``docs/performance.md`` for the
representation and the supported surface.
"""

from repro.sim.batch.api import (
    BatchCaseResult,
    ensure_batchable,
    run_case_batched,
)
from repro.sim.batch.compile import CompiledChange, CompiledRun, compile_case
from repro.sim.batch.kernel import KERNEL_ALGORITHMS, execute_batch

__all__ = [
    "BatchCaseResult",
    "CompiledChange",
    "CompiledRun",
    "KERNEL_ALGORITHMS",
    "compile_case",
    "ensure_batchable",
    "execute_batch",
    "run_case_batched",
]
