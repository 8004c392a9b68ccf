"""Public entry point of the batched campaign kernel.

``run_case_batched`` is the drop-in counterpart of
:func:`repro.sim.campaign.run_case` for the configurations the kernel's
equivalence proof covers.  Validation is loud by design: anything the
kernel cannot reproduce *exactly* raises
:class:`~repro.errors.UnsupportedBatchConfig` up front instead of
silently diverging; ``run_case(kernel="batched")`` catches that error
and falls back to the scalar engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import SimulationError, UnsupportedBatchConfig
from repro.sim.batch.compile import SUPPORTED_GENERATORS, compile_case
from repro.sim.batch.kernel import KERNEL_ALGORITHMS, execute_batch
from repro.sim.campaign import MODE_FRESH, CaseConfig, CaseResult


@dataclass
class BatchCaseResult(CaseResult):
    """A :class:`CaseResult` plus the kernel's final-state fingerprints.

    ``final_components`` holds, per run, the (member mask, view seq)
    pairs of the components standing at the end of the run;
    ``final_primary_masks`` the per-run mask of processes that finished
    in the primary.  The differential suite compares both against the
    scalar engine's final object state.
    """

    final_components: List[Tuple[Tuple[int, int], ...]] = field(
        default_factory=list
    )
    final_primary_masks: List[int] = field(default_factory=list)


def ensure_batchable(
    config: CaseConfig, observers: Sequence = ()
) -> None:
    """Raise ``UnsupportedBatchConfig`` unless the kernel covers ``config``.

    Raises ``SimulationError`` (not ``UnsupportedBatchConfig``) for
    configurations the *scalar* engine rejects too — those must not
    fall back, they must fail the same way everywhere.
    """
    # Scalar-parity rejections first (DriverLoop.__init__).
    if config.n_processes < 2:
        raise SimulationError(
            "the study needs at least two processes (a single process "
            "admits no connectivity changes)"
        )
    if not 0.0 <= config.cut_probability <= 1.0:
        raise SimulationError("cut_probability must be in [0, 1]")

    if observers:
        raise UnsupportedBatchConfig(
            "the batched kernel runs no object engine, so driver-level "
            "observers (tracing, metrics, fault oracles) cannot attach; "
            "use kernel='scalar' for observed runs"
        )
    if config.mode != MODE_FRESH:
        raise UnsupportedBatchConfig(
            "cascading cases thread algorithm state across runs; only "
            "fresh-start cases are batchable"
        )
    if config.algorithm not in KERNEL_ALGORITHMS:
        raise UnsupportedBatchConfig(
            f"algorithm {config.algorithm!r} has no batched "
            f"implementation (supported: {', '.join(KERNEL_ALGORITHMS)})"
        )
    for flag in (
        "collect_ambiguous",
        "collect_message_sizes",
        "collect_metrics",
    ):
        if getattr(config, flag):
            raise UnsupportedBatchConfig(
                f"{flag} needs the per-round object engine hooks; "
                "use kernel='scalar' to collect statistics"
            )
    generator = config.change_generator
    if generator is not None and type(generator) not in SUPPORTED_GENERATORS:
        raise UnsupportedBatchConfig(
            f"change generator {type(generator).__name__} is outside the "
            "compiler's replayed surface (fault-model generators consume "
            "RNG draws the batch compiler does not model)"
        )
    # No invariant checker runs here: the kernel has no object graph to
    # check.  The differential suite, not the runtime checker, is the
    # batched path's safety net.


def run_case_batched(
    config: CaseConfig, observers: Sequence = ()
) -> BatchCaseResult:
    """Execute a case on the batched kernel; exact scalar equivalence."""
    ensure_batchable(config, observers)
    compiled = compile_case(config)
    outcome = execute_batch(
        config.algorithm,
        config.n_processes,
        compiled,
        config.max_quiescence_rounds,
    )
    available = sum(1 for ok in outcome.outcomes if ok)
    return BatchCaseResult(
        config=config,
        availability_percent=100.0 * available / len(outcome.outcomes),
        outcomes=outcome.outcomes,
        rounds_total=outcome.rounds_total,
        changes_total=outcome.changes_total,
        final_components=[run.final_components for run in compiled],
        final_primary_masks=outcome.final_primary_masks,
    )
