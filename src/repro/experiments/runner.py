"""Dispatch: run any experiment spec and get its result object."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.errors import ExperimentError
from repro.obs import MetricsRegistry
from repro.experiments.ablation import AblationResult, run_ablation
from repro.experiments.ambiguous import AmbiguousFigure, run_ambiguous_figure
from repro.experiments.availability import (
    AvailabilityFigure,
    case_configs,
    run_availability_figure,
)
from repro.experiments.longrun import LongRunSeries, run_longrun
from repro.experiments.extras import (
    BlockingTable,
    MessageSizeTable,
    RoundsTable,
    ScalingTable,
    run_blocking_table,
    run_msgsize_table,
    run_rounds_table,
    run_scaling_table,
)
from repro.experiments.spec import ExperimentSpec, Scale, get_scale, get_spec

ExperimentResult = Union[
    AvailabilityFigure, AmbiguousFigure, RoundsTable, ScalingTable,
    MessageSizeTable, BlockingTable, LongRunSeries, AblationResult,
]


def run_experiment(
    experiment_id: str,
    scale: Union[str, Scale] = "smoke",
    master_seed: int = 0,
    workers: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    trace_dir: Optional[Path] = None,
    spans_dir: Optional[Path] = None,
    kernel: str = "scalar",
) -> ExperimentResult:
    """Run one paper artifact's experiment at the given scale.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) collects
    campaign metrics for the campaign-backed kinds (availability and
    ambiguous figures); other kinds leave it untouched.  ``trace_dir``
    and ``spans_dir`` write per-case canonical trace/span JSONL for the
    availability figures (see
    :func:`~repro.experiments.availability.run_availability_figure`);
    other kinds ignore them.  ``kernel="batched"`` runs availability
    figures on the batched campaign kernel (exact same numbers;
    per-case scalar fallback); the other kinds need statistics the
    kernel does not collect and ignore the flag.
    """
    spec = get_spec(experiment_id)
    if isinstance(scale, str):
        scale = get_scale(scale)
    return run_experiment_spec(
        spec, scale, master_seed, workers, metrics, trace_dir, spans_dir,
        kernel=kernel,
    )


def batched_fallback_reason(
    experiment_id: str,
    scale: Union[str, Scale],
    collect_metrics: bool = False,
    recorded: bool = False,
) -> Optional[str]:
    """Why ``run_experiment(..., kernel="batched")`` runs on the scalar
    driver after all — the first case's ``UnsupportedBatchConfig``
    message — or None where every case is inside the batched surface.
    ``collect_metrics`` and ``recorded`` say a metrics registry, resp.
    a trace or span directory, goes with the run."""
    from repro.errors import UnsupportedBatchConfig
    from repro.sim.batch import ensure_batchable

    spec = get_spec(experiment_id)
    if spec.kind != "availability":
        return (
            f"{spec.kind} experiments read statistics off the object "
            "engine; only availability figures route through the "
            "batched kernel"
        )
    if isinstance(scale, str):
        scale = get_scale(scale)
    # ensure_batchable only asks whether anything would attach.
    observers = ["trace/span recorder"] if recorded else []
    for config in case_configs(spec, scale, collect_metrics=collect_metrics):
        try:
            ensure_batchable(config, observers)
        except UnsupportedBatchConfig as unsupported:
            return str(unsupported)
    return None


def run_experiment_spec(
    spec: ExperimentSpec,
    scale: Scale,
    master_seed: int = 0,
    workers: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    trace_dir: Optional[Path] = None,
    spans_dir: Optional[Path] = None,
    kernel: str = "scalar",
) -> ExperimentResult:
    """Dispatch a resolved spec to the runner for its kind."""
    if spec.kind == "availability":
        return run_availability_figure(
            spec,
            scale,
            master_seed,
            workers=workers,
            metrics=metrics,
            trace_dir=trace_dir,
            spans_dir=spans_dir,
            kernel=kernel,
        )
    if spec.kind == "ambiguous":
        return run_ambiguous_figure(
            spec, scale, master_seed, workers=workers, metrics=metrics
        )
    if spec.kind == "rounds":
        return run_rounds_table(spec, scale, master_seed)
    if spec.kind == "scaling":
        return run_scaling_table(spec, scale, master_seed)
    if spec.kind == "msgsize":
        return run_msgsize_table(spec, scale, master_seed)
    if spec.kind == "blocking":
        return run_blocking_table(spec, scale, master_seed)
    if spec.kind == "longrun":
        return run_longrun(spec, scale, master_seed)
    if spec.kind == "ablation":
        return run_ablation(spec, scale, master_seed)
    raise ExperimentError(f"unknown experiment kind {spec.kind!r}")
