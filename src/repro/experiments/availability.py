"""Availability figures: Figs. 4-1 through 4-6.

Each figure fixes a number of connectivity changes and a run protocol
(fresh start or cascading) and sweeps the mean number of message rounds
between changes, plotting the percentage of runs that end with a live
primary component, for the five studied algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry
from repro.sim.campaign import CaseConfig, run_case
from repro.sim.parallel import run_cases_parallel
from repro.experiments.spec import ExperimentSpec, Scale


@dataclass
class AvailabilityFigure:
    """The data behind one availability figure."""

    spec: ExperimentSpec
    scale: Scale
    #: algorithm -> [(mean rounds between changes, availability %)].
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def at(self, algorithm: str, rate: float) -> float:
        """Availability % of one algorithm at one swept rate."""
        for point_rate, percent in self.series[algorithm]:
            if point_rate == rate:
                return percent
        raise KeyError(f"no point at rate {rate} for {algorithm}")

    def interval_at(
        self, algorithm: str, rate: float, confidence: float = 0.95
    ) -> Tuple[float, float]:
        """Wilson confidence interval (as percentages) for one point.

        Reconstructed from the percentage and the per-case run count —
        exact, because percentages are successes/runs by construction.
        """
        from repro.analysis import wilson_interval

        percent = self.at(algorithm, rate)
        successes = round(percent * self.scale.runs / 100.0)
        low, high = wilson_interval(successes, self.scale.runs, confidence)
        return 100.0 * low, 100.0 * high

    @property
    def rates(self) -> List[float]:
        return list(self.scale.rates)


def run_availability_figure(
    spec: ExperimentSpec,
    scale: Scale,
    master_seed: int = 0,
    workers: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    trace_dir: Optional[Path] = None,
    spans_dir: Optional[Path] = None,
    kernel: str = "scalar",
) -> AvailabilityFigure:
    """Regenerate one of Figs. 4-1..4-6 at the given scale.

    Every algorithm runs against the identical fault sequences (the
    fault RNG label excludes the algorithm name), exactly as the thesis
    did.  ``workers > 1`` spreads the algorithm × rate case grid over a
    process pool (results are identical to a serial run).  Passing a
    ``metrics`` registry collects campaign metrics for every case into
    it (merged in grid order, so the registry is identical whatever the
    worker count).  ``trace_dir``/``spans_dir`` write one canonical
    JSONL artifact per case (the full event trace, resp. the
    reconstructed causal spans); recording observers cannot cross
    process boundaries, so either directory forces the serial path
    regardless of ``workers``.  ``kernel="batched"`` regenerates the
    figure on the batched kernel of :mod:`repro.sim.batch` — exact
    same numbers, much faster — with per-case scalar fallback for
    anything outside the batched surface (cascading figures, metrics
    collection, tracing).
    """
    figure = AvailabilityFigure(spec=spec, scale=scale)
    grid = _grid(spec, scale)
    configs = case_configs(spec, scale, master_seed, metrics is not None)
    if trace_dir is None and spans_dir is None:
        # The grid is algorithm-major (it is the order of the series);
        # the cases run rate-major, so that the algorithms facing one
        # fault environment are neighbours and the batched kernel
        # compiles it once (``repro.sim.batch.compile.compile_case``).
        n_rates = len(scale.rates)
        order = sorted(range(len(grid)), key=lambda index: index % n_rates)
        ran = run_cases_parallel(
            [configs[index] for index in order], workers=workers, kernel=kernel
        )
        by_index = dict(zip(order, ran))
        results = [by_index[index] for index in range(len(grid))]
    else:
        results = [
            _run_case_recorded(
                spec, config, algorithm, rate, trace_dir, spans_dir
            )
            for (algorithm, rate), config in zip(grid, configs)
        ]
    for (algorithm, rate), result in zip(grid, results):
        figure.series.setdefault(algorithm, []).append(
            (rate, result.availability_percent)
        )
        if metrics is not None and result.metrics is not None:
            metrics.merge(result.metrics)
    return figure


def _grid(spec: ExperimentSpec, scale: Scale):
    """The figure's cases as (algorithm, rate), in series order."""
    return [
        (algorithm, rate)
        for algorithm in spec.algorithms
        for rate in scale.rates
    ]


def case_configs(
    spec: ExperimentSpec,
    scale: Scale,
    master_seed: int = 0,
    collect_metrics: bool = False,
) -> list:
    """One :class:`CaseConfig` per case of the figure, in grid order."""
    return [
        CaseConfig(
            algorithm=algorithm,
            n_processes=scale.n_processes,
            n_changes=spec.n_changes,
            mean_rounds_between_changes=rate,
            runs=scale.runs,
            mode=spec.mode,
            master_seed=master_seed,
            collect_metrics=collect_metrics,
        )
        for algorithm, rate in _grid(spec, scale)
    ]


def _run_case_recorded(
    spec: ExperimentSpec,
    config: CaseConfig,
    algorithm: str,
    rate: float,
    trace_dir: Optional[Path],
    spans_dir: Optional[Path],
):
    """One case with trace/span recording, written as per-case JSONL."""
    from repro.obs.causal import CausalObserver, write_spans_jsonl
    from repro.sim.trace import TraceRecorder, write_trace_jsonl

    observers = []
    recorder = causal = None
    if trace_dir is not None:
        recorder = TraceRecorder(max_events=1_000_000)
        observers.append(recorder)
    if spans_dir is not None:
        causal = CausalObserver()
        observers.append(causal)
    result = run_case(config, observers=observers)
    stem = f"{spec.experiment_id}_{algorithm}_rate{rate:g}"
    if recorder is not None:
        write_trace_jsonl(recorder, Path(trace_dir) / f"{stem}.trace.jsonl")
    if causal is not None:
        write_spans_jsonl(
            causal.finalize(), Path(spans_dir) / f"{stem}.spans.jsonl"
        )
    return result
