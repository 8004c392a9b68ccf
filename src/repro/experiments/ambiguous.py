"""Ambiguous-session figures: Figs. 4-7 and 4-8 (§4.2).

For YKD, unoptimized YKD and DFLS, and for 2/6/12 connectivity changes
across the rate sweep, measure how many ambiguous sessions one
monitored process retains — at the stable end of each run (Fig. 4-7)
and at the moment of each connectivity change, i.e. what must travel in
the next state broadcast (Fig. 4-8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry
from repro.sim.campaign import CaseConfig, run_case
from repro.sim.parallel import run_cases_parallel
from repro.experiments.spec import ExperimentSpec, Scale

#: The thesis plots these three panels in each of Figs. 4-7/4-8.
CHANGE_COUNTS: Tuple[int, ...] = (2, 6, 12)


@dataclass
class AmbiguousCell:
    """One bar of the figure: a histogram of retained-session counts."""

    algorithm: str
    n_changes: int
    rate: float
    #: count -> % of samples showing that many sessions (zero included).
    stable: Dict[int, float] = field(default_factory=dict)
    in_progress: Dict[int, float] = field(default_factory=dict)
    max_observed: int = 0

    @staticmethod
    def _percent_retained(histogram: Dict[int, float]) -> float:
        return sum(pct for count, pct in histogram.items() if count > 0)

    @property
    def stable_retained_percent(self) -> float:
        """Total bar height in Fig. 4-7: % of runs retaining any session."""
        return self._percent_retained(self.stable)

    @property
    def in_progress_retained_percent(self) -> float:
        """Total bar height in Fig. 4-8."""
        return self._percent_retained(self.in_progress)


@dataclass
class AmbiguousFigure:
    spec: ExperimentSpec
    scale: Scale
    #: (n_changes, rate, algorithm) -> cell.
    cells: Dict[Tuple[int, float, str], AmbiguousCell] = field(default_factory=dict)
    max_observed: Dict[str, int] = field(default_factory=dict)

    def cell(self, n_changes: int, rate: float, algorithm: str) -> AmbiguousCell:
        """The histogram cell for one panel position."""
        return self.cells[(n_changes, rate, algorithm)]


def _to_percentages(histogram: Dict[int, int]) -> Dict[int, float]:
    total = sum(histogram.values())
    if total == 0:
        return {}
    return {
        count: 100.0 * occurrences / total
        for count, occurrences in sorted(histogram.items())
    }


def run_ambiguous_figure(
    spec: ExperimentSpec,
    scale: Scale,
    master_seed: int = 0,
    workers: int = 1,
    metrics: Optional[MetricsRegistry] = None,
) -> AmbiguousFigure:
    """Regenerate Fig. 4-7 / Fig. 4-8 data at the given scale.

    One campaign collects both the stable and the in-progress
    histograms; the two figure specs render different slices of the
    same data, as in the thesis.  ``workers > 1`` spreads the case grid
    over a process pool.  Passing a ``metrics`` registry collects each
    case's campaign metrics into it, merged in grid order.
    """
    figure = AmbiguousFigure(spec=spec, scale=scale)
    grid = [
        (algorithm, n_changes, rate)
        for algorithm in spec.algorithms
        for n_changes in CHANGE_COUNTS
        for rate in scale.rates
    ]
    configs = [
        CaseConfig(
            algorithm=algorithm,
            n_processes=scale.n_processes,
            n_changes=n_changes,
            mean_rounds_between_changes=rate,
            runs=scale.runs,
            mode=spec.mode,
            master_seed=master_seed,
            collect_ambiguous=True,
            collect_metrics=metrics is not None,
        )
        for algorithm, n_changes, rate in grid
    ]
    results = run_cases_parallel(configs, workers=workers)
    for (algorithm, n_changes, rate), result in zip(grid, results):
        if metrics is not None and result.metrics is not None:
            metrics.merge(result.metrics)
        cell = AmbiguousCell(
            algorithm=algorithm,
            n_changes=n_changes,
            rate=rate,
            stable=_to_percentages(result.ambiguous_stable),
            in_progress=_to_percentages(result.ambiguous_in_progress),
            max_observed=result.ambiguous_max,
        )
        figure.cells[(n_changes, rate, algorithm)] = cell
        figure.max_observed[algorithm] = max(
            figure.max_observed.get(algorithm, 0), result.ambiguous_max
        )
    return figure
