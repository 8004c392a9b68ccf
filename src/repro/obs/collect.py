"""Campaign metrics collection: a subscriber that feeds a registry.

:class:`CampaignMetrics` is the bridge between the event bus and the
metrics registry — attach one to ``run_case(..., observers=[...])`` (or
set ``CaseConfig.collect_metrics``) and the campaign's execution facts
accumulate as labelled series:

========================  =========  ====================================
series                    type       meaning
========================  =========  ====================================
``runs_total``            counter    runs executed
``runs_available``        counter    runs ending with a live primary
``rounds_total``          counter    driver rounds executed
``changes_total``         counter    connectivity changes injected
``changes_by_kind``       counter    per change type (label ``change``)
``broadcasts_total``      counter    broadcasts observed
``run_rounds``            histogram  rounds per run
``run_changes``           histogram  changes per run
========================  =========  ====================================

Every series carries the case labels (algorithm, mode, processes,
changes, rate), so registries merged across a whole figure keep each
case's numbers separate.  All observations are integers, which makes
shard-merged registries bit-identical to serial ones (see
``repro.obs.metrics``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.bus import Subscriber
from repro.obs.metrics import Counter, Histogram, MetricsRegistry

#: Buckets for the per-run histograms: run lengths live in the tens of
#: rounds at thesis scales, the overflow slot absorbs pathologies.
RUN_BUCKETS = (4, 8, 16, 32, 64, 128, 256, 512, 1024)


class CampaignMetrics(Subscriber):
    """Record campaign execution facts into a :class:`MetricsRegistry`.

    Works standalone on a bare driver too — without a case the labels
    fall back to the driver's algorithm name.  The registry may be
    shared by several collectors (series are get-or-create).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._extra_labels = dict(labels or {})
        self._labels: Optional[Dict[str, str]] = None
        self._bound_for: Optional[Dict[str, str]] = None
        self._run_start_round = 0
        self._run_start_changes = 0
        # Bound series (resolved once per label set, not per event).
        self._runs: Counter
        self._available: Counter
        self._rounds: Counter
        self._changes: Counter
        self._broadcasts: Counter
        self._run_rounds: Histogram
        self._run_changes: Histogram
        self._by_kind: Dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # Label binding.
    # ------------------------------------------------------------------

    def on_case_start(self, config: Any) -> None:
        """Adopt the case's identity as the label set for every series."""
        self._labels = {
            "algorithm": str(config.algorithm),
            "mode": str(config.mode),
            "processes": str(config.n_processes),
            "changes": str(config.n_changes),
            "rate": str(config.mean_rounds_between_changes),
            **{str(k): str(v) for k, v in self._extra_labels.items()},
        }

    def _bind(self, driver: Any) -> None:
        labels = self._labels
        if labels is None:
            labels = {
                "algorithm": str(driver.algorithm_name),
                **{str(k): str(v) for k, v in self._extra_labels.items()},
            }
        if self._bound_for == labels:
            return
        registry = self.registry
        self._runs = registry.counter("runs_total", **labels)
        self._available = registry.counter("runs_available", **labels)
        self._rounds = registry.counter("rounds_total", **labels)
        self._changes = registry.counter("changes_total", **labels)
        self._broadcasts = registry.counter("broadcasts_total", **labels)
        self._run_rounds = registry.histogram(
            "run_rounds", buckets=RUN_BUCKETS, **labels
        )
        self._run_changes = registry.histogram(
            "run_changes", buckets=RUN_BUCKETS, **labels
        )
        self._by_kind = {}
        self._bound_for = dict(labels)

    # ------------------------------------------------------------------
    # Event hooks.
    # ------------------------------------------------------------------

    def on_run_start(self, driver: Any) -> None:
        """Bind series and remember where this run starts."""
        self._bind(driver)
        self._run_start_round = driver.round_index
        self._run_start_changes = driver.changes_injected

    def on_round(self, driver: Any) -> None:
        """Count one executed round."""
        self._rounds.value += 1

    def on_change(self, driver: Any, change: Any) -> None:
        """Count one injected change, total and per change kind."""
        self._changes.value += 1
        kind = type(change).__name__
        counter = self._by_kind.get(kind)
        if counter is None:
            labels = dict(self._bound_for or {})
            labels["change"] = kind
            counter = self.registry.counter("changes_by_kind", **labels)
            self._by_kind[kind] = counter
        counter.value += 1

    def on_broadcast(self, driver: Any, sender: int, message: Any) -> None:
        """Count one broadcast."""
        self._broadcasts.value += 1

    def on_run_end(self, driver: Any) -> None:
        """Close out one run: outcome plus per-run distributions."""
        self._runs.value += 1
        if driver.primary_exists():
            self._available.value += 1
        self._run_rounds.observe(driver.round_index - self._run_start_round)
        self._run_changes.observe(
            driver.changes_injected - self._run_start_changes
        )
