"""Metrics merge determinism: parallel campaigns vs serial.

The acceptance criterion for the observability layer: the metrics a
parallel campaign exports must be byte-identical to the serial export.
Case registries merge in case order, campaign metrics are
integer-valued, and the JSONL exporter is canonical — so equality here
is literal text equality.
"""

from repro.obs import merge_registries, registry_to_jsonl
from repro.sim.campaign import CaseConfig, run_case
from repro.sim.parallel import run_cases_parallel


def _config(**overrides):
    base = dict(
        algorithm="ykd",
        n_processes=5,
        n_changes=4,
        mean_rounds_between_changes=2.0,
        runs=24,
        master_seed=11,
        collect_metrics=True,
    )
    base.update(overrides)
    return CaseConfig(**base)


class TestParallelCases:
    def test_case_pool_metrics_match_serial(self):
        configs = [
            _config(algorithm=algorithm, master_seed=7)
            for algorithm in ("ykd", "simple_majority")
        ]
        serial = [run_case(config) for config in configs]
        parallel = run_cases_parallel(configs, workers=2)
        serial_text = registry_to_jsonl(
            merge_registries([r.metrics for r in serial])
        )
        parallel_text = registry_to_jsonl(
            merge_registries([r.metrics for r in parallel])
        )
        assert parallel_text == serial_text

    def test_cascading_falls_back_but_still_collects(self):
        config = _config(mode="cascading", runs=6)
        # A single config runs in-process whatever the worker count.
        (result,) = run_cases_parallel([config], workers=4)
        serial = run_case(config)
        assert registry_to_jsonl(result.metrics) == registry_to_jsonl(
            serial.metrics
        )
