"""Shared machinery for the artifact-regeneration harness.

Every ``bench_*.py`` test regenerates one paper artifact (figure or
table), writes the rendered rows/series to
``results/<experiment id>.txt``, echoes them to stdout (visible with
``pytest -s``) and asserts the artifact's shape.  Nothing here is
timed: ``benchmarks/e2e`` is the only code that measures speed.

The scale defaults to ``smoke`` so the whole harness runs in minutes;
set ``REPRO_BENCH_SCALE=small`` or ``=paper`` to reproduce at higher
fidelity (``paper`` is the thesis' 64-process, 1000-run configuration
and takes hours of CPU).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import render, run_experiment

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")

BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


@pytest.fixture
def bench_scale() -> str:
    return BENCH_SCALE


@pytest.fixture
def regenerate():
    """Run one experiment and write its rendered report to ``results/``."""

    def runner(experiment_id: str):
        result = run_experiment(
            experiment_id, scale=BENCH_SCALE, master_seed=BENCH_SEED
        )
        report = render(result)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(report)
        print()
        print(report)
        return result

    return runner
