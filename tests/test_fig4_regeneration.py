"""The committed ``results/fig4_*.csv`` files regenerate exactly.

The eight availability/ambiguous-session figures committed under
``results/`` were produced at scale ``small`` with master seed 0.  The
campaign stack is deterministic, so re-running any figure with the
same parameters must reproduce its committed CSV byte for byte — this
is the experiment-level counterpart of the trace byte-identity goldens
and the final gate on hot-path optimizations: a perf change that
perturbs a single run's outcome shows up here as a CSV diff.

Regenerating all eight figures takes a few minutes, so the exact
equality sweep only runs under ``REPRO_TIER2=1``.  A smoke-scale check
of one fresh and one cascading figure always runs, keeping the
regeneration path itself exercised in tier 1.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.report import (
    render,
    write_ambiguous_csv,
    write_availability_csv,
)
from repro.experiments.runner import run_experiment
from repro.experiments.spec import get_spec

TIER2 = os.environ.get("REPRO_TIER2") == "1"

RESULTS_DIR = Path(__file__).parent.parent / "results"

#: Parameters the committed fig4 CSVs were generated with.
COMMITTED_SCALE = "small"
COMMITTED_SEED = 0

FIG4_IDS = tuple(f"fig4_{index}" for index in range(1, 9))


def regenerate_csv(
    experiment_id: str,
    scale: str,
    directory: Path,
    kernel: str = "scalar",
    report: bool = False,
) -> Path:
    """Run one figure and export its CSV the way the CLI does (and,
    with ``report``, the rendered table beside it as ``.txt``)."""
    result = run_experiment(
        experiment_id, scale=scale, master_seed=COMMITTED_SEED, kernel=kernel
    )
    if report:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{experiment_id}.txt").write_text(render(result))
    spec = get_spec(experiment_id)
    if spec.kind == "availability":
        return write_availability_csv(result, directory)
    return write_ambiguous_csv(result, directory)


def test_committed_fig4_csvs_exist() -> None:
    for experiment_id in FIG4_IDS:
        path = RESULTS_DIR / f"{experiment_id}.csv"
        assert path.exists(), f"missing committed CSV {path}"
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert "," in header


def test_regeneration_smoke(tmp_path: Path) -> None:
    """The regeneration path works and is self-consistent at smoke scale."""
    first = regenerate_csv("fig4_1", "smoke", tmp_path / "a")
    second = regenerate_csv("fig4_1", "smoke", tmp_path / "b")
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("mean_rounds_between_changes,")


@pytest.mark.skipif(
    not TIER2,
    reason="full small-scale regeneration sweep runs under REPRO_TIER2=1",
)
@pytest.mark.parametrize("experiment_id", FIG4_IDS)
def test_fig4_csv_regenerates_exactly(experiment_id: str, tmp_path: Path) -> None:
    committed = RESULTS_DIR / f"{experiment_id}.csv"
    regenerated = regenerate_csv(experiment_id, COMMITTED_SCALE, tmp_path)
    assert regenerated.read_bytes() == committed.read_bytes(), (
        f"{committed} no longer matches a scale={COMMITTED_SCALE} "
        f"seed={COMMITTED_SEED} regeneration — either the campaign stack's "
        "determinism was broken or the committed file is stale"
    )


# ----------------------------------------------------------------------
# Batched kernel: the same CSVs, byte for byte, off the fast path.
# ----------------------------------------------------------------------

#: The availability figures (fig4_1..fig4_3 fresh — fully batched;
#: fig4_4..fig4_6 cascading — per-case scalar fallback, exercising the
#: routing).  The ambiguous figures (fig4_7/fig4_8) ignore the kernel.
AVAILABILITY_FIG4_IDS = tuple(f"fig4_{index}" for index in range(1, 7))


def test_batched_regeneration_smoke(tmp_path: Path) -> None:
    """A batched figure run writes the exact CSV the scalar engine does."""
    scalar = regenerate_csv("fig4_2", "smoke", tmp_path / "scalar")
    batched = regenerate_csv(
        "fig4_2", "smoke", tmp_path / "batched", kernel="batched"
    )
    assert batched.read_bytes() == scalar.read_bytes()


@pytest.mark.skipif(
    not TIER2,
    reason="full small-scale batched regeneration sweep runs under REPRO_TIER2=1",
)
@pytest.mark.parametrize("experiment_id", AVAILABILITY_FIG4_IDS)
def test_fig4_csv_regenerates_exactly_batched(
    experiment_id: str, tmp_path: Path
) -> None:
    """The batched kernel reproduces the committed goldens byte for byte."""
    committed = RESULTS_DIR / f"{experiment_id}.csv"
    regenerated = regenerate_csv(
        experiment_id, COMMITTED_SCALE, tmp_path, kernel="batched"
    )
    assert regenerated.read_bytes() == committed.read_bytes(), (
        f"{committed} differs when regenerated with kernel='batched' — "
        "the batched kernel diverged from the scalar engine"
    )


#: The fresh-start figures at the thesis' own 64 processes x 1000 runs
#: per case, committed under ``results/paper/`` as ``.csv`` and ``.txt``
#: (``run <id> --scale paper --kernel batched --seed 0``; a minute for
#: the three on the batched kernel, hours on the scalar driver).
PAPER_SCALE_IDS = ("fig4_1", "fig4_2", "fig4_3")


@pytest.mark.skipif(
    not TIER2,
    reason="thesis-scale batched regeneration runs under REPRO_TIER2=1",
)
@pytest.mark.parametrize("experiment_id", PAPER_SCALE_IDS)
def test_paper_scale_figures_regenerate_exactly_batched(
    experiment_id: str, tmp_path: Path
) -> None:
    committed = RESULTS_DIR / "paper"
    regenerate_csv(
        experiment_id, "paper", tmp_path, kernel="batched", report=True
    )
    for suffix in (".csv", ".txt"):
        name = experiment_id + suffix
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), (
            f"results/paper/{name} no longer matches a scale=paper "
            f"seed={COMMITTED_SEED} regeneration on the batched kernel"
        )


@pytest.mark.skipif(
    not TIER2,
    reason="thesis-scale batched regeneration runs under REPRO_TIER2=1",
)
def test_batched_thesis_runs_per_case(tmp_path: Path) -> None:
    """One figure at the thesis' 1000 runs/case, on the batched kernel.

    Uses the paper run count on the small-scale process count and rate
    grid so the sweep stays minutes, not hours; batched and scalar must
    agree byte for byte even at this depth.
    """
    from repro.experiments.spec import Scale

    scale = Scale(
        name="thesis-runs",
        n_processes=16,
        runs=1000,
        rates=(0.0, 2.0, 6.0, 12.0),
        scaling_process_counts=(8, 16, 24),
    )
    spec = get_spec("fig4_2")
    from repro.experiments.report import write_availability_csv as write_csv
    from repro.experiments.runner import run_experiment_spec

    scalar = write_csv(
        run_experiment_spec(spec, scale, COMMITTED_SEED), tmp_path / "scalar"
    )
    batched = write_csv(
        run_experiment_spec(spec, scale, COMMITTED_SEED, kernel="batched"),
        tmp_path / "batched",
    )
    assert batched.read_bytes() == scalar.read_bytes()
