"""Byte-identity regression tests for the optimized hot path.

Every optimization of the simulation hot path (topology caches, driver
delivery precomputation, session/knowledge memoization) is gated by the
guarantee that it changes *nothing observable*: replaying the committed
seed corpus, a pinned explicit schedule, and pinned-seed campaigns must
produce traces byte-identical to the seed implementation's.

The golden files under ``tests/golden/`` were generated from the seed
(pre-optimization) implementation.  To regenerate them — only ever
legitimate when the *workload* deliberately changes, never to paper
over a behavioural regression — run::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_byte_identity.py

The expensive 10k-round campaign pin (the acceptance workload of the
throughput overhaul) only runs under ``REPRO_TIER2=1``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict

import pytest

from repro.check.corpus import load_repro
from repro.check.plan import (
    PlanStep,
    SchedulePlan,
    driver_steps,
    validate_plan,
)
from repro.core.registry import algorithm_names
from repro.errors import InvariantViolation, SimulationError
from repro.faults import FaultModel
from repro.net.changes import (
    CrashChange,
    MergeChange,
    PartitionChange,
    RecoverChange,
)
from repro.sim.campaign import CaseConfig, run_case
from repro.sim.driver import DriverLoop
from repro.sim.rng import derive_rng
from repro.sim.trace import (
    TraceDigester,
    TraceRecorder,
    trace_canonical_json,
    trace_digest,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
GOLDEN_DIR = Path(__file__).parent / "golden"

REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"
TIER2 = os.environ.get("REPRO_TIER2") == "1"

#: The pinned explicit schedule whose full canonical trace is golden.
PINNED_PLAN = SchedulePlan(
    n_processes=6,
    steps=(
        PlanStep(
            gap=1,
            change=PartitionChange(
                component=frozenset(range(6)), moved=frozenset({4, 5})
            ),
            late=frozenset({4}),
        ),
        PlanStep(
            gap=0,
            change=PartitionChange(
                component=frozenset({0, 1, 2, 3}), moved=frozenset({2, 3})
            ),
            late=frozenset({2, 3}),
        ),
        PlanStep(
            gap=2,
            change=MergeChange(
                first=frozenset({0, 1}), second=frozenset({2, 3})
            ),
            late=frozenset(),
        ),
        PlanStep(gap=0, change=CrashChange(pid=5), late=frozenset({4})),
        PlanStep(gap=1, change=RecoverChange(pid=5), late=frozenset()),
        PlanStep(
            gap=0,
            change=MergeChange(
                first=frozenset({0, 1, 2, 3}), second=frozenset({4})
            ),
            late=frozenset({0}),
        ),
        PlanStep(
            gap=1,
            change=MergeChange(
                first=frozenset({0, 1, 2, 3, 4}), second=frozenset({5})
            ),
            late=frozenset(),
        ),
    ),
)

#: Pinned-seed campaign digested per algorithm in tier 1 (small), and
#: the 10k-round acceptance campaign digested in tier 2 (large).
CAMPAIGN_ALGORITHMS = ("ykd", "dfls", "one_pending", "mr1p")
CAMPAIGN_CASE = dict(
    n_processes=8, n_changes=6, mean_rounds_between_changes=3.0,
    runs=25, master_seed=7,
)
CAMPAIGN_10K_CASE = dict(
    n_processes=16, n_changes=6, mean_rounds_between_changes=4.0,
    runs=300, master_seed=0,
)


def _golden(name: str) -> Path:
    return GOLDEN_DIR / name


def _check_or_regen(path: Path, text: str) -> None:
    """Assert ``text`` equals the golden file, or rewrite it under regen."""
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    assert path.exists(), (
        f"golden file {path.name} missing — generate with "
        "REPRO_REGEN_GOLDENS=1 on the seed implementation"
    )
    assert path.read_text(encoding="utf-8") == text, (
        f"{path.name}: trace differs from the seed implementation — an "
        "optimization changed observable behaviour"
    )


def _replay_traced(plan: SchedulePlan, algorithm: str) -> TraceRecorder:
    """Replay one explicit plan under one algorithm, recording the trace.

    Expect-violation corpus entries (adversarial fault models) abort
    mid-schedule when the driver's checker catches the planted
    breakage; the trace up to the abort is still fully deterministic,
    so it digests like any other.
    """
    recorder = TraceRecorder()
    driver = DriverLoop(
        algorithm=algorithm,
        n_processes=plan.n_processes,
        fault_rng=derive_rng(0, "byte-identity", algorithm),
        observers=[recorder],
        fault_model=plan.faults,
    )
    try:
        driver.execute_schedule(driver_steps(plan))
    except (InvariantViolation, SimulationError):
        assert plan.faults is not None and not plan.faults.is_clean(), (
            "a clean-fault corpus plan aborted its byte-identity replay"
        )
    assert not recorder.truncated
    return recorder


def _campaign_digest(algorithm: str, case: dict) -> str:
    """Stream-digest a pinned-seed fresh campaign for one algorithm."""
    digester = TraceDigester()
    run_case(
        CaseConfig(algorithm=algorithm, **case), observers=[digester]
    )
    return digester.hexdigest()


class TestCorpusReplayTraces:
    """The committed fuzz corpus replays byte-identically."""

    def test_corpus_trace_digests(self):
        corpus_files = sorted(CORPUS_DIR.glob("*.json"))
        assert corpus_files, "seed corpus is missing"
        digests: Dict[str, Dict[str, str]] = {}
        for path in corpus_files:
            repro = load_repro(path)
            names = list(repro.algorithms) if repro.algorithms else algorithm_names()
            digests[path.name] = {
                algorithm: trace_digest(_replay_traced(repro.plan, algorithm))
                for algorithm in names
            }
        text = json.dumps(digests, sort_keys=True, indent=1) + "\n"
        _check_or_regen(_golden("corpus_trace_digests.json"), text)


class TestPinnedScheduleTrace:
    """A handcrafted explicit schedule replays to identical JSON."""

    def test_plan_is_feasible(self):
        final = validate_plan(PINNED_PLAN)
        assert len(final.components) == 1

    @pytest.mark.parametrize("algorithm", ["ykd", "one_pending"])
    def test_full_canonical_trace(self, algorithm):
        recorder = _replay_traced(PINNED_PLAN, algorithm)
        text = trace_canonical_json(recorder)
        _check_or_regen(_golden(f"schedule_trace_{algorithm}.json"), text)

    @pytest.mark.parametrize("algorithm", ["ykd", "one_pending"])
    def test_knobs_off_fault_model_hits_the_same_golden(self, algorithm):
        """All fault knobs disabled is the clean engine, byte for byte.

        The explicit default :class:`FaultModel` must replay to the
        *pre-fault* golden trace — the fault layer's knobs-off
        guarantee, pinned against the same file as the clean run so
        the two can never drift apart.
        """
        plan = SchedulePlan(
            n_processes=PINNED_PLAN.n_processes,
            steps=PINNED_PLAN.steps,
            faults=FaultModel(),
        )
        assert plan.faults is None  # the default model normalizes away
        recorder = TraceRecorder()
        driver = DriverLoop(
            algorithm=algorithm,
            n_processes=plan.n_processes,
            fault_rng=derive_rng(0, "byte-identity", algorithm),
            observers=[recorder],
            fault_model=FaultModel(),  # explicit, un-normalized
        )
        driver.execute_schedule(driver_steps(plan))
        text = trace_canonical_json(recorder)
        golden = _golden(f"schedule_trace_{algorithm}.json")
        if not REGEN:
            assert golden.read_text(encoding="utf-8") == text, (
                "an all-knobs-off fault model changed the trace"
            )


class TestPinnedCampaignTraces:
    """Pinned-seed random campaigns replay byte-identically."""

    def test_campaign_trace_digests(self):
        digests = {
            algorithm: _campaign_digest(algorithm, CAMPAIGN_CASE)
            for algorithm in CAMPAIGN_ALGORITHMS
        }
        text = json.dumps(digests, sort_keys=True, indent=1) + "\n"
        _check_or_regen(_golden("campaign_trace_digests.json"), text)

    @pytest.mark.skipif(
        not (TIER2 or REGEN),
        reason="10k-round acceptance campaign runs under REPRO_TIER2=1",
    )
    def test_campaign_10k_round_digest(self):
        digests = {"ykd": _campaign_digest("ykd", CAMPAIGN_10K_CASE)}
        text = json.dumps(digests, sort_keys=True, indent=1) + "\n"
        _check_or_regen(_golden("campaign_10k_trace_digest.json"), text)


class TestDigestConsistency:
    """The streaming digester and the stored-trace digest agree."""

    def test_streaming_matches_stored(self):
        recorder = TraceRecorder()
        digester = TraceDigester()
        config = CaseConfig(algorithm="ykd", n_processes=6, n_changes=4,
                            runs=5, master_seed=11)
        run_case(config, observers=[recorder, digester])
        assert not recorder.truncated
        assert trace_digest(recorder) == digester.hexdigest()
        assert digester.event_count == len(recorder.events)
