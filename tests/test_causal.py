"""Tests for causal attempt tracing and availability forensics.

The two load-bearing contracts of ``repro.obs.causal``:

* **live == offline, byte-identical** — reconstructing spans while the
  run executes (:class:`CausalObserver` on the event bus) and
  reconstructing them afterwards from the recorded trace (or its
  JSONL) must produce byte-identical span exports.  The two paths
  share the builder, so this differential pins the *recording
  pipeline*: every event the builder needs must reach the recorder,
  in order, with faithful dicts.
* **blame is a partition** — every round of a measured run without a
  live primary lands in exactly one blame category, verified against
  an independent per-round count taken straight off the driver.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.corpus import load_repro
from repro.check.differential import check_plan, run_plan
from repro.check.plan import driver_steps
from repro.errors import InvariantViolation, SimulationError
from repro.obs.bus import Subscriber
from repro.obs.causal import (
    ATTEMPT_OUTCOMES,
    BLAME_CATEGORIES,
    CausalObserver,
    spans_from_jsonl,
    spans_from_recorder,
    spans_to_jsonl,
)
from repro.sim.campaign import CaseConfig, run_case
from repro.sim.driver import DriverLoop
from repro.sim.explore import explore
from repro.sim.rng import derive_rng
from repro.sim.trace import TraceRecorder, trace_to_jsonl

from tests.conftest import heal, make_driver, split

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def _case(**overrides) -> CaseConfig:
    base = dict(
        algorithm="ykd",
        n_processes=6,
        n_changes=4,
        mean_rounds_between_changes=3.0,
        runs=12,
        master_seed=3,
    )
    base.update(overrides)
    return CaseConfig(**base)


def _run_with_both(config: CaseConfig):
    """One case observed live and recorded, returning (live, recorder)."""
    recorder = TraceRecorder(max_events=1_000_000)
    live = CausalObserver()
    run_case(config, observers=[recorder, live])
    return live, recorder


# ----------------------------------------------------------------------
# Live vs offline differential.
# ----------------------------------------------------------------------


class TestLiveOfflineIdentity:
    def test_scripted_driver_byte_identical(self):
        recorder = TraceRecorder()
        live = CausalObserver()
        driver = make_driver("ykd", 5, observers=[recorder, live])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        split(driver, {2})
        driver.run_until_quiescent()
        heal(driver)
        offline = spans_from_recorder(recorder)
        assert spans_to_jsonl(live.finalize()) == spans_to_jsonl(offline)

    @pytest.mark.parametrize("mode", ["fresh", "cascading"])
    @pytest.mark.parametrize("algorithm", ["ykd", "simple_majority"])
    def test_campaign_byte_identical(self, algorithm, mode):
        live, recorder = _run_with_both(_case(algorithm=algorithm, mode=mode))
        offline = spans_from_recorder(recorder)
        assert spans_to_jsonl(live.finalize()) == spans_to_jsonl(offline)

    def test_jsonl_round_trip_byte_identical(self):
        live, recorder = _run_with_both(_case())
        from_text = spans_from_jsonl(trace_to_jsonl(recorder))
        assert spans_to_jsonl(from_text) == spans_to_jsonl(live.finalize())

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_corpus_plans_byte_identical(self, path):
        plan = load_repro(path).plan
        for algorithm in ("ykd", "simple_majority"):
            recorder = TraceRecorder(max_events=1_000_000)
            live = CausalObserver()
            driver = DriverLoop(
                algorithm=algorithm,
                n_processes=plan.n_processes,
                fault_rng=derive_rng(0, "causal", "corpus", algorithm),
                observers=[recorder, live],
            )
            try:
                driver.execute_schedule(driver_steps(plan))
            except (InvariantViolation, SimulationError):
                pass
            assert spans_to_jsonl(live.finalize()) == spans_to_jsonl(
                spans_from_recorder(recorder)
            ), f"{path.stem}/{algorithm}"

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        algorithm=st.sampled_from(["ykd", "simple_majority", "dfls"]),
        mode=st.sampled_from(["fresh", "cascading"]),
        n_processes=st.integers(min_value=3, max_value=7),
        n_changes=st.integers(min_value=1, max_value=4),
        runs=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_random_campaigns_byte_identical(
        self, algorithm, mode, n_processes, n_changes, runs, seed
    ):
        live, recorder = _run_with_both(
            _case(
                algorithm=algorithm,
                mode=mode,
                n_processes=n_processes,
                n_changes=n_changes,
                runs=runs,
                master_seed=seed,
            )
        )
        offline = spans_from_recorder(recorder)
        assert spans_to_jsonl(live.finalize()) == spans_to_jsonl(offline)

    def test_truncated_trace_marks_span_set(self):
        recorder = TraceRecorder(max_events=5)
        driver = make_driver("ykd", 5, observers=[recorder])
        split(driver, {3, 4})
        driver.run_until_quiescent()
        assert spans_from_recorder(recorder).truncated


# ----------------------------------------------------------------------
# Blame accounting (the acceptance criterion).
# ----------------------------------------------------------------------


class _RoundLedger(Subscriber):
    """Independent per-round primary count straight off the driver."""

    def __init__(self) -> None:
        self.total = 0
        self.primary = 0
        self._in_run = False

    def on_run_start(self, driver) -> None:
        self._in_run = True

    def on_run_end(self, driver) -> None:
        self._in_run = False

    def on_round(self, driver) -> None:
        if not self._in_run:
            return
        self.total += 1
        if driver.primary_exists():
            self.primary += 1


class TestBlameAccounting:
    @pytest.mark.parametrize("mode", ["fresh", "cascading"])
    @pytest.mark.parametrize("algorithm", ["ykd", "simple_majority"])
    def test_every_nonprimary_round_blamed_exactly_once(
        self, algorithm, mode
    ):
        ledger = _RoundLedger()
        causal = CausalObserver()
        run_case(_case(algorithm=algorithm, mode=mode), observers=[ledger, causal])
        spans = causal.finalize()
        assert spans.total_rounds == ledger.total
        assert spans.primary_rounds == ledger.primary
        blamed = sum(spans.blame_totals().values())
        assert blamed == spans.nonprimary_rounds
        assert blamed == ledger.total - ledger.primary

    def test_per_run_blame_sums_to_nonprimary_rounds(self):
        causal = CausalObserver()
        run_case(_case(runs=20), observers=[causal])
        for run in causal.finalize().runs:
            assert tuple(c for c, _ in run.blame) == BLAME_CATEGORIES
            assert sum(n for _, n in run.blame) == run.nonprimary_rounds

    def test_blame_categories_are_closed(self):
        causal = CausalObserver()
        run_case(_case(mode="cascading", runs=20), observers=[causal])
        totals = causal.finalize().blame_totals()
        assert set(totals) == set(BLAME_CATEGORIES)


# ----------------------------------------------------------------------
# Span-model invariants.
# ----------------------------------------------------------------------


class TestSpanInvariants:
    @pytest.fixture(scope="class")
    def spans(self):
        causal = CausalObserver()
        run_case(
            _case(mode="cascading", runs=25, n_changes=5), observers=[causal]
        )
        return causal.finalize()

    def test_attempt_outcomes_and_causes(self, spans):
        assert spans.attempts
        for span in spans.attempts:
            assert span.outcome in ATTEMPT_OUTCOMES
            assert span.members == tuple(sorted(span.members))
            if span.outcome == "interrupted":
                assert span.interrupted_by is not None
                assert span.closed_by is not None
                assert span.closed_by.kind == "change"
            if span.outcome == "resolved":
                assert span.closed_by is not None
                assert span.closed_by.kind == "primaryformed"
            if span.close_round is not None:
                assert span.close_round >= span.open_round

    def test_causal_links_dereference_into_the_trace(self):
        recorder = TraceRecorder(max_events=1_000_000)
        causal = CausalObserver()
        run_case(_case(), observers=[recorder, causal])
        events = recorder.events
        for span in causal.finalize().attempts:
            for link in (span.opened_by, *span.advanced_by, span.closed_by):
                if link is None:
                    continue
                event = events[link.index]
                assert event["kind"] == link.kind
                assert event["round"] == link.round_index

    def test_aggregates_agree_with_a_scan_of_the_attempts(self, spans):
        # What ``docs/forensics.md`` "Querying" promises: narrowing is a
        # comprehension, and the three aggregates count the same spans.
        outcomes = spans.outcome_counts()
        assert sum(outcomes.values()) == len(spans.attempts)
        for outcome, count in outcomes.items():
            assert count == len(
                [s for s in spans.attempts if s.outcome == outcome]
            )
        interruptions = spans.interruption_counts()
        assert sum(interruptions.values()) == outcomes["interrupted"]
        assert sum(spans.blame_totals().values()) == spans.nonprimary_rounds

    def test_primary_spans_tile_the_primary_rounds(self, spans):
        for span in spans.primaries:
            if span.lost_round is not None:
                assert span.lost_round >= span.formed_round
            assert span.outcome in ("lost", "survived")

    def test_span_dicts_are_json_ready(self, spans):
        payload = json.dumps(spans.to_dicts())
        assert '"span": "attempt"' in payload
        assert '"span": "run"' in payload


# ----------------------------------------------------------------------
# Surface wiring: differential, explorer, GCS.
# ----------------------------------------------------------------------


class TestSurfaceWiring:
    def test_verdicts_carry_blame_for_lost_rounds(self):
        from tests.test_check_differential import EVEN_SPLIT

        verdict = run_plan(EVEN_SPLIT, "ykd")
        assert verdict.ok
        assert verdict.blame  # agreement after the cut costs rounds
        for category, count in verdict.blame:
            assert category in BLAME_CATEGORIES
            assert count > 0
        # Clean verdicts keep the breakdown out of the one-line report.
        assert "lost rounds" not in verdict.describe()

    def test_failure_describe_appends_blame_breakdown(self):
        from repro.check.differential import AlgorithmVerdict

        verdict = AlgorithmVerdict(
            algorithm="ykd",
            outcome="livelock",
            detail="never quiesced",
            blame=(("attempt_in_flight", 3), ("no_quorum_possible", 2)),
        )
        line = verdict.describe()
        assert "lost rounds: attempt_in_flight=3, no_quorum_possible=2" in line

    def test_check_plan_replays_deterministically_with_blame(self):
        from tests.test_check_differential import EVEN_SPLIT

        first = check_plan(EVEN_SPLIT, ["ykd", "one_pending"])
        second = check_plan(EVEN_SPLIT, ["ykd", "one_pending"])
        assert first.verdicts == second.verdicts
        assert all(v.blame for v in first.verdicts.values())

    def test_explorer_attaches_counterexamples(self, broken_majority):
        result = explore(
            "broken_majority",
            n_processes=4,
            depth=1,
            gap_options=(0,),
        )
        assert len(result.violations) == 1
        # The first violation ends the exploration; its schedule loses
        # one idle round on its way to the violation.
        assert [example.blame for example in result.counterexamples] == [
            (("algorithm_idle", 1),)
        ]
        for example in result.counterexamples:
            assert example.algorithm == "broken_majority"
            assert example.steps
            payload = json.dumps(example.to_dict())
            assert "blame" in payload

    def test_counterexample_schedule_replays_to_violation(
        self, broken_majority
    ):
        result = explore(
            "broken_majority", n_processes=4, depth=1, gap_options=(0,)
        )
        example = result.counterexamples[0]
        driver = DriverLoop(
            algorithm="broken_majority",
            n_processes=example.n_processes,
            fault_rng=derive_rng(0, "causal", "replay"),
        )
        with pytest.raises(InvariantViolation):
            driver.execute_schedule(example.plan_steps)

    def test_clean_exploration_has_no_counterexamples(self):
        result = explore("ykd", n_processes=3, depth=1, gap_options=(0,))
        assert result.passed
        assert not result.counterexamples


class TestGCSViewSpans:
    def test_service_observer_collects_view_spans(self):
        from repro.gcs.adapter import PrimaryComponentService
        from repro.obs.causal import (
            VIEW_AGREED,
            VIEW_PENDING,
            VIEW_SUPERSEDED,
            GCSViewSpans,
        )

        tracker = GCSViewSpans()
        service = PrimaryComponentService("ykd", 5, observers=[tracker])
        service.run_until_stable()

        def tick_into_a_window():
            for _ in range(50):
                if tracker.open_views():
                    return
                service.tick()
            raise AssertionError("no view began installing within 50 ticks")

        # {0,1,2} is mid-agreement when 0 is cut away again: superseded.
        topology = service.cluster.topology
        service.set_topology(topology.partition(range(5), {3, 4}))
        tick_into_a_window()
        topology = service.cluster.topology
        service.set_topology(topology.partition({0, 1, 2}, {0}))
        service.run_until_stable()
        # ... and the tracker is read while {1,2,3,4} is half installed.
        topology = service.cluster.topology
        service.set_topology(topology.merge({1, 2}, {3, 4}))
        tick_into_a_window()
        spans = tracker.finalize(at_tick=service.cluster.ticks)

        outcomes = {span.outcome for span in spans}
        assert outcomes == {VIEW_AGREED, VIEW_SUPERSEDED, VIEW_PENDING}
        for span in spans:
            assert span.close_tick >= span.open_tick
            assert span.members == tuple(sorted(span.members))
            assert set(span.installed) <= set(span.members)
            if span.outcome == VIEW_AGREED:
                assert span.installed == span.members
            payload = span.to_dict()
            assert payload["kind"] == "repro.obs/gcs_view_span"
            json.dumps(payload)

    def test_open_views_exposes_live_agreement_windows(self):
        from types import SimpleNamespace

        from repro.obs.causal import GCSViewSpans, VIEW_AGREED

        spans = GCSViewSpans()
        cluster = SimpleNamespace(
            ticks=0,
            topology=SimpleNamespace(is_crashed=lambda pid: False),
        )
        event = SimpleNamespace(view_id=(1, 0), members=(0, 1, 2))
        spans.on_gcs_event(cluster, 0, event)
        cluster.ticks = 2
        spans.on_gcs_event(cluster, 1, event)
        # Two of three members installed: the window is live, showing
        # exactly who the cluster is still waiting on.
        assert spans.open_views() == [{
            "view_id": [1, 0],
            "members": [0, 1, 2],
            "open_tick": 0,
            "installed": [0, 1],
        }]
        cluster.ticks = 5
        spans.on_gcs_event(cluster, 2, event)
        # The last member closes the window: nothing live any more,
        # and the finalized span records the agreement.
        assert spans.open_views() == []
        assert spans.spans[-1].outcome == VIEW_AGREED
        assert spans.spans[-1].close_tick == 5


# ----------------------------------------------------------------------
# The explain CLI.
# ----------------------------------------------------------------------


class TestExplainCLI:
    def test_live_explain_prints_forensics(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "explain", "ykd",
            "--processes", "5", "--changes", "3", "--runs", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "availability forensics" in out
        assert "blame" in out

    def test_explain_writes_and_replays_artifacts(self, capsys, tmp_path):
        from repro.experiments.cli import main

        trace = tmp_path / "case.trace.jsonl"
        spans = tmp_path / "case.spans.jsonl"
        html = tmp_path / "report.html"
        assert main([
            "explain", "ykd",
            "--processes", "5", "--changes", "3", "--runs", "6",
            "--trace-out", str(trace),
            "--spans-out", str(spans),
            "--html", str(html),
        ]) == 0
        capsys.readouterr()
        assert html.read_text(encoding="utf-8").startswith("<!doctype html>")
        # Replaying the written trace reconstructs the same span file.
        assert main(["explain", "--replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "availability forensics" in out
        offline = spans_from_jsonl(trace.read_text(encoding="utf-8"))
        assert spans_to_jsonl(offline) == spans.read_text(encoding="utf-8")

    def test_explain_replays_repro_files(self, capsys):
        from repro.experiments.cli import main

        path = CORPUS_FILES[0]
        assert main(["explain", "ykd", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "availability forensics" in out
