"""The scenario runner, the blame classifier and the canonical report.

Pins the tentpole's acceptance criteria: a fault-free schedule yields
100% user-perceived availability; the same seeded scenario replays to
a byte-identical report; and every unserved request lands in exactly
one causal blame category whose counts sum to the unserved total.
Also pins the report and telemetry bytes under each stock schedule,
and the work one scenario does: one generation of the op stream, one
replica lookup per client and storm epoch.
"""

import gc
import hashlib
import json
import weakref
from pathlib import Path

import pytest

from repro.gcs.proc.schedule import STOCK_SCHEDULES, generated_schedule
from repro.obs.causal.spans import (
    BLAME_AMBIGUOUS,
    BLAME_IN_FLIGHT,
    BLAME_NO_QUORUM,
)
from repro.obs.telemetry.collector import TelemetryCollector
from repro.service import (
    BLAME_PRIMARY_UNREACHABLE,
    LoadProfile,
    REPORT_KIND,
    SERVICE_BLAME_CATEGORIES,
    classify_unserved,
    describe_report,
    render_report,
    run_scenario,
    workload,
    workload_digest,
)
from repro.service import load, scenario
from repro.service.cluster import StoreCluster
from repro.service.load import storm_ticks
from repro.service.scenario import WARMUP_TICKS, stage_start_ticks

PROFILE = LoadProfile(clients=4, ticks=60, seed=3)

#: Cheap, but it storms twice, bursts and leaves requests unserved
#: under every stock schedule.
GOLDEN_PROFILE = LoadProfile(clients=6, ticks=90, put_permille=800, seed=4)
GOLDEN = Path(__file__).parent / "golden" / "service_scenario_digests.json"


class TestBlameClassifier:
    VIEWS_AGREED = {0: (0, 1), 1: (0, 1), 2: (2, 3, 4), 3: (2, 3, 4),
                    4: (2, 3, 4)}

    def test_reachable_claimant_is_an_install_race(self):
        category = classify_unserved(
            5, {2, 3, 4}, {2, 3, 4}, self.VIEWS_AGREED
        )
        assert category == BLAME_IN_FLIGHT

    def test_unreachable_claimant_blames_the_partition(self):
        category = classify_unserved(5, {0, 1}, {2, 3, 4}, self.VIEWS_AGREED)
        assert category == BLAME_PRIMARY_UNREACHABLE

    def test_minority_side_can_never_form_a_primary(self):
        assert classify_unserved(
            5, {0, 1}, (), self.VIEWS_AGREED
        ) == BLAME_NO_QUORUM
        # Exactly half is still not a quorum.
        assert classify_unserved(
            4, {0, 1}, (), {0: (0, 1), 1: (0, 1)}
        ) == BLAME_NO_QUORUM

    def test_disagreeing_views_mean_a_transition_in_flight(self):
        views = {2: (0, 1, 2, 3, 4), 3: (2, 3, 4), 4: (2, 3, 4)}
        assert classify_unserved(
            5, {2, 3, 4}, (), views
        ) == BLAME_IN_FLIGHT

    def test_agreed_majority_without_a_claimant_is_ambiguous(self):
        views = {2: (2, 3, 4), 3: (2, 3, 4), 4: (2, 3, 4)}
        assert classify_unserved(
            5, {2, 3, 4}, (), views
        ) == BLAME_AMBIGUOUS


class TestFaultFreeBaseline:
    def test_fault_free_schedule_is_100_percent_available(self):
        # The pinned acceptance criterion: with no partitions, every
        # single request is served — user-perceived availability is
        # exactly 100%, matching round-level.
        report = run_scenario(PROFILE)
        availability = report["availability"]
        assert availability["user_perceived_percent"] == 100.0
        assert availability["round_level_percent"] == 100.0
        assert report["requests"]["unserved"]["total"] == 0
        assert report["schedule"] is None


class TestPartitionedScenario:
    @pytest.fixture(scope="class")
    def report(self):
        return run_scenario(
            PROFILE, schedule=STOCK_SCHEDULES["split_restore"]
        )

    def test_report_identity_and_workload_digest(self, report):
        assert report["kind"] == REPORT_KIND
        assert report["workload_digest"] == workload_digest(PROFILE)
        assert report["profile"] == PROFILE.to_dict()
        assert report["schedule"] == "split_restore"

    def test_every_request_is_accounted_for(self, report):
        requests = report["requests"]
        served = requests["served"]
        total_served = (
            served["gets"] + served["puts_direct"] + served["puts_redirected"]
        )
        assert total_served + requests["unserved"]["total"] == (
            requests["total"]
        )
        assert requests["total"] == len(workload(PROFILE))

    def test_blame_breakdown_covers_every_category_and_sums(self, report):
        by_category = report["requests"]["unserved"]["by_category"]
        assert tuple(by_category) == SERVICE_BLAME_CATEGORIES
        assert sum(by_category.values()) == (
            report["requests"]["unserved"]["total"]
        )
        # The split fences a minority while a primary exists elsewhere:
        # the category round-level accounting cannot see must show up.
        assert by_category[BLAME_PRIMARY_UNREACHABLE] > 0

    def test_user_perceived_availability_undershoots_round_level(
        self, report
    ):
        availability = report["availability"]
        assert (
            availability["user_perceived_percent"]
            < availability["round_level_percent"]
        )

    def test_stage_rows_tile_the_run(self, report):
        rows = report["stages"]
        assert [row["stage"] for row in rows] == [0, 1, 2]
        assert sum(row["ticks"] for row in rows) == PROFILE.ticks
        assert sum(row["requests"] for row in rows) == (
            report["requests"]["total"]
        )
        assert sum(row["unserved"] for row in rows) == (
            report["requests"]["unserved"]["total"]
        )

    def test_replay_is_byte_identical(self, report):
        replay = run_scenario(
            PROFILE, schedule=STOCK_SCHEDULES["split_restore"]
        )
        assert render_report(replay) == render_report(report)

    def test_describe_is_terminal_friendly(self, report):
        text = describe_report(report)
        assert "user-perceived availability" in text
        assert "split_restore" in text


class TestGeneratedSchedules:
    def test_generated_schedule_runs_and_replays(self):
        schedule = generated_schedule(4)
        first = run_scenario(PROFILE, schedule=schedule)
        second = run_scenario(PROFILE, schedule=schedule)
        assert render_report(first) == render_report(second)
        assert first["n_processes"] == schedule.n_processes


class TestStageTiming:
    def test_stage_starts_partition_the_tick_range(self):
        assert stage_start_ticks(3, 60) == [0, 20, 40]
        assert stage_start_ticks(1, 10) == [0]
        assert stage_start_ticks(4, 10) == [0, 2, 5, 7]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestScenarioGolden:
    """SHA-256 of the rendered report and of the aggregated telemetry
    stream per stock schedule, recorded before the scenario generated
    its op stream once and pinned clients once per storm epoch."""

    def test_golden_profile_is_the_one_recorded(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert golden["profile"] == GOLDEN_PROFILE.to_dict()

    @pytest.mark.parametrize(
        "name", ["split_restore", "cascade", "flip_flop"]
    )
    def test_report_and_telemetry_match_the_golden(self, name):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
        schedule = STOCK_SCHEDULES[name]
        report = run_scenario(GOLDEN_PROFILE, schedule=schedule)
        collector = TelemetryCollector()
        run_scenario(GOLDEN_PROFILE, schedule=schedule, collector=collector)
        assert _sha256(render_report(report)) == golden["report"]
        assert _sha256(collector.aggregated_jsonl()) == golden["telemetry"]


class TestWorkCount:
    def test_one_generation_and_one_pin_per_client_epoch(self, monkeypatch):
        calls = {"workload": 0, "replica_for": 0}
        real_workload, real_replica_for = load.workload, scenario.replica_for

        def counting_workload(profile):
            calls["workload"] += 1
            return real_workload(profile)

        def counting_replica_for(*args):
            calls["replica_for"] += 1
            return real_replica_for(*args)

        # The module globals the benchmark's tracer wraps, too.
        monkeypatch.setattr(load, "workload", counting_workload)
        monkeypatch.setattr(scenario, "replica_for", counting_replica_for)
        run_scenario(GOLDEN_PROFILE, schedule=STOCK_SCHEDULES["cascade"])
        assert calls["workload"] == 1
        storms = storm_ticks(GOLDEN_PROFILE)
        assert 0 < calls["replica_for"] <= GOLDEN_PROFILE.clients * (
            1 + len(storms)
        )


class TestClusterLifetime:
    @pytest.mark.parametrize("record_flight", [False, True])
    def test_a_dropped_cluster_needs_no_cycle_collection(self, record_flight):
        # Every scenario drops its cluster; when the cluster sits in a
        # reference cycle its memory waits for the cycle collector,
        # and the process's peak memory rises with every scenario run.
        enabled = gc.isenabled()
        gc.disable()
        try:
            cluster = StoreCluster(3, record_flight=record_flight)
            cluster.apply_stage(((0, 1, 2),))
            cluster.warm_up(max_ticks=WARMUP_TICKS)
            substrate = weakref.ref(cluster.service.cluster)
            del cluster
            assert substrate() is None
        finally:
            if enabled:
                gc.enable()
