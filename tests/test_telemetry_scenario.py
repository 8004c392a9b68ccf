"""End-to-end telemetry over a seeded partitioned scenario.

The acceptance criteria of the distributed-telemetry plane, pinned:

* two runs of the same seeded partitioned load produce **byte
  identical** aggregated telemetry JSONL — trace ids included;
* telemetry observes without perturbing: the availability report with
  a collector equals the report without one;
* the trace ids stamped on replica store ops are exactly the load
  generator's pure-hash mints, so a request can be followed across the
  process boundary by grepping one id.
"""

import json

from repro.gcs.proc.schedule import STOCK_SCHEDULES
from repro.obs.telemetry import (
    FLIGHT_HEADER_KIND,
    TelemetryCollector,
    mint_trace_id,
    parse_flight_jsonl,
    render_prometheus,
)
from repro.service.load import LoadProfile
from repro.service.scenario import run_scenario

PROFILE = dict(seed=11, clients=4, ticks=80)
SCHEDULE = STOCK_SCHEDULES["split_restore"]


def run_collected():
    collector = TelemetryCollector()
    report = run_scenario(
        LoadProfile(**PROFILE), schedule=SCHEDULE, collector=collector
    )
    return report, collector


class TestReplayDeterminism:
    def test_aggregated_jsonl_is_byte_identical_across_runs(self):
        _, first = run_collected()
        _, second = run_collected()
        assert first.aggregated_jsonl() == second.aggregated_jsonl()
        assert first.aggregated_digest() == second.aggregated_digest()

    def test_prometheus_fold_is_byte_identical_across_runs(self):
        _, first = run_collected()
        _, second = run_collected()
        assert render_prometheus(first.fold()) == render_prometheus(
            second.fold()
        )


class TestNonPerturbation:
    def test_report_is_unchanged_by_the_collector(self):
        bare = run_scenario(LoadProfile(**PROFILE), schedule=SCHEDULE)
        collected, _ = run_collected()
        assert bare == collected


class TestTracePropagation:
    def test_store_ops_carry_minted_trace_ids(self):
        _, collector = run_collected()
        headers, events = parse_flight_jsonl(collector.aggregated_jsonl())
        assert len(headers) == SCHEDULE.n_processes
        traced = [
            event
            for event in events
            if event["event"] in ("store_get", "store_put", "unserved")
        ]
        assert traced, "a loaded scenario must record store traffic"
        valid = {
            mint_trace_id(PROFILE["seed"], client, tick)
            for client in range(PROFILE["clients"])
            for tick in range(PROFILE["ticks"])
        }
        for event in traced:
            assert event["trace"] in valid

    def test_every_stream_has_a_header_and_ordered_seqs(self):
        _, collector = run_collected()
        lines = collector.aggregated_jsonl().splitlines()
        node = None
        last_seq = -1
        for line in lines:
            data = json.loads(line)
            if data["kind"] == FLIGHT_HEADER_KIND:
                node = data["node"]
                last_seq = -1
                continue
            assert data["node"] == node, "events must follow their header"
            assert data["seq"] > last_seq, "seqs must increase per stream"
            last_seq = data["seq"]

    def test_view_changes_recorded_through_the_partition(self):
        _, collector = run_collected()
        _, events = parse_flight_jsonl(collector.aggregated_jsonl())
        views = [event for event in events if event["event"] == "view_change"]
        # The split and the restore both force new views on every node.
        assert len(views) >= 2 * SCHEDULE.n_processes
        memberships = {tuple(event["members"]) for event in views}
        assert (0, 1) in memberships or (2, 3, 4) in memberships


class TestFoldedRegistry:
    def test_fold_counts_match_the_streams(self):
        report, collector = run_collected()
        folded = collector.fold()
        _, events = parse_flight_jsonl(collector.aggregated_jsonl())
        total = sum(
            series.value
            for series in folded.series()
            if series.name == "telemetry.flight.events"
        )
        assert total == len(events)
        served = report["requests"]["served"]["gets"]
        get_counter = folded.get("service.requests", {"outcome": "get"})
        assert get_counter is not None and get_counter.value == served

    def test_cli_metrics_out_is_the_fold(self, tmp_path, capsys):
        # Regression: ``telemetry --metrics-out`` rendered the noted
        # series only — the flight counters the fold adds never
        # reached the file its help text promises them in.
        from repro.experiments.cli import main

        path = tmp_path / "scrape.prom"
        code = main(
            [
                "telemetry", "--seed", "7", "--schedule", "split_restore",
                "--ticks", "60", "--metrics-out", str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        text = path.read_text(encoding="utf-8")
        assert "telemetry_flight_events" in text
        assert "service_requests" in text
