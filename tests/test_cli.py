"""Tests for the repro-experiments command-line interface."""

import json

import pytest

from repro.core.registry import algorithm_names
from repro.experiments.cli import COMMANDS, main
from repro.experiments.runner import batched_fallback_reason


class TestList:
    def test_lists_experiments_and_scales(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4_1" in out
        assert "tab_rounds" in out
        assert "smoke" in out and "paper" in out


class TestRun:
    def test_runs_one_experiment(self, capsys):
        assert main(["run", "tab_rounds", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Message rounds" in out
        assert "tab_rounds done" in out

    def test_csv_export(self, capsys, tmp_path):
        assert main(
            ["run", "fig4_1", "--scale", "smoke", "--csv", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "csv written" in out
        assert (tmp_path / "fig4_1.csv").exists()

    def test_seed_option(self, capsys):
        assert main(["run", "tab_rounds", "--scale", "smoke", "--seed", "5"]) == 0

    def test_batched_kernel_says_nothing_where_it_runs(self, capsys):
        argv = ["run", "fig4_1", "--scale", "smoke", "--kernel", "batched"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "Figure 4-1" in captured.out

    def test_batched_kernel_names_its_scalar_fallback(self, capsys):
        argv = ["run", "fig4_4", "--scale", "smoke"]
        assert main(argv) == 0
        scalar = capsys.readouterr()
        assert scalar.err == ""
        assert main(argv + ["--kernel", "batched"]) == 0
        batched = capsys.readouterr()
        (note,) = batched.err.splitlines()
        assert note.startswith("note: fig4_4: runs on the scalar driver — ")
        assert "cascading cases thread algorithm state" in note
        # Same figure; the last line times the run.
        assert batched.out.splitlines()[:-2] == scalar.out.splitlines()[:-2]

    @pytest.mark.parametrize(
        "experiment_id,options,reason",
        [
            ("fig4_1", {}, None),
            ("fig4_5", {}, "cascading cases"),
            ("tab_rounds", {}, "rounds experiments read statistics"),
            ("fig4_7", {}, "ambiguous experiments read statistics"),
            ("fig4_1", {"collect_metrics": True}, "collect_metrics"),
            ("fig4_1", {"recorded": True}, "observers"),
        ],
    )
    def test_every_way_off_the_batched_surface_has_a_reason(
        self, experiment_id, options, reason
    ):
        found = batched_fallback_reason(experiment_id, "paper", **options)
        if reason is None:
            assert found is None
        else:
            assert reason in found

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "fig9_9"])

    def test_unknown_scale_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "fig4_1", "--scale", "galactic"])


class TestCompare:
    def test_paired_comparison_output(self, capsys):
        assert main([
            "compare", "ykd", "dfls",
            "--processes", "6", "--changes", "6", "--rate", "1",
            "--runs", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "paired runs" in out
        assert "ykd" in out and "dfls" in out
        assert "mid-p" in out

    def test_cascading_mode(self, capsys):
        assert main([
            "compare", "ykd", "one_pending",
            "--processes", "6", "--changes", "4", "--rate", "1",
            "--runs", "30", "--mode", "cascading",
        ]) == 0
        assert "cascading mode" in capsys.readouterr().out

    def test_batched_kernel_identical_output(self, capsys):
        argv = [
            "compare", "ykd", "dfls",
            "--processes", "6", "--changes", "6", "--rate", "1",
            "--runs", "40",
        ]
        assert main(argv) == 0
        scalar_out = capsys.readouterr().out
        assert main(argv + ["--kernel", "batched"]) == 0
        assert capsys.readouterr().out == scalar_out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "ykd", "paxos"])


class TestTrace:
    def test_timeline_output(self, capsys):
        assert main([
            "trace", "ykd", "--processes", "4", "--changes", "2",
            "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "run 0 begins" in out
        assert "outcome:" in out
        assert "view#" in out


class TestPlotFlag:
    def test_run_with_plot(self, capsys):
        assert main(["run", "fig4_1", "--scale", "smoke", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "mean message rounds between connectivity changes" in out


class TestVerify:
    def test_exhaustive_check_passes(self, capsys):
        assert main([
            "verify", "ykd", "--processes", "3", "--depth", "1",
            "--gaps", "0", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenarios" in out
        assert "all invariants held" in out

    def test_max_scenarios_option(self, capsys):
        assert main([
            "verify", "mr1p", "--processes", "3", "--depth", "2",
            "--gaps", "0", "--max-scenarios", "20",
        ]) == 0
        assert "truncated" in capsys.readouterr().out

    def test_stats_out_artifact(self, capsys, tmp_path):
        from dataclasses import fields

        from repro.sim.explore import ExploreStats, explore_replay

        path = tmp_path / "stats.json"
        assert main([
            "verify", "all", "--processes", "3", "--depth", "1",
            "--gaps", "0", "1", "--stats-out", str(path),
        ]) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {
            "kind", "processes", "depth", "gaps", "algorithms"
        }
        assert (payload["processes"], payload["depth"], payload["gaps"]) == (
            3, 1, [0, 1]
        )
        assert set(payload["algorithms"]) == set(algorithm_names())
        stat_names = {f.name for f in fields(ExploreStats)}
        for algorithm, entry in payload["algorithms"].items():
            reference = explore_replay(
                algorithm, n_processes=3, depth=1, gap_options=(0, 1)
            )
            assert (entry["scenarios"], entry["available"]) == (
                reference.scenarios, reference.available
            )
            assert set(entry["stats"]) == stat_names

        def keys(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from keys(value)
            elif isinstance(node, list):
                for value in node:
                    yield from keys(value)

        assert "workers" not in set(keys(payload))

    def test_sharding_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "ykd", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


class TestSoak:
    def test_endurance_trial(self, capsys):
        assert main([
            "soak", "ykd", "--changes", "300", "--processes", "5",
            "--rate", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "soak complete" in out
        assert "every invariant intact" in out


class TestCheck:
    def test_fuzz_smoke(self, capsys):
        assert main(["check", "--schedules", "15", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fuzzed 15 schedules" in out
        assert "0 failing" in out

    def test_fuzz_finds_and_shrinks_injected_bug(
        self, capsys, tmp_path, broken_majority
    ):
        assert main([
            "check", "--schedules", "30", "--seed", "0",
            "--algorithms", "broken_majority",
            "--shrink", "--save-repros", str(tmp_path),
        ]) == 1
        out = capsys.readouterr().out
        assert "minimized" in out
        assert "repro written" in out
        assert list(tmp_path.glob("*.json"))

    def test_replay_matching_expectation(self, capsys, tmp_path):
        from repro.check import ReproFile, write_repro
        from repro.check.plan import plan_from_json

        plan = plan_from_json(
            '{"format": 1, "n_processes": 4, "steps": [{"gap": 0, "late": [],'
            ' "change": {"kind": "partition", "component": [0, 1, 2, 3],'
            ' "moved": [1, 2]}}]}'
        )
        path = write_repro(tmp_path / "r.json", ReproFile(plan=plan))
        assert main(["check", "--replay", str(path)]) == 0
        assert "matches" in capsys.readouterr().out

    def test_replay_unmet_expectation_fails(
        self, capsys, tmp_path, broken_majority
    ):
        from repro.check import ReproFile, write_repro
        from repro.check.corpus import EXPECT_PASS
        from tests.test_check_corpus import EVEN_SPLIT

        path = write_repro(
            tmp_path / "r.json",
            ReproFile(
                plan=EVEN_SPLIT,
                algorithms=("broken_majority",),
                expect=EXPECT_PASS,
            ),
        )
        assert main(["check", "--replay", str(path)]) == 1
        assert "DOES NOT match" in capsys.readouterr().out

    def test_corpus_regression_run(self, capsys):
        assert main(["check", "--corpus", "tests/corpus"]) == 0
        out = capsys.readouterr().out
        assert "0 regressions" in out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--algorithms", "paxos"])


class TestProfile:
    def test_profile_smoke(self, capsys):
        assert main([
            "profile", "ykd",
            "--processes", "8", "--changes", "3", "--runs", "20",
        ]) == 0
        out = capsys.readouterr().out
        for phase in ("poll", "cut", "deliver", "views", "observe"):
            assert phase in out
        assert "us/call" in out

    def test_profile_metrics_out(self, capsys, tmp_path):
        path = tmp_path / "profile.jsonl"
        assert main([
            "profile", "ykd",
            "--processes", "8", "--changes", "3", "--runs", "20",
            "--metrics-out", str(path),
        ]) == 0
        from repro.obs import load_metrics_jsonl

        registry = load_metrics_jsonl(path)
        assert registry.get(
            "profiled_runs", {"algorithm": "ykd", "mode": "fresh"}
        ).value == 20
        assert any(s.name == "runs_total" for s in registry.series())


class TestMetricsOut:
    def test_run_with_metrics_jsonl(self, capsys, tmp_path):
        path = tmp_path / "metrics.jsonl"
        assert main([
            "run", "fig4_1", "--scale", "smoke",
            "--metrics-out", str(path),
        ]) == 0
        assert "metrics written" in capsys.readouterr().out
        from repro.obs import load_metrics_jsonl

        assert len(load_metrics_jsonl(path)) > 0

    def test_run_with_metrics_csv(self, capsys, tmp_path):
        path = tmp_path / "metrics.csv"
        assert main([
            "run", "fig4_1", "--scale", "smoke",
            "--metrics-out", str(path),
        ]) == 0
        assert path.read_text().startswith("name,type,labels,")

    def test_non_campaign_experiment_reports_no_metrics(self, capsys, tmp_path):
        path = tmp_path / "metrics.jsonl"
        assert main([
            "run", "tab_rounds", "--scale", "smoke",
            "--metrics-out", str(path),
        ]) == 0
        assert "not campaign-backed" in capsys.readouterr().out
        assert not path.exists()


class TestLoad:
    def test_load_runs_and_verifies_replay(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main([
            "load", "--seed", "3", "--clients", "4", "--ticks", "60",
            "--schedule", "split_restore", "--verify-replay",
            "--report-out", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "user-perceived availability" in out
        assert "replay verified: byte-identical report" in out
        assert report_path.exists()
        import json

        report = json.loads(report_path.read_text())
        assert report["kind"] == "repro.service/availability_report"
        assert report["schedule"] == "split_restore"

    def test_load_fault_free_baseline(self, capsys):
        assert main([
            "load", "--clients", "4", "--ticks", "40",
            "--schedule", "none",
        ]) == 0
        out = capsys.readouterr().out
        assert "100.00%" in out

    def test_load_ops_out(self, capsys, tmp_path):
        ops_path = tmp_path / "ops.json"
        assert main([
            "load", "--clients", "2", "--ticks", "20",
            "--schedule", "none", "--replicas", "3",
            "--ops-out", str(ops_path),
        ]) == 0
        import json

        ops = json.loads(ops_path.read_text())
        assert ops["kind"] == "repro.service/ops"
        assert [node["pid"] for node in ops["nodes"]] == [0, 1, 2]

    def test_load_unknown_schedule_exits_2(self, capsys):
        assert main(["load", "--schedule", "bogus"]) == 2
        assert "unknown schedule" in capsys.readouterr().err

    def test_load_bad_profile_exits_2(self, capsys):
        assert main(["load", "--clients", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestServe:
    def test_serve_smoke_memory_backend(self, capsys):
        assert main([
            "serve", "--replicas", "3", "--smoke",
        ]) == 0
        out = capsys.readouterr().out
        assert "replica 0 on http://" in out
        assert "smoke passed" in out


class TestGcs:
    def test_help_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["gcs", "--help"])
        assert exit_info.value.code == 0
        assert "usage: repro-experiments gcs" in capsys.readouterr().out

    def test_unknown_schedule_exits_2_without_spawning(
        self, capsys, monkeypatch
    ):
        from repro.gcs.proc import controller

        def refuse(*args, **kwargs):
            raise AssertionError("no node process may be spawned")

        monkeypatch.setattr(controller.ProcCluster, "__init__", refuse)
        monkeypatch.setattr(controller, "run_differential", refuse)
        assert main(["gcs", "--schedule", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown schedule 'nope'")
        assert captured.out == ""


class TestRegistry:
    """Every subcommand is one complete record, dispatched by ``main``."""

    def test_the_fourteen_subcommands(self):
        assert [name for name, *_ in COMMANDS] == [
            "list", "run", "all", "compare", "soak", "verify", "trace",
            "profile", "check", "explain", "serve", "load", "telemetry",
            "gcs",
        ]

    @pytest.mark.parametrize(
        "record", COMMANDS, ids=[name for name, *_ in COMMANDS]
    )
    def test_entry_is_complete(self, record, capsys):
        # main() builds its parser from COMMANDS and dispatches through
        # the record's run, so a complete record cannot go undispatched.
        name, help_text, configure, run = record
        assert help_text.strip()
        assert callable(configure) and callable(run)
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: repro-experiments {name}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "ykd", "dfls", "--runs", "0"],
        ["compare", "ykd", "dfls", "--processes", "1"],
        ["trace", "ykd", "--processes", "1"],
        ["compare", "ykd", "dfls", "--changes", "-1"],
        ["profile", "ykd", "--every", "0"],
        ["verify", "ykd", "--processes", "1"],
        ["verify", "ykd", "--depth", "0"],
        ["verify", "ykd", "--gaps", "0", "-1"],
        ["verify", "ykd", "--max-scenarios", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_case_parameters_exit_2(argv, capsys):
    """Bad input is exit code 2 and one ``error:`` line, not a traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "error: argument" in capsys.readouterr().err
