"""Tests for repro files and the committed seed-corpus regression run."""

from pathlib import Path

import pytest

from repro.check.corpus import (
    EXPECT_PASS,
    EXPECT_VIOLATION,
    ReproFile,
    load_repro,
    run_corpus,
    run_repro,
    write_repro,
)
from repro.check.plan import PlanError, PlanStep, SchedulePlan
from repro.experiments.cli import main
from repro.net.changes import MergeChange, PartitionChange

CORPUS_DIR = Path(__file__).parent / "corpus"

EVEN_SPLIT = SchedulePlan(
    n_processes=4,
    steps=(
        PlanStep(
            gap=0,
            change=PartitionChange(
                component=frozenset({0, 1, 2, 3}), moved=frozenset({1, 2})
            ),
            late=frozenset(),
        ),
    ),
)


class TestReproFiles:
    def test_write_load_round_trip(self, tmp_path):
        repro = ReproFile(
            plan=EVEN_SPLIT, algorithms=("ykd", "dfls"), note="round trip"
        )
        path = write_repro(tmp_path / "even_split.json", repro)
        assert load_repro(path) == repro

    def test_serialization_is_byte_stable(self, tmp_path):
        repro = ReproFile(plan=EVEN_SPLIT)
        first = write_repro(tmp_path / "a.json", repro).read_bytes()
        second = write_repro(tmp_path / "b.json", repro).read_bytes()
        assert first == second

    def test_unknown_expectation_rejected(self):
        with pytest.raises(PlanError, match="unknown expectation"):
            ReproFile(plan=EVEN_SPLIT, expect="maybe")

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PlanError, match="not valid JSON"):
            load_repro(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}', encoding="utf-8")
        with pytest.raises(PlanError, match="not a repro file"):
            load_repro(path)


class TestRunRepro:
    def test_pass_expectation_met_by_clean_algorithms(self):
        met, report = run_repro(ReproFile(plan=EVEN_SPLIT))
        assert met and report.ok

    def test_violation_expectation_met_by_broken_algorithm(
        self, broken_majority
    ):
        repro = ReproFile(
            plan=EVEN_SPLIT,
            algorithms=("broken_majority",),
            expect=EXPECT_VIOLATION,
        )
        met, report = run_repro(repro)
        assert met and not report.ok

    def test_violation_expectation_unmet_by_clean_algorithm(self):
        repro = ReproFile(
            plan=EVEN_SPLIT, algorithms=("ykd",), expect=EXPECT_VIOLATION
        )
        met, _ = run_repro(repro)
        assert not met

    def test_algorithm_override_wins_over_file(self, broken_majority):
        repro = ReproFile(
            plan=EVEN_SPLIT, algorithms=("broken_majority",)
        )
        met, _ = run_repro(repro, algorithms=["ykd"])
        assert met  # ykd passes where broken_majority would not


class TestRunCorpus:
    def test_committed_corpus_passes_for_all_algorithms(self):
        result = run_corpus(CORPUS_DIR)
        assert result.entries, "the committed seed corpus must not be empty"
        assert result.ok, result.describe()

    def test_regressions_are_reported(self, tmp_path, broken_majority):
        write_repro(
            tmp_path / "should_pass.json",
            ReproFile(
                plan=EVEN_SPLIT,
                algorithms=("broken_majority",),
                expect=EXPECT_PASS,
            ),
        )
        result = run_corpus(tmp_path)
        assert not result.ok
        assert len(result.regressions) == 1
        assert "REGRESSION" in result.describe()

    def test_unloadable_file_counts_as_regression(self, tmp_path):
        (tmp_path / "broken.json").write_text("{", encoding="utf-8")
        result = run_corpus(tmp_path)
        assert not result.ok

    def test_empty_directory_is_ok_but_empty(self, tmp_path):
        result = run_corpus(tmp_path)
        assert result.ok and not result.entries


#: JSON files that are not repro files, by the shape that is wrong.
MALFORMED = {
    "array": "[1,\n2]\n",
    "string": '"x"\n',
    "kind_only": '{"kind": "repro.check/repro"}\n',
    "plan_is_a_number": '{"kind": "repro.check/repro", "plan": 3}\n',
    "step_is_a_number": (
        '{"kind": "repro.check/repro",'
        ' "plan": {"format": 1, "n_processes": 3, "steps": [5]}}\n'
    ),
    "no_n_processes": (
        '{"kind": "repro.check/repro", "plan": {"format": 1, "steps": []}}\n'
    ),
}


@pytest.mark.parametrize("command", ["--replay", "--corpus"])
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_repro_is_refused_not_crashed_on(
    tmp_path, capsys, shape, command
):
    """``--replay`` exits 2 (bad input), ``--corpus`` lists the file as a
    regression and exits 1; neither raises."""
    path = tmp_path / f"{shape}.json"
    path.write_text(MALFORMED[shape], encoding="utf-8")
    if command == "--replay":
        assert main(["check", "--replay", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot load repro: ")
    else:
        assert main(["check", "--corpus", str(tmp_path)]) == 1
        assert "unloadable repro" in capsys.readouterr().out
