"""Repro files and the seed-corpus regression runner.

A *repro file* is one minimized fault schedule frozen as JSON, together
with the expectation it must keep meeting:

* ``expect: "pass"`` — a schedule that once looked dangerous (or
  exercised a fixed bug) and must now replay cleanly under every listed
  algorithm; the committed corpus under ``tests/corpus/`` is of this
  kind and runs in CI forever.
* ``expect: "violation"`` — a schedule that must keep failing; used by
  fixtures with deliberately broken algorithms to prove the harness
  still detects what it is supposed to detect.

Serialization is canonical (sorted keys), so regenerating a repro from
the same plan yields byte-identical files — diffs stay reviewable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.check.differential import DifferentialReport, check_plan
from repro.check.plan import (
    PLAN_FORMAT_VERSION,
    PlanError,
    SchedulePlan,
    plan_from_dict,
    plan_to_dict,
)
from repro.obs.canonical import write_text

REPRO_KIND = "repro.check/repro"
EXPECT_PASS = "pass"
EXPECT_VIOLATION = "violation"


@dataclass(frozen=True)
class ReproFile:
    """One repro: the plan, who to run it under, and the expectation."""

    plan: SchedulePlan
    #: Algorithms to replay; None means every registered algorithm.
    algorithms: Optional[Tuple[str, ...]] = None
    expect: str = EXPECT_PASS
    note: str = ""

    def __post_init__(self) -> None:
        if self.expect not in (EXPECT_PASS, EXPECT_VIOLATION):
            raise PlanError(f"unknown expectation {self.expect!r}")
        if self.algorithms is not None:
            # Canonical order: serialization is sorted, so equality
            # must not depend on how the caller listed the names.
            object.__setattr__(self, "algorithms", tuple(sorted(self.algorithms)))


def repro_to_dict(repro: ReproFile) -> Dict[str, Any]:
    """JSON-compatible form of a repro file."""
    return {
        "kind": REPRO_KIND,
        "format": PLAN_FORMAT_VERSION,
        "plan": plan_to_dict(repro.plan),
        "algorithms": sorted(repro.algorithms) if repro.algorithms else None,
        "expect": repro.expect,
        "note": repro.note,
    }


def repro_from_dict(data: Mapping[str, Any]) -> ReproFile:
    """Inverse of :func:`repro_to_dict`."""
    if data.get("kind") != REPRO_KIND:
        raise PlanError(f"not a repro file (kind={data.get('kind')!r})")
    algorithms = data.get("algorithms")
    return ReproFile(
        plan=plan_from_dict(data["plan"]),
        algorithms=tuple(algorithms) if algorithms else None,
        expect=str(data.get("expect", EXPECT_PASS)),
        note=str(data.get("note", "")),
    )


def write_repro(path: Path, repro: ReproFile) -> Path:
    """Serialize one repro canonically; returns the written path."""
    text = json.dumps(repro_to_dict(repro), sort_keys=True, indent=2) + "\n"
    return write_text(path, text)


def load_repro(path: Path) -> ReproFile:
    """Parse one repro file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise PlanError(f"{path}: not valid JSON ({error})") from error
    return repro_from_dict(data)


def run_repro(
    repro: ReproFile, algorithms: Optional[Sequence[str]] = None
) -> Tuple[bool, DifferentialReport]:
    """Replay one repro; returns (expectation met, full report).

    ``algorithms`` overrides the file's own list (the CLI's
    ``--algorithms`` flag); otherwise the file decides.
    """
    names = (
        list(algorithms)
        if algorithms is not None
        else (list(repro.algorithms) if repro.algorithms else None)
    )
    report = check_plan(repro.plan, names)
    met = report.ok if repro.expect == EXPECT_PASS else not report.ok
    return met, report


@dataclass
class CorpusResult:
    """Outcome of replaying a whole corpus directory."""

    directory: Path
    #: (path, expectation met, report) per repro, in sorted path order.
    entries: List[Tuple[Path, bool, DifferentialReport]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return all(met for _, met, _ in self.entries)

    @property
    def regressions(self) -> List[Tuple[Path, DifferentialReport]]:
        return [(path, report) for path, met, report in self.entries if not met]

    def describe(self) -> str:
        """Human-readable corpus summary."""
        lines = [
            f"corpus {self.directory}: {len(self.entries)} repros, "
            f"{len(self.regressions)} regressions"
        ]
        for path, report in self.regressions:
            lines.append(f"REGRESSION {path.name}:\n{report.describe()}")
        return "\n".join(lines)


def run_corpus(
    directory: Path, algorithms: Optional[Sequence[str]] = None
) -> CorpusResult:
    """Replay every ``*.json`` repro in a directory, sorted by name.

    An unreadable or malformed file counts as a regression — a corpus
    that silently skips entries is not a regression suite.
    """
    directory = Path(directory)
    result = CorpusResult(directory=directory)
    for path in sorted(directory.glob("*.json")):
        try:
            repro = load_repro(path)
        except PlanError as error:
            result.entries.append(
                (
                    path,
                    False,
                    DifferentialReport(
                        plan=SchedulePlan(n_processes=2, steps=()),
                        divergences=[f"unloadable repro: {error}"],
                    ),
                )
            )
            continue
        met, report = run_repro(repro, algorithms)
        result.entries.append((path, met, report))
    return result
