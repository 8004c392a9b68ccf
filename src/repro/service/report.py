"""The canonical availability report of one service scenario.

The report is the artifact the tentpole exists for: it contrasts the
thesis' round-level availability (did *a* primary exist this round?)
with user-perceived availability (did *my* request complete?), and
splits every unserved request across the causal blame categories of
:mod:`repro.service.blame`.  It is serialized through the repo's one
canonical JSON encoder, so running the same seeded scenario twice
produces byte-identical files — replayability is asserted, not hoped
for.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.canonical import canonical_json, write_text
from repro.service.blame import SERVICE_BLAME_CATEGORIES
from repro.service.load import LoadProfile

REPORT_KIND = "repro.service/availability_report"


def _percent(part: int, whole: int) -> float:
    return round(100.0 * part / whole, 4) if whole else 100.0


def build_report(
    profile: LoadProfile,
    algorithm: str,
    n_processes: int,
    schedule_name: Optional[str],
    workload_digest: str,
    served_gets: int,
    puts_direct: int,
    puts_redirected: int,
    unserved: Dict[str, int],
    rounds_with_primary: int,
    stages: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble the JSON-ready report from the scenario's counters.

    ``unserved`` may omit categories; the emitted breakdown always
    carries every category (zeroes included) so the schema never
    shifts under a reader.
    """
    served = served_gets + puts_direct + puts_redirected
    lost = sum(unserved.values())
    total = served + lost
    return {
        "kind": REPORT_KIND,
        "algorithm": algorithm,
        "n_processes": n_processes,
        "schedule": schedule_name,
        "profile": profile.to_dict(),
        "workload_digest": workload_digest,
        "requests": {
            "total": total,
            "served": {
                "gets": served_gets,
                "puts_direct": puts_direct,
                "puts_redirected": puts_redirected,
            },
            "unserved": {
                "by_category": {
                    category: unserved.get(category, 0)
                    for category in SERVICE_BLAME_CATEGORIES
                },
                "total": lost,
            },
        },
        "availability": {
            "user_perceived_percent": _percent(served, total),
            "round_level_percent": _percent(
                rounds_with_primary, profile.ticks
            ),
        },
        "stages": stages,
    }


def render_report(report: Dict[str, Any]) -> str:
    """The report as one canonical JSON line (byte-pinned framing)."""
    return canonical_json(report) + "\n"


def write_report(report: Dict[str, Any], path: Path) -> Path:
    """Write the canonical report text to ``path`` and return it."""
    return write_text(path, render_report(report))


def describe_report(report: Dict[str, Any]) -> str:
    """A terminal-friendly summary of the served/unserved split."""
    requests = report["requests"]
    availability = report["availability"]
    lines = [
        f"{report['algorithm']} over "
        f"{report['schedule'] or 'a fault-free schedule'}: "
        f"{requests['total']} requests",
        f"  served: {requests['served']['gets']} gets, "
        f"{requests['served']['puts_direct']} puts direct, "
        f"{requests['served']['puts_redirected']} puts redirected",
    ]
    by_category = requests["unserved"]["by_category"]
    breakdown = ", ".join(
        f"{category}={count}"
        for category, count in by_category.items()
        if count
    )
    lines.append(
        f"  unserved: {requests['unserved']['total']}"
        + (f" ({breakdown})" if breakdown else "")
    )
    lines.append(
        f"  user-perceived availability "
        f"{availability['user_perceived_percent']:.2f}% vs round-level "
        f"{availability['round_level_percent']:.2f}%"
    )
    return "\n".join(lines)
