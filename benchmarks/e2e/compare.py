"""Compare two sets of runs (``run.py --runs N --out X.json``), or show one.

    python3 benchmarks/e2e/compare.py A.json            # medians and spreads
    python3 benchmarks/e2e/compare.py A.json B.json     # B against A

Per workload and end-to-end metric: each set's median, its spread (the
distance between the quartiles of its runs, as a share of the median)
and how much worse B's median is than A's, against the bound ``spec.py``
fixes.  Verdicts:

``within``      B is not worse than A by more than the bound.
``REGRESSED``   it is.
``unresolved``  a set's spread exceeds the bound, so the medians cannot
                be told apart -- unless every run of B reads better than
                every run of A, which is ``better``.
``steady?``     (one file) the spread exceeds a third of the bound.

The exact counts of runs with equal seeds must agree exactly
(``DIFFERS`` otherwise).  Exit code 1 on any ``REGRESSED`` or
``DIFFERS``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402

#: name -> (better, bound), over contract and workload-specific metrics.
BOUNDS: Dict[str, Tuple[str, float]] = {
    **{name: (better, bound) for name, _, better, bound in spec.END_TO_END},
    **{name: (better, bound)
       for name, _, better, bound, _ in spec.EXTRA_END_TO_END},
}


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 if undefined)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def series(data: Dict[str, Any]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run, in run order."""
    found: Dict[Tuple[str, str], List[float]] = {}
    for run in data["runs"]:
        for workload, result in run["workloads"].items():
            for name, value in result["metrics"].items():
                found.setdefault((workload, name), []).append(value)
    return found


def worse_by(name: str, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``
    (negative: better; absolute difference when ``a`` is 0)."""
    better, _ = BOUNDS[name]
    delta = (b - a) if better == "lower" else (a - b)
    return delta / abs(a) if a else delta


def verdict(name: str, a: List[float], b: List[float]) -> str:
    better, bound = BOUNDS[name]
    if max(spread(a), spread(b)) > bound > 0:
        separated = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "better" if separated else "unresolved"
    worse = worse_by(name, statistics.median(a), statistics.median(b))
    return "REGRESSED" if worse > bound else "within"


def compare_counts(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Exact counts of runs that used the same seed, side by side."""
    by_seed = {run["seed"]: run for run in b["runs"]}
    lines = []
    for run in a["runs"]:
        other = by_seed.get(run["seed"])
        if other is None:
            continue
        for workload, result in run["workloads"].items():
            theirs = other["workloads"].get(workload, {}).get("counts", {})
            for key, value in result["counts"].items():
                if key in theirs and theirs[key] != value:
                    lines.append(
                        f"DIFFERS  {workload} seed {run['seed']} {key}: "
                        f"{value} vs {theirs[key]}"
                    )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?")
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text())
    a_series = series(a)
    if args.b is None:
        print(f"{'workload':<19}{'metric':<20}{'median':>14} {'unit':<6}"
              f"{'spread':>8}{'bound':>7}  runs")
        for (workload, name), values in a_series.items():
            _, bound = BOUNDS[name]
            flag = "  steady?" if spread(values) > bound / 3 > 0 else ""
            print(f"{workload:<19}{name:<20}{statistics.median(values):>14.4f} "
                  f"{spec.UNITS[name]:<6}{spread(values):>8.1%}{bound:>7.0%}"
                  f"  {len(values)}{flag}")
        return 0

    b = json.loads(args.b.read_text())
    b_series = series(b)
    print(f"A: {a['environment']}\nB: {b['environment']}")
    print(f"{'workload':<19}{'metric':<20}{'A median':>13}{'B median':>13} "
          f"{'unit':<6}{'worse by':>9}{'bound':>7}{'spread A':>9}{'B':>7}  verdict")
    bad = 0
    for key, a_values in a_series.items():
        b_values = b_series.get(key)
        if not b_values:
            continue
        workload, name = key
        result = verdict(name, a_values, b_values)
        bad += result == "REGRESSED"
        a_median = statistics.median(a_values)
        b_median = statistics.median(b_values)
        print(f"{workload:<19}{name:<20}{a_median:>13.4f}{b_median:>13.4f} "
              f"{spec.UNITS[name]:<6}{worse_by(name, a_median, b_median):>9.1%}"
              f"{BOUNDS[name][1]:>7.0%}{spread(a_values):>9.1%}"
              f"{spread(b_values):>7.1%}  {result}")
    differing = compare_counts(a, b)
    print("\n".join(differing) if differing
          else "exact counts of equal seeds: all equal")
    return 1 if bad or differing else 0


if __name__ == "__main__":
    sys.exit(main())
