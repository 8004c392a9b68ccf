"""The repository's benchmark: one command, every metric, checked outputs.

    python3 benchmarks/e2e/run.py                       # all 7 workloads
    python3 benchmarks/e2e/run.py --workload gcs_udp --seed 3 --trace 1
    python3 benchmarks/e2e/run.py --quick               # smoke, < 30 s
    python3 benchmarks/e2e/run.py --runs 10 --out A.json  # a set for compare.py

A run of a workload is ``REPEATS`` cold child processes, each measuring
``seconds / REPEATS``; with several workloads the repeats interleave
(A1 B1 .. G1 A2 B2 ..) so an interference burst is spread over all of
them.  Every repeat measures the same seed-determined units; each timed
call counts with its fastest repeat, rates are ops over the sum of
those times, latencies percentiles over them (or over the samples
pooled from all repeats, for open-loop requests), set-up the median
child.  ``--trace 1`` swaps the last repeat for a traced one and
reports the per-layer metrics instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every check passed and nothing was left running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import spec  # noqa: E402
from harness import percentile  # noqa: E402

#: Seconds a child may take beyond its measuring share (imports,
#: set-up, reference passes, checks) before it is killed.
CHILD_GRACE_S = 60.0


def best_calls(
    records: List[Dict[str, List[List[Optional[float]]]]]
) -> Dict[Tuple[str, int], Tuple[float, float]]:
    """(unit, call) -> the fastest (ops, ms) any repeat measured.

    Repeats run identical units, and on this kind of machine
    interference only ever slows a call down, so the fastest repeat is
    the least disturbed one.  A repeat that left a call's op count to
    another repeat (``None``) borrows it; calls nobody counted drop out.
    """
    seen: Dict[Tuple[str, int], List[Tuple[Optional[float], float]]] = {}
    for record in records:
        for unit, calls in record.items():
            for index, (ops, ms) in enumerate(calls):
                seen.setdefault((unit, index), []).append((ops, ms))
    best: Dict[Tuple[str, int], Tuple[float, float]] = {}
    for key, candidates in seen.items():
        counted = [ops for ops, _ in candidates if ops is not None]
        if not counted:
            continue
        filled = [
            (counted[0] if ops is None else ops, ms) for ops, ms in candidates
        ]
        best[key] = max(filled, key=lambda c: (c[0] / c[1], -c[1]))
    return best


def rate_per_s(calls: Dict[Any, Tuple[float, float]]) -> float:
    ms = sum(ms for _, ms in calls.values())
    return 1e3 * sum(ops for ops, _ in calls.values()) / ms if ms else 0.0


def call_latencies(
    workload: str, calls: Dict[Tuple[str, int], Tuple[float, float]]
) -> List[float]:
    """The latency samples the calls of a workload stand for."""
    by_kind = workload in spec.LATENCY_BY_CALL_KIND
    groups: Dict[Any, List[Tuple[float, float]]] = {}
    for (unit, index), call in calls.items():
        groups.setdefault(index if by_kind else (unit, index), []).append(call)
    samples = []
    for group in groups.values():
        ops = sum(ops for ops, _ in group)
        ms = sum(ms for _, ms in group)
        if workload in spec.LATENCY_PER_KILO_OP:
            if ops:  # a kind that never does an op has no per-op time
                samples.append(1e3 * ms / ops)
        else:
            samples.append(ms / len(group))
    return samples


def aggregate(workload: str, children: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the untraced repeats of one workload into named metrics."""
    good = [c for c in children if "error" not in c]
    attempted = sum(c.get("attempted", 0) for c in children)
    failed = sum(c.get("failed", 0) for c in children)
    failures = [m for c in children for m in c.get("failures", [])]
    for child in children:
        if "error" in child:
            # A dead, killed or leaking repeat is a failed operation of
            # its own, on top of whatever its record (if any) admits.
            attempted += 1
            failed += 1
            failures.append(f"repeat {child['repeat']}: {child['error']}")
    metrics: Dict[str, float] = {}
    calls: Dict[Tuple[str, int], Tuple[float, float]] = {}
    if good:
        calls = best_calls([c["calls"] for c in good])
        latencies = [ms for c in good for ms in c["latency_ms"]]
        if not latencies:
            latencies = call_latencies(workload, calls)
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in good),
            "ops_per_s": rate_per_s(calls),
            "op_p50_ms": percentile(latencies, 50),
            "op_p90_ms": percentile(latencies, 90),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in good),
        }
        recorded = best_calls([c["extras"].get("recorded_calls", {}) for c in good])
        if recorded:
            metrics["recorded_ops_per_s"] = rate_per_s(recorded)
        outages = [ms for c in good for ms in c["extras"].get("outage_ms", [])]
        if outages:
            metrics["outage_ms"] = statistics.median(outages)
        unserved: Dict[str, List[int]] = {}
        for child in good:
            unserved.update(child["extras"].get("unserved_by_unit", {}))
        if unserved:
            metrics["unserved_share"] = sum(
                u for u, _ in unserved.values()
            ) / max(1, sum(total for _, total in unserved.values()))
    notes = []
    diverged = sum(c["extras"].get("diverged_keys", 0) for c in good)
    lost = sum(c["extras"].get("lost_acked_keys", 0) for c in good)
    if diverged or lost:
        notes.append(
            f"after the final heal {diverged} keys differ between replicas and "
            f"{lost} lost an acknowledged write (a finding about the store, "
            "not a failed check: README, 'Findings')"
        )
    digests: Dict[str, str] = {}
    counts: Dict[str, float] = {}
    for child in good:
        for key, value in child["digests"].items():
            attempted += 1
            if digests.setdefault(key, value) != value:
                failed += 1
                failures.append(
                    f"digest {key} differs between repeats of the same unit"
                )
        for key, value in child["counts"].items():
            attempted += 1
            if counts.setdefault(key, value) != value:
                failed += 1
                failures.append(f"count {key} differs between repeats")
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "failures": failures, "digests": digests, "counts": counts,
        "notes": notes, "calls": calls,
    }


def check_pinned(
    workload: str, seed: int, result: Dict[str, Any], expected: Dict[str, Any]
) -> None:
    """Digests of the default seed must match ``expected.json``."""
    if seed != expected.get("seed"):
        return
    pinned = expected.get("digests", {}).get(workload, {})
    for key in sorted(set(pinned) & set(result["digests"])):
        result["attempted"] += 1
        if pinned[key] != result["digests"][key]:
            result["failed"] += 1
            result["failures"].append(
                f"digest {key} is {result['digests'][key][:12]}.., "
                f"expected.json pins {pinned[key][:12]}.."
            )


def layer_metrics(
    result: Dict[str, Any], traced: Optional[Dict[str, Any]]
) -> Dict[str, float]:
    """Every per-layer metric, zero where the workload has nothing."""
    values = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    metrics = result["metrics"]
    if traced is not None and "error" not in traced:
        values.update(
            {k: v for k, v in traced["layers"].items() if k in values}
        )
        # The same calls, traced against the fastest untraced repeat, as
        # a ratio of rates: service_http's calls are slices of fixed
        # length, so there tracing shows in the ops, not in the time.
        plain: Dict[Any, Tuple[float, float]] = {}
        slowed: Dict[Any, Tuple[float, float]] = {}
        for unit, calls in traced["calls"].items():
            for index, (ops, ms) in enumerate(calls):
                best = result["calls"].get((unit, index))
                if best is not None:
                    plain[unit, index] = best
                    slowed[unit, index] = (best[0] if ops is None else ops, ms)
        if rate_per_s(slowed):
            values["trace.overhead_ratio"] = rate_per_s(plain) / rate_per_s(slowed)
    if metrics.get("recorded_ops_per_s"):
        values["obs.telemetry.overhead_ratio"] = (
            metrics["ops_per_s"] / metrics["recorded_ops_per_s"]
        )
        values["e2e.recorded_ops_per_s"] = metrics["recorded_ops_per_s"]
    values["e2e.outage_ms"] = metrics.get("outage_ms", 0.0)
    values["e2e.unserved_share"] = metrics.get("unserved_share", 0.0)
    return values


def run_set(
    workloads: List[str], seed: int, seconds: float, repeats: int, trace: bool,
    expected_path: Path = HERE / "expected.json",
) -> Dict[str, Dict[str, Any]]:
    """One run of each workload, repeats interleaved across workloads."""
    children: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    share = seconds / repeats
    for repeat in range(repeats):
        traced = trace and repeat == repeats - 1
        for workload in workloads:
            child = procs.run_child(
                [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", repr(share), "--repeat", str(repeat),
                    "--repeats", str(repeats), "--trace", str(int(traced)),
                ],
                timeout=CHILD_GRACE_S + 4 * share,
            )
            child.setdefault("repeat", repeat)
            child["traced"] = traced
            children[workload].append(child)
    expected = json.loads(expected_path.read_text())
    results: Dict[str, Dict[str, Any]] = {}
    for workload in workloads:
        untraced = [c for c in children[workload] if not c["traced"]]
        traced_children = [c for c in children[workload] if c["traced"]]
        result = aggregate(workload, untraced)
        for child in traced_children:
            # A traced repeat is not measured, but its checks count.
            extra = aggregate(workload, [child])
            result["attempted"] += extra["attempted"]
            result["failed"] += extra["failed"]
            result["failures"] += extra["failures"]
            for key, value in extra["digests"].items():
                result["digests"].setdefault(key, value)
        check_pinned(workload, seed, result, expected)
        result["metrics"]["failed_share"] = (
            result["failed"] / result["attempted"]
            if result["attempted"] else 1.0
        )
        if trace:
            result["layers"] = layer_metrics(
                result, traced_children[0] if traced_children else None
            )
        results[workload] = result
    return results


def describe(seed: int, results: Dict[str, Dict[str, Any]], trace: bool) -> str:
    lines = []
    for workload, result in results.items():
        op, call, _ = spec.WORKLOADS[workload]
        lines.append(f"{workload}  (seed {seed}; op = {op}; call = {call})")
        for name, value in result["metrics"].items():
            lines.append(f"  {name:<28} {value:>16.4f} {spec.UNITS[name]}")
        if trace:
            for name, value in result["layers"].items():
                if value:
                    lines.append(
                        f"    {name:<44} {value:>16.4f} {spec.UNITS[name]}"
                    )
        for note in result["notes"]:
            lines.append(f"  note: {note}")
        for failure in result["failures"]:
            lines.append(f"  FAILED: {failure}")
    return "\n".join(lines)


def environment(seed: int) -> Dict[str, Any]:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10,
        ).stdout.strip() or commit
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "commit": commit, "nproc": os.cpu_count(),
        "python": platform.python_version(), "first_seed": seed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all",
                        choices=["all", *spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="seconds one run of a workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--quick", action="store_true",
                        help="one short repeat per workload (smoke)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs to make, with seeds seed, seed+1, ..")
    parser.add_argument("--out", type=Path,
                        help="write every run's metrics here (compare.py)")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="pinned digests to check against")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from this run's digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workloads = (
        list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    )
    repeats = 1 if args.quick else spec.REPEATS
    if args.trace and repeats < 2:
        repeats = 2  # one measured repeat to compare the traced one with
    seconds = min(args.seconds, 1.5 * repeats) if args.quick else args.seconds

    # SIGTERM takes the Ctrl-C path: the finally blocks sweep the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    attempted = failed = 0
    saved = []
    results: Dict[str, Dict[str, Any]] = {}
    try:
        for run in range(args.runs):
            seed = args.seed + run
            results = run_set(
                workloads, seed, seconds, repeats, bool(args.trace),
                args.expected,
            )
            print(describe(seed, results, bool(args.trace)), flush=True)
            attempted += sum(r["attempted"] for r in results.values())
            failed += sum(r["failed"] for r in results.values())
            saved.append({
                "seed": seed,
                "workloads": {
                    w: {
                        "metrics": r["metrics"],
                        "layers": r.get("layers", {}),
                        "counts": r["counts"],
                    }
                    for w, r in results.items()
                },
            })
    finally:
        left = procs.survivors()
    if left:
        failed += 1
        attempted += 1
        print("LEFT RUNNING: " + ", ".join(left), file=sys.stderr)
    else:
        print("leak scan: no process, thread or socket left behind")
    if args.pin:
        (HERE / "expected.json").write_text(json.dumps({
            "seed": args.seed + args.runs - 1,
            "digests": {w: r["digests"] for w, r in results.items()},
        }, indent=1, sort_keys=True) + "\n")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"environment": environment(args.seed), "seconds": seconds,
             "repeats": repeats, "runs": saved}, indent=1) + "\n")

    # The contract line: the last run, end-to-end or per-layer metrics.
    contract_names = [
        name for name, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)
    ]
    metrics: Dict[str, Dict[str, Any]] = {}
    for workload, result in results.items():
        source = result["layers"] if args.trace else result["metrics"]
        for name in contract_names:
            key = name if len(results) == 1 else f"{name}@{workload}"
            metrics[key] = {
                "value": source.get(name, 0.0), "unit": spec.UNITS[name]
            }
    print(json.dumps({
        "correct": failed == 0, "attempted": max(1, attempted),
        "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
