"""Command-line interface for the experiment harness.

Examples::

    repro-experiments list
    repro-experiments run fig4_2 --scale smoke --plot
    repro-experiments run fig4_5 --scale small --seed 7 --csv results/
    repro-experiments all --scale smoke
    repro-experiments run fig4_2 --scale smoke --metrics-out metrics.jsonl
    repro-experiments compare ykd dfls --changes 6 --rate 2 --runs 300
    repro-experiments trace ykd --processes 5 --changes 3
    repro-experiments profile ykd --processes 16 --runs 200
    repro-experiments check --schedules 500 --seed 3 --shrink
    repro-experiments check --replay repro.json
    repro-experiments check --corpus tests/corpus
    repro-experiments explain ykd --changes 4 --runs 50 --timeline
    repro-experiments explain ykd --replay repro.json --html report.html
    repro-experiments explain --replay case.trace.jsonl
    repro-experiments serve --replicas 3 --port 8080
    repro-experiments load --seed 7 --schedule cascade --verify-replay
    repro-experiments gcs --schedule flip_flop --loss-permille 100

Every subcommand is one ``(name, help, configure, run)`` record in
:data:`COMMANDS`; :func:`main` builds the parser from the registry and
dispatches through it.  Exit codes: 0 clean, 1 findings, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis import compare_paired
from repro.argtypes import float_at_least, int_at_least, probability
from repro.core.registry import algorithm_names
from repro.faults.model import FAULT_CLASSES
from repro.obs import (
    CampaignMetrics,
    MetricsRegistry,
    PhaseProfiler,
    ProgressReporter,
    write_metrics_csv,
    write_metrics_jsonl,
)
from repro.experiments.ambiguous import AmbiguousFigure
from repro.experiments.availability import AvailabilityFigure
from repro.experiments.plot import plot_ambiguous, plot_availability
from repro.experiments.report import (
    render,
    write_ambiguous_csv,
    write_availability_csv,
)
from repro.experiments.runner import batched_fallback_reason, run_experiment
from repro.experiments.spec import SCALES, SPECS, all_spec_ids, get_scale
from repro.sim.campaign import CaseConfig, compare_algorithms, run_case
from repro.sim.driver import DriverLoop
from repro.service import cli as service_cli
from repro.sim.explore import explore
from repro.sim.rng import derive_rng
from repro.sim.trace import TraceRecorder, render_timeline


def _add_case_options(
    parser: argparse.ArgumentParser,
    processes: int,
    changes: int,
    rate: Optional[float] = None,
    runs: Optional[int] = None,
) -> None:
    """The flags naming one simulated case; ``runs`` brings ``--mode``."""
    parser.add_argument(
        "--processes", type=int_at_least(2), default=processes
    )
    parser.add_argument("--changes", type=int_at_least(0), default=changes)
    if rate is not None:
        parser.add_argument(
            "--rate", type=float_at_least(0.0), default=rate
        )
    if runs is not None:
        parser.add_argument("--runs", type=int_at_least(1), default=runs)
        parser.add_argument(
            "--mode", choices=["fresh", "cascading"], default="fresh"
        )
    parser.add_argument("--seed", type=int, default=0)


def _case_config(args: argparse.Namespace, algorithm: str) -> CaseConfig:
    return CaseConfig(
        algorithm=algorithm,
        n_processes=args.processes,
        n_changes=args.changes,
        mean_rounds_between_changes=args.rate,
        runs=args.runs,
        mode=args.mode,
        master_seed=args.seed,
    )


def _configure_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment_id", choices=sorted(SPECS))
    _add_run_options(parser)


def _configure_compare(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("first", choices=algorithm_names())
    parser.add_argument("second", choices=algorithm_names())
    _add_case_options(parser, processes=16, changes=6, rate=2.0, runs=300)
    parser.add_argument(
        "--kernel",
        choices=["scalar", "batched"],
        default="scalar",
        help="campaign execution backend (exact same outcomes; "
        "per-case scalar fallback outside the batched surface)",
    )


def _configure_soak(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("algorithm", choices=algorithm_names())
    _add_case_options(parser, processes=8, changes=10_000, rate=1.0)


def _configure_verify(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "algorithm", choices=list(algorithm_names()) + ["all"]
    )
    parser.add_argument("--processes", type=int_at_least(2), default=3)
    parser.add_argument("--depth", type=int_at_least(1), default=2)
    parser.add_argument(
        "--gaps", type=int_at_least(0), nargs="+", default=[0, 1, 2, 3]
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print the explorer's work accounting (states, dedup "
        "hits, rounds, fork depth)",
    )
    parser.add_argument(
        "--stats-out", type=Path, default=None, metavar="PATH",
        help="also write per-algorithm results and stats as JSON",
    )


def _configure_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("algorithm", choices=algorithm_names())
    _add_case_options(parser, processes=5, changes=3)


def _configure_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("algorithm", choices=algorithm_names())
    _add_case_options(parser, processes=16, changes=6, rate=2.0, runs=200)
    parser.add_argument(
        "--every",
        type=int_at_least(1),
        default=25,
        help="progress reporting interval in runs (default: 25)",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write the case's metrics (campaign counters plus the "
        "phase profile) as JSONL, or CSV for a .csv path",
    )


def _configure_check(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "mode",
        nargs="?",
        choices=["fuzz"],
        default="fuzz",
        help="check mode (only 'fuzz' exists; --replay/--corpus override)",
    )
    parser.add_argument(
        "--faults",
        nargs="+",
        choices=list(FAULT_CLASSES),
        default=None,
        metavar="CLASS",
        help="adversarial fault classes to fuzz with (subset of "
        f"{', '.join(FAULT_CLASSES)}); each failing schedule is judged "
        "against the per-class invariant oracle, and only findings the "
        "oracle does not sanction fail the run",
    )
    parser.add_argument(
        "--replay",
        type=Path,
        default=None,
        help="replay one repro file instead of fuzzing",
    )
    parser.add_argument(
        "--corpus",
        type=Path,
        default=None,
        help="replay every repro file in a directory instead of fuzzing",
    )
    parser.add_argument(
        "--algorithms",
        nargs="+",
        choices=algorithm_names(),
        default=None,
        help="algorithms to cross-check (default: all registered)",
    )
    parser.add_argument("--schedules", type=int_at_least(1), default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-processes", type=int, default=3)
    parser.add_argument("--max-processes", type=int, default=6)
    parser.add_argument("--max-changes", type=int, default=6)
    parser.add_argument("--max-gap", type=int, default=3)
    parser.add_argument("--crash-weight", type=probability, default=0.2)
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug each failing schedule to a minimal reproducer",
    )
    parser.add_argument(
        "--save-repros",
        type=Path,
        default=None,
        help="directory for the (minimized) failing schedules as repro files",
    )


def _configure_explain(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "algorithm",
        nargs="?",
        choices=algorithm_names(),
        default=None,
        help="algorithm to run (optional with --replay)",
    )
    parser.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="PATH",
        help="explain a recorded artifact instead of running: a trace "
        "JSONL (from --trace-out) or a repro.check repro/plan JSON",
    )
    _add_case_options(parser, processes=8, changes=4, rate=4.0, runs=50)
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="also print the event timeline with attempt spans woven in",
    )
    parser.add_argument(
        "--html",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the self-contained HTML forensics report",
    )
    parser.add_argument(
        "--spans-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the reconstructed spans as canonical JSONL",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the recorded trace as canonical JSONL",
    )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=sorted(SCALES),
        help="resource preset (default: smoke)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        help="directory for CSV export (availability figures only)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also draw the figure as an ASCII chart",
    )
    parser.add_argument(
        "--workers",
        type=int_at_least(1),
        default=1,
        help="process-pool size for the heavy figures (default: 1)",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write campaign metrics as JSONL (or CSV for a .csv "
        "path); campaign-backed experiments only",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write one canonical trace JSONL per case (availability "
        "figures only; forces serial execution)",
    )
    parser.add_argument(
        "--spans-out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write one causal-span JSONL per case (availability "
        "figures only; forces serial execution)",
    )
    parser.add_argument(
        "--kernel",
        choices=["scalar", "batched"],
        default="scalar",
        help="campaign execution backend: the object-graph driver, or "
        "the batched bitmask kernel (availability figures; exact "
        "same numbers; outside its surface the scalar driver runs "
        "and a note on stderr says why)",
    )


def _write_metrics(registry: MetricsRegistry, path: Path) -> None:
    """Write a registry as JSONL, or CSV when the path says so."""
    if path.suffix.lower() == ".csv":
        write_metrics_csv(registry, path)
    else:
        write_metrics_jsonl(registry, path)
    print(f"metrics written: {path} ({len(registry.series())} series)")


def _run_one(experiment_id: str, args: argparse.Namespace) -> None:
    """Run one experiment under the ``run``/``all`` options in ``args``."""
    plot, csv_dir = args.plot, args.csv
    trace_dir, spans_dir = args.trace_out, args.spans_out
    started = time.time()
    metrics = MetricsRegistry() if args.metrics_out is not None else None
    if args.kernel == "batched":
        # Said before the run, not after: at paper scale the scalar
        # driver is hours where the kernel is seconds.
        reason = batched_fallback_reason(
            experiment_id,
            args.scale,
            collect_metrics=metrics is not None,
            recorded=trace_dir is not None or spans_dir is not None,
        )
        if reason is not None:
            print(
                f"note: {experiment_id}: runs on the scalar driver — {reason}",
                file=sys.stderr,
            )
    result = run_experiment(
        experiment_id,
        scale=args.scale,
        master_seed=args.seed,
        workers=args.workers,
        metrics=metrics,
        trace_dir=trace_dir,
        spans_dir=spans_dir,
        kernel=args.kernel,
    )
    print(render(result))
    if trace_dir is not None or spans_dir is not None:
        if isinstance(result, AvailabilityFigure):
            for label, directory in (
                ("traces", trace_dir), ("spans", spans_dir)
            ):
                if directory is not None:
                    count = len(list(Path(directory).glob(f"{experiment_id}_*.jsonl")))
                    print(f"{label} written: {directory} ({count} files)")
        else:
            print(
                f"traces/spans not written: {experiment_id} is not an "
                "availability figure"
            )
    if plot and isinstance(result, AvailabilityFigure):
        print(plot_availability(result))
    if plot and isinstance(result, AmbiguousFigure):
        print(plot_ambiguous(result))
    if csv_dir is not None and isinstance(result, AvailabilityFigure):
        path = write_availability_csv(result, csv_dir)
        print(f"csv written: {path}")
    if csv_dir is not None and isinstance(result, AmbiguousFigure):
        path = write_ambiguous_csv(result, csv_dir)
        print(f"csv written: {path}")
    if metrics is not None:
        if metrics.series():
            _write_metrics(metrics, args.metrics_out)
        else:
            print(
                f"metrics not written: {experiment_id} is not "
                "campaign-backed"
            )
    print(f"[{experiment_id} done in {time.time() - started:.1f}s]\n")


def _list(args: argparse.Namespace) -> int:
    print("Experiments:")
    for spec_id in all_spec_ids():
        spec = SPECS[spec_id]
        print(f"  {spec_id:18s} {spec.paper_artifact}: {spec.title}")
    print("\nScales:")
    for scale in SCALES.values():
        print(f"  {scale.describe()}")
    return 0


def _run(args: argparse.Namespace) -> int:
    _run_one(args.experiment_id, args)
    return 0


def _all(args: argparse.Namespace) -> int:
    for spec_id in all_spec_ids():
        _run_one(spec_id, args)
    return 0


def _compare(args: argparse.Namespace) -> int:
    results = compare_algorithms(
        _case_config(args, args.first),
        (args.first, args.second),
        kernel=args.kernel,
    )
    comparison = compare_paired(
        args.first,
        results[args.first].outcomes,
        args.second,
        results[args.second].outcomes,
    )
    print(
        f"{args.runs} paired runs, {args.changes} changes/run, "
        f"mean {args.rate:g} rounds between changes, {args.mode} mode:\n"
    )
    print(comparison.describe())
    return 0


def _soak(args: argparse.Namespace) -> int:
    from repro.net.schedule import GeometricSchedule

    started = time.time()
    schedule = GeometricSchedule(args.rate)
    driver = DriverLoop(
        algorithm=args.algorithm,
        n_processes=args.processes,
        fault_rng=derive_rng(args.seed, "soak", args.processes, args.rate),
    )
    milestone = max(args.changes // 10, 1)
    runs = 0
    while driver.changes_injected < args.changes:
        gaps = schedule.draw_gaps(driver.fault_rng, 10)
        driver.execute_run(gaps)
        runs += 1
        if driver.changes_injected // milestone != (
            driver.changes_injected - 10
        ) // milestone:
            elapsed = time.time() - started
            print(
                f"  {driver.changes_injected:>9} changes, "
                f"{driver.round_index} rounds, {runs} runs, "
                f"{elapsed:.0f}s, no inconsistency"
            )
    print(
        f"soak complete: {args.algorithm} survived "
        f"{driver.changes_injected} connectivity changes "
        f"({driver.round_index} rounds) with every invariant intact"
    )
    return 0


def _verify(args: argparse.Namespace) -> int:
    algorithms = (
        list(algorithm_names()) if args.algorithm == "all" else [args.algorithm]
    )
    exit_code = 0
    report: dict = {}
    for algorithm in algorithms:
        started = time.perf_counter()
        result = explore(
            algorithm,
            n_processes=args.processes,
            depth=args.depth,
            gap_options=tuple(args.gaps),
        )
        elapsed = time.perf_counter() - started
        print(
            f"{algorithm}: {result.scenarios} scenarios "
            f"({args.processes} processes, depth {args.depth}, "
            f"gaps {list(result.gap_options)}) in {elapsed:.1f}s"
        )
        # The first violation ends the run, so its figure covers only
        # the scenarios enumerated before it.
        scope = (
            f"the {result.scenarios} scenarios before the violation"
            if result.violations
            else "all scenarios"
        )
        print(f"availability over {scope}: {result.availability_percent:.1f}%")
        stats = result.stats
        if args.stats and stats is not None:
            print(
                f"  states={stats.nodes} dedup_hits={stats.dedup_hits} "
                f"memo_parts={stats.memo_parts} "
                f"cut_collapsed={stats.cut_collapsed} "
                f"rounds={stats.rounds} snapshots={stats.snapshots} "
                f"restores={stats.restores} "
                f"max_fork_depth={stats.max_fork_depth}"
            )
        report[algorithm] = {
            "scenarios": result.scenarios,
            "available": result.available,
            "availability_percent": (
                None if result.violations else result.availability_percent
            ),
            "violations": result.violations,
            "seconds": elapsed,
            "stats": None if stats is None else stats.to_dict(),
            "counterexamples": [
                example.to_dict() for example in result.counterexamples
            ],
        }
        if result.violations:
            [violation] = result.violations
            [example] = result.counterexamples
            breakdown = ", ".join(
                f"{category}={count}" for category, count in example.blame
            )
            print("INVARIANT VIOLATION FOUND:")
            print(f"  {violation}")
            print(
                f"  counterexample ({len(example.plan_steps)} steps): "
                f"lost rounds on the way — {breakdown or 'none'}"
            )
            exit_code = 1
        else:
            print("all invariants held in every scenario")
    if args.stats_out is not None:
        payload = {
            "kind": "repro.explore/stats",
            "processes": args.processes,
            "depth": args.depth,
            "gaps": list(args.gaps),
            "algorithms": report,
        }
        args.stats_out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"stats written to {args.stats_out}")
    return exit_code


def _trace(args: argparse.Namespace) -> int:
    recorder = TraceRecorder()
    driver = DriverLoop(
        algorithm=args.algorithm,
        n_processes=args.processes,
        fault_rng=derive_rng(args.seed, "trace", args.processes, args.changes),
        observers=[recorder],
    )
    driver.execute_run(gaps=[1] * args.changes)
    print(render_timeline(recorder))
    print(
        f"\noutcome: primary={driver.primary_members()} "
        f"topology={driver.topology.describe()}"
    )
    return 0


def _profile(args: argparse.Namespace) -> int:
    profiler = PhaseProfiler()
    reporter = ProgressReporter(every=args.every)
    collector = CampaignMetrics()
    started = time.time()
    result = run_case(
        _case_config(args, args.algorithm),
        observers=[profiler, reporter, collector],
    )
    elapsed = time.time() - started
    rate = result.rounds_total / elapsed if elapsed > 0 else 0.0
    print(
        f"{args.algorithm}: {result.runs} runs, "
        f"{result.rounds_total} rounds, "
        f"{result.changes_total} changes, "
        f"availability {result.availability_percent:.1f}% "
        f"({elapsed:.1f}s, {rate:,.0f} rounds/s)\n"
    )
    print(profiler.describe())
    if args.metrics_out is not None:
        registry = collector.registry
        profiler.to_registry(
            registry, algorithm=args.algorithm, mode=args.mode
        )
        _write_metrics(registry, args.metrics_out)
    return 0


def _explain(args: argparse.Namespace) -> int:
    """Availability forensics: spans + blame for a case or an artifact."""
    from repro.obs.causal import (
        render_forensics_report,
        spans_from_recorder,
        write_html_report,
        write_spans_jsonl,
    )
    from repro.sim.trace import write_trace_jsonl

    if args.replay is not None:
        loaded = _load_replay_artifact(args)
        if loaded is None:
            return 2
        recorder, labels = loaded
    elif args.algorithm is None:
        print(
            "error: explain needs an algorithm to run, or --replay",
            file=sys.stderr,
        )
        return 2
    else:
        recorder = TraceRecorder(max_events=1_000_000)
        result = run_case(
            _case_config(args, args.algorithm), observers=[recorder]
        )
        labels = {
            "algorithm": args.algorithm,
            "mode": args.mode,
            "processes": args.processes,
            "changes": args.changes,
            "rate": f"{args.rate:g}",
            "runs": args.runs,
            "seed": args.seed,
        }
        print(
            f"{args.algorithm}: {result.runs} runs, availability "
            f"{result.availability_percent:.1f}%\n"
        )
    spans = spans_from_recorder(recorder)
    print(render_forensics_report(spans, labels))
    timeline = None
    if args.timeline or args.html is not None:
        timeline = render_timeline(recorder, spans=spans.attempts)
    if args.timeline:
        print()
        print(timeline)
    if args.html is not None:
        path = write_html_report(
            spans, args.html, labels=labels, timeline=timeline
        )
        print(f"\nhtml report written: {path}")
    if args.spans_out is not None:
        path = write_spans_jsonl(spans, args.spans_out)
        print(f"spans written: {path}")
    if args.trace_out is not None:
        path = write_trace_jsonl(recorder, args.trace_out)
        print(f"trace written: {path}")
    return 0


def _load_replay_artifact(args: argparse.Namespace):
    """Load ``explain --replay``'s input: a trace JSONL or a repro plan.

    Returns ``(recorder, labels)`` — the trace either parsed directly
    or re-recorded by replaying the plan — or None after printing an
    error.
    """
    from repro.check import PlanError, load_repro
    from repro.check.plan import driver_steps
    from repro.errors import InvariantViolation, SimulationError
    from repro.sim.trace import events_from_jsonl, recorder_from_events

    try:
        text = args.replay.read_text(encoding="utf-8")
    except OSError as error:
        print(f"error: cannot read {args.replay}: {error}", file=sys.stderr)
        return None
    first = next((line for line in text.splitlines() if line.strip()), "")
    try:
        head = json.loads(first)
    except json.JSONDecodeError:
        head = None  # a document spread over lines: a repro file
    if head is not None and not (isinstance(head, dict) and "plan" in head):
        # One JSON value per line: a canonical trace JSONL, or a file
        # the trace reader will name the bad line of.
        try:
            events, truncated = events_from_jsonl(text)
        except ValueError as error:
            print(f"error: bad trace: {error}", file=sys.stderr)
            return None
        return (
            recorder_from_events(events, truncated),
            {"replay": str(args.replay)},
        )
    try:
        repro = load_repro(args.replay)
    except (OSError, PlanError, ValueError) as error:
        print(
            f"error: {args.replay} is neither a trace JSONL nor a "
            f"repro file: {error}",
            file=sys.stderr,
        )
        return None
    algorithm = args.algorithm
    if algorithm is None:
        candidates = repro.algorithms or tuple(algorithm_names())
        algorithm = sorted(candidates)[0]
    recorder = TraceRecorder(max_events=1_000_000)
    driver = DriverLoop(
        algorithm=algorithm,
        n_processes=repro.plan.n_processes,
        fault_rng=derive_rng(0, "explain", "replay", algorithm),
        observers=[recorder],
    )
    try:
        driver.execute_schedule(driver_steps(repro.plan))
    except (InvariantViolation, SimulationError) as error:
        print(f"replay stopped early: {error}\n")
    labels = {
        "algorithm": algorithm,
        "processes": repro.plan.n_processes,
        "replay": str(args.replay),
    }
    return recorder, labels


def _check(args: argparse.Namespace) -> int:
    from repro.check import (
        EXPECT_VIOLATION,
        FuzzConfig,
        PlanError,
        ReproFile,
        check_plan,
        fuzz,
        load_repro,
        minimize,
        run_corpus,
        run_repro,
        violation_predicate,
        write_repro,
    )

    started = time.time()
    if args.replay is not None:
        try:
            repro = load_repro(args.replay)
        except (OSError, PlanError) as error:
            print(f"error: cannot load repro: {error}", file=sys.stderr)
            return 2
        met, report = run_repro(repro, args.algorithms)
        print(report.describe())
        status = "matches" if met else "DOES NOT match"
        print(f"expectation {repro.expect!r} {status} ({args.replay})")
        return 0 if met else 1

    if args.corpus is not None:
        result = run_corpus(args.corpus, args.algorithms)
        print(result.describe())
        print(f"[corpus done in {time.time() - started:.1f}s]")
        return 0 if result.ok else 1

    from repro.check import classify_report

    try:
        config = FuzzConfig(
            master_seed=args.seed,
            schedules=args.schedules,
            algorithms=tuple(args.algorithms) if args.algorithms else None,
            min_processes=args.min_processes,
            max_processes=args.max_processes,
            max_changes=args.max_changes,
            max_gap=args.max_gap,
            crash_weight=args.crash_weight,
            fault_classes=tuple(args.faults) if args.faults else (),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = fuzz(config)
    print(result.describe())
    for failure in result.failures:
        plan = failure.plan
        if args.shrink:
            # A genuine (oracle-unsanctioned) bug must stay a genuine
            # bug while shrinking; expected breakage may shrink freely.
            shrunk = minimize(
                plan,
                violation_predicate(
                    result.algorithms,
                    require_unexpected=not failure.expected,
                ),
            )
            plan = shrunk.minimized
            print(
                f"schedule #{failure.index} minimized "
                f"{shrunk.original.cost()} -> {shrunk.minimized.cost()} "
                f"({shrunk.tests_run} replays): {plan.describe()}"
            )
        if args.save_repros is not None:
            # Replay the plan being saved (post-shrink) so the repro
            # carries the span-level explanation of *this* schedule.
            saved_report = check_plan(plan, result.algorithms)
            explanations = "; ".join(
                f"{verdict.algorithm} lost rounds: "
                + ", ".join(f"{k}={v}" for k, v in verdict.blame)
                for verdict in saved_report.failures
                if verdict.blame
            )
            if classify_report(saved_report):
                note = (
                    f"found by fuzzer seed={args.seed} "
                    f"schedule={failure.index}; expected violation: the "
                    f"{'/'.join(plan.faults.active_classes())} fault "
                    "oracle sanctions this breakage — it must stay "
                    "detected, it is not a bug"
                )
            else:
                note = (
                    f"found by fuzzer seed={args.seed} "
                    f"schedule={failure.index}; flip expect to 'pass' "
                    "once the underlying bug is fixed"
                )
            if explanations:
                note += f" [{explanations}]"
            path = write_repro(
                args.save_repros / f"seed{args.seed}_schedule{failure.index}.json",
                ReproFile(
                    plan=plan,
                    algorithms=result.algorithms,
                    expect=EXPECT_VIOLATION,
                    note=note,
                ),
            )
            print(f"repro written: {path}")
    print(f"[check done in {time.time() - started:.1f}s]")
    return 0 if result.ok else 1


#: The subcommand registry: ``(name, help, configure(parser),
#: run(args) -> exit code)``, in ``--help`` order.
COMMANDS = (
    ("list", "list all experiments and scales", lambda parser: None, _list),
    ("run", "run one experiment", _configure_run, _run),
    ("all", "run every experiment", _add_run_options, _all),
    (
        "compare",
        "paired head-to-head comparison of two algorithms over identical "
        "fault sequences",
        _configure_compare,
        _compare,
    ),
    (
        "soak",
        "endurance trial: inject a huge number of connectivity changes "
        "under continuous invariant checking (the thesis ran 1,310,000 "
        "per algorithm)",
        _configure_soak,
        _soak,
    ),
    (
        "verify",
        "exhaustively model-check an algorithm over all bounded fault "
        "schedules",
        _configure_verify,
        _verify,
    ),
    (
        "trace",
        "run one randomized scenario and print its event timeline",
        _configure_trace,
        _trace,
    ),
    (
        "profile",
        "run one campaign case with per-phase timing, live progress and "
        "campaign metrics; print the phase table",
        _configure_profile,
        _profile,
    ),
    (
        "check",
        "differential schedule fuzzing with failure minimization, repro "
        "replay, and corpus regression",
        _configure_check,
        _check,
    ),
    (
        "explain",
        "availability forensics: run a case (or replay a trace / repro "
        "plan) and explain every round without a primary",
        _configure_explain,
        _explain,
    ),
    *service_cli.COMMANDS,
)


def build_parser() -> argparse.ArgumentParser:
    """The one parser, built from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the dynamic "
        "voting availability study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, configure, run in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        configure(command)
        command.set_defaults(run=run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
