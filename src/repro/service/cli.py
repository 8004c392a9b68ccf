"""The live-system subcommands: ``serve``, ``load``, ``telemetry``, ``gcs``.

``serve`` boots the HTTP front ends — one per replica — over either
the in-process :class:`~repro.service.cluster.StoreCluster` or a real
multi-process :class:`~repro.gcs.proc.controller.ProcCluster` (every
proc node gets its own front end), ``load`` runs a seeded scenario
(workload + optional partition schedule) to a canonical availability
report, ``telemetry`` drives the distributed flight-recorder plane
(live scenario tails, post-mortem dump reading, replay verification of
the aggregated stream), and ``gcs`` runs a recorded partition schedule
on a real multi-process cluster against the simulated reference.
:data:`COMMANDS` is this module's slice of the subcommand registry
that :func:`repro.experiments.cli.main` dispatches through; the heavy
imports stay inside the handlers, so building the parser is cheap.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import json
import sys
from pathlib import Path

from repro.argtypes import float_at_least, int_at_least
from repro.core.registry import algorithm_names
from repro.obs.canonical import canonical_json, write_text


def _add_algorithm(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithm", choices=algorithm_names(), default="ykd"
    )


def _configure_serve(serve: argparse.ArgumentParser) -> None:
    serve.add_argument("--replicas", type=int_at_least(2), default=3)
    _add_algorithm(serve)
    serve.add_argument(
        "--backend",
        choices=["memory", "proc"],
        default="memory",
        help="in-process lock-step cluster, or one HTTP front end over "
        "a real multi-process UDP cluster",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="base port; replica i listens on port+i (0: ephemeral)",
    )
    serve.add_argument(
        "--tick-interval", type=float_at_least(0.0), default=0.005
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="boot, run a put/get/healthz self-check over HTTP, print "
        "the results and exit (used by CI)",
    )


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    """The seeded scenario ``load`` and ``telemetry`` both run."""
    parser.add_argument("--seed", type=int, default=0)
    _add_algorithm(parser)
    parser.add_argument(
        "--schedule",
        default="split_restore",
        help="a stock schedule name, 'generated:<seed>', or 'none' "
        "for the fault-free baseline",
    )
    parser.add_argument(
        "--replicas",
        type=int_at_least(2),
        default=5,
        help="cluster size (schedules carry their own)",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--ticks", type=int, default=120)
    parser.add_argument(
        "--verify-replay",
        action="store_true",
        help="run the scenario twice and fail unless the outputs "
        "(report, telemetry stream with its trace ids) are "
        "byte-identical",
    )


def _configure_load(load: argparse.ArgumentParser) -> None:
    _add_scenario_options(load)
    load.add_argument("--keys", type=int, default=64)
    load.add_argument("--zipf-s-milli", type=int, default=1100)
    load.add_argument("--arrival-permille", type=int, default=350)
    load.add_argument("--put-permille", type=int, default=500)
    load.add_argument("--burst-gap-mean", type=int, default=40)
    load.add_argument("--burst-len", type=int, default=5)
    load.add_argument("--burst-boost-permille", type=int, default=450)
    load.add_argument("--storm-gap-mean", type=int, default=60)
    load.add_argument(
        "--report-out", type=Path, default=None, metavar="PATH",
        help="write the canonical availability report JSON",
    )
    load.add_argument(
        "--telemetry-out", type=Path, default=None, metavar="PATH",
        help="run with per-replica flight recorders and write the "
        "aggregated telemetry JSONL (with --verify-replay the "
        "aggregated stream must also replay byte-identically)",
    )


def _configure_telemetry(telemetry: argparse.ArgumentParser) -> None:
    telemetry.add_argument(
        "--read", type=Path, default=None, metavar="PATH",
        help="read a flight dump (a node's crash dump or an "
        "aggregated stream) instead of running a scenario",
    )
    _add_scenario_options(telemetry)
    telemetry.add_argument(
        "--tail", type=int_at_least(0), default=10, metavar="N",
        help="print the last N flight events per node (0: none)",
    )
    telemetry.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the aggregated telemetry JSONL",
    )
    telemetry.add_argument(
        "--metrics-out", type=Path, default=None, metavar="PATH",
        help="write the folded registry in Prometheus text format",
    )


def _scenario_runner(args: argparse.Namespace, **profile_fields):
    """``run_scenario`` bound to the scenario the shared flags name.

    Returns None after printing the error when the schedule or the
    load profile is bad input.
    """
    from repro.errors import ReproError
    from repro.gcs.proc.schedule import resolve_schedule
    from repro.service.load import LoadProfile
    from repro.service.scenario import run_scenario

    try:
        schedule = (
            None if args.schedule == "none"
            else resolve_schedule(args.schedule)
        )
        profile = LoadProfile(
            clients=args.clients, ticks=args.ticks, seed=args.seed,
            **profile_fields,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    return functools.partial(
        run_scenario,
        profile,
        schedule=schedule,
        algorithm=args.algorithm,
        n_processes=args.replicas,
    )


def run_load(args: argparse.Namespace) -> int:
    """Handle ``repro-experiments load``; returns the exit code."""
    from repro.obs.telemetry import TelemetryCollector
    from repro.service.report import (
        describe_report,
        render_report,
        write_report,
    )

    run = _scenario_runner(
        args,
        n_keys=args.keys,
        zipf_s_milli=args.zipf_s_milli,
        arrival_permille=args.arrival_permille,
        put_permille=args.put_permille,
        burst_gap_mean=args.burst_gap_mean,
        burst_len=args.burst_len,
        burst_boost_permille=args.burst_boost_permille,
        storm_gap_mean=args.storm_gap_mean,
    )
    if run is None:
        return 2

    def new_collector():
        return None if args.telemetry_out is None else TelemetryCollector()

    collector = new_collector()
    report = run(collector=collector)
    print(describe_report(report))
    if args.verify_replay:
        replay_collector = new_collector()
        replay = run(collector=replay_collector)
        if render_report(replay) != render_report(report):
            print(
                "replay FAILED: second run produced a different report",
                file=sys.stderr,
            )
            return 1
        if collector is not None and (
            replay_collector.aggregated_jsonl()
            != collector.aggregated_jsonl()
        ):
            print(
                "replay FAILED: second run produced a different "
                "telemetry stream",
                file=sys.stderr,
            )
            return 1
        print("replay verified: byte-identical report")
    if collector is not None:
        write_text(args.telemetry_out, collector.aggregated_jsonl())
        print(
            f"telemetry written: {args.telemetry_out} "
            f"(digest {collector.aggregated_digest()[:16]})"
        )
    if args.report_out is not None:
        path = write_report(report, args.report_out)
        print(f"report written: {path}")
    return 0


def _describe_dump(path: Path, tail: int) -> int:
    """Read one flight dump (crash or aggregated) and summarise it."""
    from repro.obs.telemetry import parse_flight_jsonl

    try:
        headers, events = parse_flight_jsonl(
            path.read_text(encoding="utf-8")
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return 2
    print(f"{path}: {len(headers)} node stream(s), {len(events)} events")
    for header in headers:
        print(
            f"  node {header['node']}: recorded={header['recorded']} "
            f"dropped={header['dropped']} capacity={header['capacity']}"
        )
    kinds: dict = {}
    for event in events:
        kinds[event["event"]] = kinds.get(event["event"], 0) + 1
    if kinds:
        joined = ", ".join(
            f"{name}={count}" for name, count in sorted(kinds.items())
        )
        print(f"  events: {joined}")
    crashes = [event for event in events if event["event"] == "crash"]
    for crash in crashes:
        first_line = str(crash.get("error", "")).strip().splitlines()
        print(
            f"  CRASH on node {crash['node']}: "
            f"{first_line[-1] if first_line else 'unknown error'}"
        )
    if tail > 0:
        print(f"  last {min(tail, len(events))} event(s):")
        for event in events[-tail:]:
            print(f"    {canonical_json(event)}")
    return 0


def run_telemetry(args: argparse.Namespace) -> int:
    """Handle ``repro-experiments telemetry``; returns the exit code."""
    from repro.obs.telemetry import TelemetryCollector, render_prometheus

    if args.read is not None:
        return _describe_dump(args.read, args.tail)

    run = _scenario_runner(args)
    if run is None:
        return 2
    collector = TelemetryCollector()
    run(collector=collector)
    if args.verify_replay:
        replay = TelemetryCollector()
        run(collector=replay)
        if replay.aggregated_jsonl() != collector.aggregated_jsonl():
            print(
                "replay FAILED: second run produced a different "
                "telemetry stream",
                file=sys.stderr,
            )
            return 1
        print("replay verified: byte-identical telemetry stream")
    print(collector.describe())
    print(f"aggregated digest: {collector.aggregated_digest()}")
    if args.tail > 0:
        from repro.obs.telemetry import FLIGHT_HEADER_KIND

        events = [
            line
            for line in collector.aggregated_events()
            if line.get("kind") != FLIGHT_HEADER_KIND
        ]
        print(f"last {min(args.tail, len(events))} event(s):")
        for event in events[-args.tail:]:
            print(f"  {canonical_json(event)}")
    if args.out is not None:
        write_text(args.out, collector.aggregated_jsonl())
        print(f"telemetry written: {args.out}")
    if args.metrics_out is not None:
        write_text(args.metrics_out, render_prometheus(collector.fold()))
        print(f"metrics written: {args.metrics_out}")
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Handle ``repro-experiments serve``; returns the exit code."""
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


async def _serve(args: argparse.Namespace) -> int:
    from repro.service.cluster import StoreCluster
    from repro.service.frontend import FrontendGroup, ProcFrontendGroup

    with contextlib.ExitStack() as stack:
        if args.backend == "proc":
            from repro.gcs.proc.controller import ProcCluster

            cluster = stack.enter_context(
                ProcCluster(
                    args.replicas,
                    algorithm=args.algorithm,
                    tick_interval=args.tick_interval,
                )
            )
            cluster.await_stable()
            group = ProcFrontendGroup(cluster)
            label = f" of {args.replicas} (proc/udp)"
        else:
            cluster = StoreCluster(args.replicas, args.algorithm)
            cluster.apply_stage((tuple(range(args.replicas)),))
            cluster.warm_up()
            group = FrontendGroup(cluster, tick_interval=args.tick_interval)
            label = ""
        peers = await group.start(args.host, args.port)
        for pid, (host, port) in sorted(peers.items()):
            print(f"replica {pid}{label} on http://{host}:{port}")
        try:
            if args.smoke:
                return await _smoke(peers)
            while True:
                await asyncio.sleep(3600)
        finally:
            await group.stop()


async def _http_raw(address, method: str, path: str, body: bytes = b""):
    host, port = address
    reader, writer = await asyncio.open_connection(host, port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode("ascii") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split()[1])
    return status, payload


async def _http(address, method: str, path: str, body: bytes = b""):
    status, payload = await _http_raw(address, method, path, body)
    return status, json.loads(payload.decode("utf-8"))


async def _smoke(peers) -> int:
    """One put/get/healthz/metrics pass over HTTP; failures fail the boot."""
    pid, address = sorted(peers.items())[0]
    checks = []
    status, answer = await _http(
        address, "PUT", "/kv/smoke", b'{"value": "ok"}'
    )
    checks.append(("put", status in (200, 307), status, answer))
    status, answer = await _http(address, "GET", "/kv/smoke")
    checks.append(("get", status == 200, status, answer))
    status, answer = await _http(address, "GET", "/healthz")
    checks.append(("healthz", status == 200, status, answer))
    status, payload = await _http_raw(address, "GET", "/metrics")
    text = payload.decode("utf-8", "replace")
    checks.append((
        "metrics",
        status == 200 and "service_http_requests" in text,
        status,
        f"{len(text.splitlines())} lines of Prometheus text",
    ))
    ok = all(passed for _, passed, _, _ in checks)
    for name, passed, status, answer in checks:
        detail = (
            answer
            if isinstance(answer, str)
            else json.dumps(answer, sort_keys=True)
        )
        print(f"  {name}: {'ok' if passed else 'FAIL'} "
              f"({status} {detail})")
    print("smoke passed" if ok else "smoke FAILED")
    return 0 if ok else 1


def _configure_gcs(gcs: argparse.ArgumentParser) -> None:
    from repro.gcs.proc.schedule import STOCK_SCHEDULES

    gcs.add_argument(
        "--schedule",
        default="flip_flop",
        help="stock schedule name or generated:<seed> "
        f"(stock: {', '.join(sorted(STOCK_SCHEDULES))})",
    )
    _add_algorithm(gcs)
    gcs.add_argument(
        "--loss-permille",
        type=int,
        default=0,
        help="injected per-transmission wire loss",
    )
    gcs.add_argument(
        "--link-seed", type=int, default=0, help="wire-fault draw seed"
    )
    gcs.add_argument("--stage-timeout", type=float, default=30.0)
    gcs.add_argument(
        "--tick-interval",
        type=float,
        default=0.005,
        help="node tick pacing in seconds",
    )
    gcs.add_argument(
        "--skip-reference",
        action="store_true",
        help="run the real cluster only, without the differential check",
    )


def run_gcs(args: argparse.Namespace) -> int:
    """Handle ``repro-experiments gcs``: 0 converged and matching the
    simulated reference, 1 a divergence (printed per stage)."""
    from repro.errors import ReproError
    from repro.faults.model import LinkFaults
    from repro.gcs.proc.controller import ProcCluster, run_differential
    from repro.gcs.proc.schedule import resolve_schedule

    try:
        schedule = resolve_schedule(args.schedule)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    link = None
    if args.loss_permille:
        link = LinkFaults(
            loss_permille=args.loss_permille, seed=args.link_seed
        )

    if args.skip_reference:
        with ProcCluster(
            schedule.n_processes,
            algorithm=args.algorithm,
            link=link,
            tick_interval=args.tick_interval,
        ) as cluster:
            outcomes = cluster.run_schedule(
                schedule, stage_timeout=args.stage_timeout
            )
        for index, outcome in enumerate(outcomes):
            print(f"stage {index}: views={dict(outcome.views)} "
                  f"primaries={outcome.primaries}")
        return 0

    result = run_differential(
        schedule,
        algorithm=args.algorithm,
        link=link,
        stage_timeout=args.stage_timeout,
        tick_interval=args.tick_interval,
    )
    for index, (ref, obs) in enumerate(
        zip(result.reference, result.observed)
    ):
        marker = "ok" if (ref == obs) else "DIVERGED"
        print(
            f"stage {index} [{marker}]: primaries={obs.primaries} "
            f"views={dict(obs.views)}"
        )
    if result.matches:
        print(
            f"MATCH: {result.schedule} x {result.algorithm} over "
            "udp converged to the simulated reference"
        )
        return 0
    print("DIVERGENCE:")
    for line in result.divergences():
        print("  " + line)
    return 1


#: ``(name, help, configure(parser), run(args) -> exit code)`` — this
#: module's slice of the registry ``repro.experiments.cli`` dispatches on.
COMMANDS = (
    (
        "serve",
        "front a replicated-store cluster with per-replica HTTP "
        "endpoints (put/get/snapshot/healthz/ops with NotPrimary "
        "redirects)",
        _configure_serve,
        run_serve,
    ),
    (
        "load",
        "replay a seeded heavy-traffic workload against a partitioning "
        "cluster and emit the canonical availability report",
        _configure_load,
        run_load,
    ),
    (
        "telemetry",
        "drive the flight-recorder plane: tail a live seeded scenario, "
        "read a post-mortem dump, or verify that the aggregated stream "
        "replays byte-identically",
        _configure_telemetry,
        run_telemetry,
    ),
    (
        "gcs",
        "run a recorded partition schedule on a real multi-process GCS "
        "cluster (UDP sockets) and compare against the simulated "
        "reference",
        _configure_gcs,
        run_gcs,
    ),
)
