"""Checks of the benchmark itself (a plain script, no pytest).

    python3 benchmarks/e2e/selfcheck.py                  # everything, ~2 min
    python3 benchmarks/e2e/selfcheck.py --write-contract # regenerate BENCHMARK.json

1. ``BENCHMARK.json`` is what ``spec.py`` says and fits the contract's
   limits.
2. The leak scan names a deliberately leaked process, thread and
   listening socket, and is clean again once they are gone; a child that
   leaves a process behind, or hangs, comes back as an error with the
   process killed.
3. One traced run per workload: every per-layer metric predicted to be
   exercised is above zero, every predicted zero is zero, and the self
   times of all spans sum to the traced units within 5 %.
4. A tampered pinned digest makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

_KERNEL = [f"sim.batch.kernel.rounds_per_s.{a}" for a in spec.ALGORITHMS]
_CORE = ["core.calls", "core.incoming_message_s",
         "core.outgoing_message_poll_s", "core.view_changed_s"]
_DRIVER = ["sim.driver.rounds", "sim.driver.poll_s", "sim.driver.cut_s",
           "sim.driver.deliver_s", "sim.driver.views_s",
           "sim.driver.observe_s", "sim.driver.round_us"]
_ASYNCNET = ["gcs.transport.asyncnet.idle_wait_share",
             "gcs.transport.asyncnet.send_us",
             "gcs.transport.asyncnet.deliver_tick_us"]
_STORE = ["service.cluster.tick_us", "service.cluster.ticks",
          "service.cluster.put_us", "service.cluster.get_us",
          "service.cluster.blame_us", "app.replicated_store.put_us",
          "app.replicated_store.on_payload_us", "app.replicated_store.applied",
          "gcs.tick_us", "gcs.ticks_per_reconfig", "gcs.views_installed",
          "gcs.datagrams_per_reconfig", "service.load.replica_for_us"]

#: workload -> (metrics predicted > 0, metrics predicted == 0)
PREDICTED: Dict[str, Tuple[List[str], List[str]]] = {
    "campaign_fresh": (
        ["sim.campaign.self_s", "sim.campaign.batched_share",
         "sim.batch.compile.self_s", "sim.batch.compile.changes",
         "sim.batch.kernel.self_s", "sim.batch.kernel.rounds", *_KERNEL],
        ["sim.driver.rounds", "core.calls", "gcs.tick_us", *_ASYNCNET],
    ),
    "campaign_cascading": (
        ["sim.campaign.self_s", *_DRIVER, *_CORE,
         *[f"core.self_s.{a}" for a in spec.ALGORITHMS]],
        ["sim.campaign.batched_share", "sim.batch.kernel.rounds",
         "sim.batch.compile.changes", "sim.explore.scenarios"],
    ),
    "check_fuzz": (
        [*_DRIVER, *_CORE, "check.generate_plan_s", "check.check_plan_self_s",
         "check.plans", "check.expected_failures", "faults.injector.self_s",
         "faults.injector.deliveries", "faults.injector.dropped"],
        ["check.unexpected_failures", "sim.batch.kernel.rounds",
         "sim.explore.scenarios", "gcs.tick_us"],
    ),
    "explore": (
        [*_DRIVER, *_CORE, "sim.driver.snapshot_us", "sim.driver.restore_us",
         "sim.driver.snapshots", "sim.explore.self_s", "sim.explore.scenarios",
         "sim.explore.nodes", "sim.explore.dedup_hit_share",
         "sim.statehash.self_s", "sim.statehash.calls"],
        ["check.plans", "sim.batch.kernel.rounds", "faults.injector.deliveries"],
    ),
    "service_sim": (
        [*_STORE, *_CORE, "service.load.workload_s", "service.load.ops",
         "service.scenario.self_s", "service.report.render_s",
         "obs.telemetry.record_us", "obs.telemetry.events",
         "obs.telemetry.collect_s", "obs.telemetry.overhead_ratio",
         "e2e.recorded_ops_per_s", "e2e.unserved_share"],
        ["sim.driver.rounds", "service.frontend.backend_us", *_ASYNCNET],
    ),
    "service_http": (
        [*_STORE, *_CORE, "service.frontend.http_overhead_us",
         "service.frontend.backend_us", "service.frontend.served_p99_ms",
         "service.frontend.redirect_share", "obs.canonical.json_us",
         "loadgen.late_p99_ms", "obs.telemetry.record_us", "e2e.outage_ms"],
        # The op stream is generated during set-up, so the generator
        # shows in setup_s, not in the timed part.
        ["sim.driver.rounds", "service.load.workload_s",
         "gcs.transport.wire.encode_us", "gcs.transport.arq.transmissions",
         *_ASYNCNET],
    ),
    "gcs_udp": (
        [*_CORE, *_ASYNCNET, "gcs.tick_us", "gcs.ticks_per_reconfig",
         "gcs.views_installed", "gcs.datagrams_per_reconfig",
         "gcs.transport.wire.encode_us", "gcs.transport.wire.decode_us",
         "gcs.transport.wire.bytes_per_datagram",
         "gcs.transport.arq.us_per_frame", "gcs.transport.arq.transmissions",
         "gcs.transport.arq.lossy_reconfig_ms",
         "gcs.transport.asyncnet.cpu_ms_per_reconfig"],
        ["sim.driver.rounds", "service.cluster.ticks",
         "service.frontend.backend_us"],
    ),
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class Report:
    def __init__(self) -> None:
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        self.failed += not ok


def check_contract(report: Report) -> None:
    path = ROOT / "BENCHMARK.json"
    text = path.read_text() if path.exists() else ""
    contract = spec.contract()
    report.check(
        bool(text) and json.loads(text) == contract,
        "BENCHMARK.json equals spec.contract()",
    )
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    report.check(
        all(NAME.match(n) for n in names) and len(set(names)) == len(names),
        "names are well-formed and used once",
    )
    report.check(
        all(UNIT.match(m["unit"])
            for m in contract["end_to_end"] + contract["per_layer"]),
        "units are well-formed",
    )
    report.check(
        2 <= len(contract["workloads"]) <= 8
        and all(len(w["why"]) <= 200 and "\n" not in w["why"]
                for w in contract["workloads"]),
        "2..8 workloads with a one-line why",
    )
    report.check(
        1 <= len(contract["end_to_end"]) <= 16
        and all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
        and any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": m["bound"]} for m in contract["end_to_end"]),
        "1..16 end-to-end metrics, bounds in (0, 0.25], setup_s present",
    )
    report.check(1 <= len(contract["per_layer"]) <= 128,
                 f"{len(contract['per_layer'])} per-layer metrics (<= 128)")
    runs = 4 + 22 * len(contract["workloads"])
    report.check(
        1 <= contract["run_seconds"] <= 60 and len(text) <= 64 * 1024,
        f"run_seconds {contract['run_seconds']}, {len(text)} bytes, "
        f"{runs} driver runs",
    )


def check_leak_scan(report: Report) -> None:
    report.check(not procs.survivors(), "leak scan is clean to begin with")
    sleeper = subprocess.Popen(["sleep", "30"])
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    port = listener.getsockname()[1]
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="leaked-worker")
    worker.start()
    try:
        found = procs.survivors()
        print("      deliberately leaked: " + "; ".join(found))
        report.check(
            any(f"process {sleeper.pid} (sleep)" in item for item in found),
            "leak scan names the leaked child process",
        )
        report.check(
            any("thread leaked-worker" in item for item in found),
            "leak scan names the leaked thread",
        )
        report.check(
            any(f"port {port} LISTEN" in item for item in found),
            "leak scan names the leaked listening socket",
        )
    finally:
        release.set()
        worker.join(timeout=5)
        listener.close()
        sleeper.kill()
        sleeper.wait(timeout=5)
    report.check(not procs.survivors(), "leak scan is clean once they are gone")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    leaky = out / "selfcheck_leaky_child.py"
    leaky.write_text(
        "import subprocess\n"
        "subprocess.Popen(['sleep', '30'])\n"
        "print('{}')\n"
    )
    result = procs.run_child([], timeout=5, script=leaky)
    report.check(
        "left running" in result.get("error", "") and "sleep" in result["error"],
        f"a child that leaves a process behind is an error: {result.get('error')}",
    )
    hanging = out / "selfcheck_hanging_child.py"
    hanging.write_text("import time\ntime.sleep(60)\n")
    result = procs.run_child([], timeout=1, script=hanging)
    report.check(
        "timed out" in result.get("error", ""),
        f"a hanging child is killed, not waited for: {result.get('error')}",
    )
    leaky.unlink()
    hanging.unlink()
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
            except OSError:
                continue
            if b"sleep 30" in command or b"selfcheck_" in command:
                left.append(command.decode(errors="replace").strip())
    report.check(not left, f"nothing of either child is still running {left}")


def check_traces(report: Report, seconds: float) -> None:
    for workload, (positive, zero) in PREDICTED.items():
        result = run.run_set([workload], spec.DEFAULT_SEED, seconds, 2, True)[
            workload
        ]
        layers = result["layers"]
        report.check(
            result["failed"] == 0,
            f"{workload}: traced run passes its checks {result['failures']}",
        )
        missing = [name for name in positive if not layers[name] > 0]
        report.check(not missing, f"{workload}: {len(positive)} predicted "
                     f"layer metrics are above zero {missing}")
        nonzero = [name for name in zero if layers[name] != 0]
        report.check(not nonzero, f"{workload}: {len(zero)} predicted zeros "
                     f"hold {nonzero}")
        report.check(layers["trace.overhead_ratio"] > 0,
                     f"{workload}: trace.overhead_ratio = "
                     f"{layers['trace.overhead_ratio']:.3f}")
        self_s = unit_s = 0.0
        spans = 0
        for line in (HERE / "out" / f"trace-{workload}.jsonl").read_text(
        ).splitlines():
            entry = json.loads(line)
            spans += "span" in entry
            if "layer" in entry:
                self_s += entry["self_s"]
                if entry["layer"] == "harness.unit":
                    unit_s = entry["total_s"]
        report.check(
            spans > 0 and unit_s > 0 and abs(self_s - unit_s) <= 0.05 * unit_s,
            f"{workload}: {spans} spans; self times sum to {self_s:.3f} s "
            f"of {unit_s:.3f} s traced",
        )


def check_tamper(report: Report) -> None:
    expected = json.loads((HERE / "expected.json").read_text())
    pinned = expected["digests"].get("explore", {})
    report.check(bool(pinned), "expected.json pins explore digests")
    for key in pinned:
        pinned[key] = "0" * 64
    tampered = HERE / "out" / "selfcheck_expected.json"
    tampered.parent.mkdir(exist_ok=True)
    tampered.write_text(json.dumps(expected))
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", "explore",
        "--quick", "--seed", str(expected["seed"]),
    ]
    honest = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=120)
    forged = subprocess.run(
        command + ["--expected", str(tampered)], stdout=subprocess.PIPE,
        text=True, timeout=120,
    )
    tampered.unlink()
    report.check(honest.returncode == 0, "untampered quick run exits 0")
    verdict = json.loads(forged.stdout.strip().splitlines()[-1])
    report.check(
        forged.returncode != 0 and verdict["correct"] is False,
        f"tampered digest: exit code {forged.returncode}, "
        f"correct={verdict['correct']}",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--write-contract", action="store_true")
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="seconds each traced run measures")
    args = parser.parse_args(argv)
    if args.write_contract:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.contract(), indent=2) + "\n"
        )
        return 0
    report = Report()
    check_contract(report)
    check_leak_scan(report)
    check_traces(report, args.seconds)
    check_tamper(report)
    print(f"{report.failed} checks failed" if report.failed else "all checks passed")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
