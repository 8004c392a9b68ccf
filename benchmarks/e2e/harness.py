"""What a workload is handed by its child process, and the record it fills."""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional


class Context:
    """What a workload is handed, and the record it fills in.

    A workload is a sequence of *units* numbered 0, 1, 2, ..; unit ``k``
    of a run is built from ``unit_seed(k)`` alone, so every repeat of
    the run measures the very same units (as many as fit its seconds).
    A unit is a list of timed *calls*; the parent keeps, for each call,
    the fastest of the repeats that made it.
    """

    def __init__(self, args: argparse.Namespace, tracer, installed) -> None:
        self._installed = installed
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.repeat: int = args.repeat
        self.repeats: int = args.repeats
        self.budget_s: float = args.seconds
        self.tracer = tracer
        self._spawned: float = args.spawned
        self._deadline = 0.0
        self.setup_s = 0.0
        #: unit -> [[ops, ms], ...] in call order; ops may be None when
        #: another repeat is the one that counts them.
        self.calls: Dict[int, List[List[Optional[float]]]] = {}
        #: Latency samples that are not per-call times (open-loop
        #: requests); when empty the calls' own times are the samples.
        self.latency_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Digests of what each unit produced; equal in every repeat,
        #: and pinned in expected.json for the default seed.
        self.digests: Dict[str, str] = {}
        #: Exact, seed-determined counts (compare.py demands equality).
        self.counts: Dict[str, float] = {}
        #: Workload-specific end-to-end material (see run.py).
        self.extras: Dict[str, Any] = {}
        #: Per-layer numbers the workload measured itself (traced runs).
        self.layers: Dict[str, float] = {}
        self.unit_seconds = 0.0

    def unit_seed(self, k: int) -> int:
        """The seed every input of unit ``k`` is derived from."""
        return self.seed * 1_000_003 + k

    def counts_unit(self, k: int) -> bool:
        """Whether this repeat does the untimed work unit ``k`` needs
        once per run (reference passes are shared out over repeats)."""
        return k % self.repeats == self.repeat

    def begin(self) -> None:
        """Set-up is over: the next statement is the first timed call."""
        self.setup_s = time.time() - self._spawned
        if self._installed is not None:
            self._installed.reset()
        self._deadline = time.perf_counter() + self.budget_s

    def end(self) -> None:
        """Timing is over: what follows (checks, reference passes) must
        not show up in the per-layer numbers."""
        if self._installed is not None:
            self._installed.uninstall()

    def expired(self) -> bool:
        return time.perf_counter() >= self._deadline

    def call(self, k: int, ops: Optional[float], seconds: float) -> None:
        """Record one timed call of unit ``k``."""
        self.calls.setdefault(k, []).append([ops, 1e3 * seconds])

    def check(self, ok: bool, message: str) -> bool:
        """One checked output; a false one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok

    @contextmanager
    def unit(self, k: int) -> Iterator[None]:
        """The root span of one unit (traced runs sum it up)."""
        if self.tracer is None:
            yield
            return
        self.tracer.trace_id = f"{self.workload}/{k}"
        started = time.perf_counter()
        with self.tracer.span("harness.unit"):
            yield
        self.unit_seconds += time.perf_counter() - started

    def layer(self, name: str):
        """A span around a call the harness itself makes into a layer."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def record(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "repeat": self.repeat,
            "setup_s": self.setup_s,
            "calls": {str(k): calls for k, calls in self.calls.items()},
            "latency_ms": self.latency_ms,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "digests": self.digests,
            "counts": self.counts,
            "extras": self.extras,
            "layers": self.layers,
            "unit_seconds": self.unit_seconds,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }


def digest(obj: Any) -> str:
    """SHA-256 over the canonical JSON of ``obj``."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
