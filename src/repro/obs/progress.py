"""Live campaign progress reporting.

A :class:`ProgressReporter` is a subscriber that narrates a campaign
while it runs — run counts, throughput, rounds executed — to any text
stream.  On a TTY it redraws one sticky status line (carriage-return
style); on a plain stream (CI logs, files) it emits one line per
reporting interval instead, so logs stay readable.

The reporter writes to the stream only, never into the measured
results, so attaching one cannot perturb byte-identity guarantees.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional, TextIO

from repro.obs.bus import Subscriber


class ProgressReporter(Subscriber):
    """Report live campaign progress to a text stream.

    ``every`` sets the reporting interval in completed runs; the final
    run of a case always reports.  Without a surrounding case (bare
    driver usage) the reporter counts runs without a known total.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        every: int = 25,
        label: Optional[str] = None,
    ) -> None:
        if every < 1:
            raise ValueError("reporting interval must be at least 1 run")
        self.stream = stream if stream is not None else sys.stderr
        self.every = every
        self.label = label
        self._total: Optional[int] = None
        self._completed = 0
        self._rounds = 0
        self._started = time.perf_counter()
        self._sticky = bool(getattr(self.stream, "isatty", lambda: False)())

    # ------------------------------------------------------------------
    # Subscriber hooks.
    # ------------------------------------------------------------------

    def on_case_start(self, config: Any) -> None:
        """Reset counters for a new case and adopt its identity."""
        self._total = config.runs
        self._completed = 0
        self._rounds = 0
        self._started = time.perf_counter()
        if self.label is None:
            self.label = str(config.algorithm)

    def on_round(self, driver: Any) -> None:
        """Track rounds for the throughput line."""
        self._rounds += 1

    def on_run_end(self, driver: Any) -> None:
        """Report at every interval boundary and on the final run."""
        self._completed += 1
        if (
            self._completed % self.every == 0
            or self._completed == self._total
        ):
            self._emit(final=self._completed == self._total)

    def on_case_end(self, result: Any) -> None:
        """Finish the sticky line so later output starts clean."""
        if self._sticky:
            self.stream.write("\n")
            self.stream.flush()

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------

    def _emit(self, final: bool) -> None:
        elapsed = time.perf_counter() - self._started
        rate = self._rounds / elapsed if elapsed > 0 else 0.0
        total = f"/{self._total}" if self._total is not None else ""
        label = f"{self.label}: " if self.label else ""
        text = (
            f"{label}run {self._completed}{total}  "
            f"{self._rounds} rounds  {rate:,.0f} rounds/s"
        )
        if self._sticky:
            self.stream.write("\r" + text.ljust(60))
        else:
            self.stream.write(text + "\n")
        self.stream.flush()
