"""``check_fuzz``: the differential fuzzer over all four fault classes.

A unit is one ``fuzz`` campaign of :data:`SCHEDULES` plans; every plan
runs under all seven algorithms on the scalar driver with the fault
injector and the per-class oracles.  The op is the plan checked; a
timed call is one plan (generation plus check), clocked by the
``on_schedule`` callback the CLI uses for progress.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

from harness import Context, digest

SCHEDULES = 100
FAULT_CLASSES = ("loss", "crashrec", "byzantine", "churn")


def check_fuzz(ctx: Context) -> None:
    from repro.check import fuzzer
    from repro.check.fuzzer import FuzzConfig

    def config(seed: int, schedules: int) -> FuzzConfig:
        return FuzzConfig(
            master_seed=seed, schedules=schedules, fault_classes=FAULT_CLASSES
        )

    fuzzer.fuzz(config(ctx.seed, 5))  # warm-up: every import, every class

    results = []
    ctx.begin()
    k = 0
    while k == 0 or not ctx.expired():
        marks: List[float] = []
        with ctx.unit(k):
            started = perf_counter()
            result = fuzzer.fuzz(
                config(ctx.unit_seed(k), SCHEDULES),
                lambda index, report: marks.append(perf_counter()),
            )
        for before, after in zip([started] + marks, marks):
            ctx.call(k, 1, after - before)
        results.append((k, result))
        k += 1
    ctx.end()

    for unit, result in results:
        ctx.check(
            result.schedules_run == SCHEDULES,
            f"unit {unit}: {result.schedules_run} of {SCHEDULES} plans ran",
        )
        ctx.check(
            not result.unexpected_failures,
            f"unit {unit}: {len(result.unexpected_failures)} findings the "
            "fault oracle does not sanction: "
            + "; ".join(
                f.describe()[:200] for f in result.unexpected_failures[:2]
            ),
        )
        ctx.digests[str(unit)] = digest({
            "changes": result.changes_injected,
            "expected": [f.index for f in result.expected_failures],
        })
    first = results[0][1]
    ctx.counts["unit0_changes"] = first.changes_injected
    ctx.counts["unit0_expected_failures"] = len(first.expected_failures)
    ctx.layers["check.expected_failures"] = sum(
        len(r.expected_failures) for _, r in results
    )
    ctx.layers["check.unexpected_failures"] = sum(
        len(r.unexpected_failures) for _, r in results
    )
