"""``explore``: the exhaustive fork-based model check of every algorithm.

A unit explores all seven algorithms at n=4, depth 2, gaps 0..3 --
415,744 scenarios, every one of which must pass.  The space is
exhaustive, hence the same for every seed.  The op is the scenario
covered, a timed call one ``explore()``.
"""

from __future__ import annotations

import importlib
from time import perf_counter

from harness import Context, digest
from spec import ALGORITHMS

BOUND = dict(n_processes=4, depth=2, gap_options=(0, 1, 2, 3))
SCENARIOS_PER_UNIT = 415_744


def explore(ctx: Context) -> None:
    # ``repro.sim.explore`` the attribute is the function; the module
    # (whose attribute a traced run wraps) has to be asked for by name.
    explorer = importlib.import_module("repro.sim.explore")

    for name in ALGORITHMS:  # warm-up: every algorithm class once
        explorer.explore(name, n_processes=3, depth=1)

    results = []
    ctx.begin()
    k = 0
    while k == 0 or not ctx.expired():
        with ctx.unit(k):
            for name in ALGORITHMS:
                started = perf_counter()
                result = explorer.explore(name, **BOUND)
                ctx.call(k, result.scenarios, perf_counter() - started)
                results.append((k, result))
        k += 1
    ctx.end()

    stats = [r.stats for _, r in results]
    for unit in range(k):
        mine = [r for u, r in results if u == unit]
        ctx.check(
            all(r.passed for r in mine),
            f"unit {unit}: violations in "
            + ", ".join(r.algorithm for r in mine if not r.passed),
        )
        ctx.check(
            sum(r.scenarios for r in mine) == SCENARIOS_PER_UNIT,
            f"unit {unit}: {sum(r.scenarios for r in mine)} scenarios, "
            f"expected {SCENARIOS_PER_UNIT}",
        )
    # The space is seed-independent, so one digest serves every unit.
    ctx.digests["space"] = digest({
        r.algorithm: [r.scenarios, r.available] for u, r in results if u == 0
    })
    ctx.counts["unit0_available"] = sum(
        r.available for u, r in results if u == 0
    )
    nodes = sum(s.nodes for s in stats)
    ctx.layers["sim.explore.scenarios"] = sum(r.scenarios for _, r in results)
    ctx.layers["sim.explore.nodes"] = nodes
    ctx.layers["sim.explore.dedup_hit_share"] = (
        sum(s.dedup_hits for s in stats) / nodes if nodes else 0.0
    )
