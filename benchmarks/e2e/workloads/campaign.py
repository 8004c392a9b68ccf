"""``campaign_fresh`` and ``campaign_cascading``: the paper's two run modes.

A unit is one case per registered algorithm over the same faults, asked
of ``run_case(kernel="batched")`` the way a user gets a campaign
fastest.  Fresh-start cases run on the batched kernel; cascading cases
are outside its surface today and fall back to the scalar driver, which
is what makes the two workloads each other's bypass partner.

The op of ``campaign_fresh`` is the simulated round.  A cascading round
costs anything between a silent poll and a 32-way state exchange,
depending on whether that seed's cascade left the algorithms blocked
(rounds/s ranged 1.1k..6.8k over 24 seeds at the parent commit, while
broadcasts/s stayed within 8 %), so the op of ``campaign_cascading`` is
the broadcast routed; an untimed scalar pass with a counting observer
(each unit's by one of the repeats) supplies the exact count and, for
free, a differential check of the outcomes the timed pass produced.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from harness import Context, digest
from spec import ALGORITHMS

FRESH = dict(n_processes=64, n_changes=12, mean_rounds_between_changes=2.0,
             runs=40, mode="fresh")
CASCADING = dict(n_processes=32, n_changes=12, mean_rounds_between_changes=2.0,
                 runs=10, mode="cascading")
#: Runs of the untimed scalar-vs-batched spot check (one algorithm per
#: run, chosen by the seed).
SPOT_RUNS = 20


def _case_digest(result) -> Dict[str, Any]:
    return {
        "outcomes": "".join("1" if ok else "0" for ok in result.outcomes),
        "rounds": result.rounds_total,
        "changes": result.changes_total,
    }


def _run(ctx: Context, shape: Dict[str, Any]) -> None:
    from repro.obs.bus import Subscriber
    from repro.sim import campaign
    from repro.sim.batch import BatchCaseResult
    from repro.sim.campaign import CaseConfig

    cascading = shape["mode"] == "cascading"

    def configs(seed: int) -> List[CaseConfig]:
        return [
            CaseConfig(name, master_seed=seed, **shape) for name in ALGORITHMS
        ]

    # Warm-up: one short case per algorithm through the same entry
    # point, so numpy, the kernel's engines and the algorithm classes
    # are loaded before the first timed call (always the same cases:
    # set-up time should not depend on the seed).
    for config in configs(0):
        campaign.run_case(replace(config, runs=2), kernel="batched")

    #: (unit, config, result, seconds) of every timed case.
    timed: List[Tuple[int, CaseConfig, Any, float]] = []
    ctx.begin()
    k = 0
    while k == 0 or not ctx.expired():
        with ctx.unit(k):
            for index, config in enumerate(configs(ctx.unit_seed(k))):
                if ctx.tracer is not None:
                    ctx.tracer.trace_id = f"{ctx.workload}/{k}/{index}"
                started = perf_counter()
                result = campaign.run_case(config, kernel="batched")
                timed.append((k, config, result, perf_counter() - started))
        k += 1
    ctx.end()

    batched = sum(isinstance(r, BatchCaseResult) for _, _, r, _ in timed)
    ctx.layers["sim.campaign.batched_share"] = batched / len(timed)

    class Broadcasts(Subscriber):
        def __init__(self) -> None:
            self.count = 0

        def on_broadcast(self, driver, sender, message) -> None:
            self.count += 1

    unit_digests: Dict[int, Dict[str, Any]] = {}
    for unit, config, result, seconds in timed:
        ops: Optional[int] = result.rounds_total
        if cascading:
            ops = None
            if ctx.counts_unit(unit):
                counter = Broadcasts()
                reference = campaign.run_case(config, observers=[counter])
                ops = counter.count
                ctx.check(
                    _case_digest(reference) == _case_digest(result),
                    f"{config.algorithm} seed {config.master_seed}: the timed "
                    "pass and the observed scalar pass disagree",
                )
        ctx.check(
            len(result.outcomes) == config.runs and result.rounds_total > 0,
            f"{config.algorithm}: {len(result.outcomes)} outcomes, "
            f"{result.rounds_total} rounds",
        )
        ctx.call(unit, ops, seconds)
        unit_digests.setdefault(unit, {})[config.algorithm] = _case_digest(
            result
        )
    ctx.digests = {str(unit): digest(cases) for unit, cases in unit_digests.items()}
    ctx.counts["unit0_rounds"] = sum(
        result.rounds_total for unit, _, result, _ in timed if unit == 0
    )

    if not cascading and ctx.repeat == 0:
        # Differential spot check, untimed, once per run: the scalar
        # driver is the oracle the batched kernel must match run for run.
        name = ALGORITHMS[ctx.seed % len(ALGORITHMS)]
        config = CaseConfig(
            name, master_seed=ctx.seed, **{**shape, "runs": SPOT_RUNS}
        )
        scalar = campaign.run_case(config, kernel="scalar")
        fast = campaign.run_case(config, kernel="batched")
        ctx.check(
            _case_digest(scalar) == _case_digest(fast),
            f"{name}: scalar and batched disagree on {SPOT_RUNS} runs",
        )
        ctx.digests[f"spot.{name}"] = digest(_case_digest(scalar))


def campaign_fresh(ctx: Context) -> None:
    _run(ctx, FRESH)


def campaign_cascading(ctx: Context) -> None:
    _run(ctx, CASCADING)
