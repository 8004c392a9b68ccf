"""Parallel campaign execution across CPU cores.

The thesis ran its CPU-intensive tests "on multiple machines and
submitted results over the Internet to a central machine for collection
and analysis" (§2.2).  The single-machine equivalent is a process pool:
cases are independent (each carries its own labelled RNG streams), so
they parallelize embarrassingly and deterministically — results are
identical to a serial run of the same configs, whatever the worker
count or scheduling order.  Whole cases fan out across the pool
(:func:`run_cases_parallel`, the CLI's ``--workers`` option); a single
fresh-start case that needs to be fast runs on the batched kernel
instead (``kernel="batched"``).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.campaign import CaseConfig, CaseResult, run_case


def _run_indexed(
    indexed_config: Tuple[int, CaseConfig, str]
) -> Tuple[int, CaseResult]:
    index, config, kernel = indexed_config
    return index, run_case(config, kernel=kernel)


def run_cases_parallel(
    configs: Sequence[CaseConfig],
    workers: Optional[int] = None,
    kernel: str = "scalar",
) -> List[CaseResult]:
    """Run many cases across a process pool; order of results matches
    the order of ``configs``.

    ``workers=None`` uses all CPUs; ``workers<=1`` (or a single config)
    falls back to in-process execution, which keeps debugging and
    tracebacks simple.  ``kernel`` is forwarded to every
    :func:`run_case` (the batched backend falls back to scalar per
    case when a config is outside its surface).
    """
    configs = list(configs)
    if workers is None:
        workers = multiprocessing.cpu_count()
    if workers <= 1 or len(configs) <= 1:
        return [run_case(config, kernel=kernel) for config in configs]
    results: Dict[int, CaseResult] = {}
    # spawn (not fork) keeps worker state clean and matches all
    # platforms' defaults going forward.
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=min(workers, len(configs))) as pool:
        for index, result in pool.imap_unordered(
            _run_indexed,
            [(i, config, kernel) for i, config in enumerate(configs)],
        ):
            results[index] = result
    return [results[index] for index in range(len(configs))]
