"""One cold repeat of one workload; prints one JSON result line.

Started by ``procs.run_child`` only.  The child imports ``repro`` from
the checkout's ``src/``, builds everything its workload needs from
nothing, measures for its share of the run's seconds, checks what the
program produced, makes sure it leaves no thread, process or socket
behind, and prints its record.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import procs
    from harness import Context
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    installed = layers.Installed(tracer) if tracer is not None else None
    ctx = Context(args, tracer, installed)
    try:
        WORKLOADS[args.workload](ctx)
    finally:
        ctx.end()
    if tracer is not None:
        ctx.layers.update(installed.metrics(ctx))
        tracer.write(HERE / "out" / f"trace-{args.workload}.jsonl")
    left = procs.survivors()
    ctx.check(not left, "left behind: " + ", ".join(left))
    print(json.dumps(ctx.record()))
    return 0 if not left else 3


if __name__ == "__main__":
    sys.exit(main())
