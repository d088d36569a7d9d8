"""One benchmark process: set up a workload, run timed operations, check them.

Started by run.py, never by hand.  The last line of standard output is
one JSON object with the raw measurements; run.py turns them into
metrics.  ``--spawned-at`` is run.py's ``time.perf_counter()`` just
before it started this process (the clock is system-wide), so set-up
time counts interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# failure messages kept in the output; "failed" counts every failure
MAX_MESSAGES = 5


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(args) -> dict:
    workload = workloads.make(args.workload, corrupt=args.corrupt_reference)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracer.phase("setup"):
            workload.setup()
    else:
        workload.setup()
    setup_s = time.perf_counter() - args.spawned_at
    if args.probe:
        return {"setup_s": setup_s}

    rng = np.random.default_rng(args.seed)
    op_s: list[float] = []
    traced_op_s: list[float] = []
    memory_op_s: list[float] = []
    messages: list[str] = []
    evidence: dict[str, float] = {}
    attempted = failed = 0
    # a traced run cycles through an untraced, a time-traced and a
    # memory-traced operation, so that the tracing overhead is measured
    # in the same process
    kinds = ("untraced", "op", "op.memory") if tracer else ("untraced",)
    times = {"untraced": op_s, "op": traced_op_s, "op.memory": memory_op_s}
    # another operation starts only if it should end within the run,
    # judged by the last one with its check, so that runs of long
    # operations do not overshoot by most of an operation
    start = time.perf_counter()
    cycle_s = 0.0
    while attempted < len(kinds) or time.perf_counter() - start + cycle_s <= args.seconds:
        cycle_start = time.perf_counter()
        inputs = workload.inputs(rng)
        kind = kinds[attempted % len(kinds)]
        attempted += 1
        try:
            if kind == "untraced":
                t0 = time.perf_counter()
                output = workload.run(inputs)
                elapsed = time.perf_counter() - t0
            else:
                with tracer.phase(kind, memory=kind == "op.memory"):
                    t0 = time.perf_counter()
                    output = workload.run(inputs)
                    elapsed = time.perf_counter() - t0
        except Exception:
            failed += 1
            messages.append(f"operation {attempted} raised: {traceback.format_exc(limit=3)}")
            cycle_s = time.perf_counter() - cycle_start
            continue
        times[kind].append(elapsed)
        try:
            found, errors = workload.check(inputs, output)
        except Exception:
            found, errors = {}, [f"check raised: {traceback.format_exc(limit=3)}"]
        output = None  # release the operation's arrays before the next one
        for key, value in found.items():
            evidence[key] = max(evidence.get(key, value), value)
        if errors:
            failed += 1
            messages.append(f"operation {attempted}: " + "; ".join(errors))
        cycle_s = time.perf_counter() - cycle_start

    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "traced_op_s": traced_op_s,
        "memory_op_s": memory_op_s,
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:MAX_MESSAGES],
        "evidence": evidence,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "environment": environment(),
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, op_s)
        if args.spans_out:
            tracer.write(args.spans_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--probe", action="store_true",
                        help="exit after set-up, reporting only the set-up time")
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
