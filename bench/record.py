"""Repeat the benchmark over several seeds and record the results.

    python3 bench/record.py --label baseline --seeds 1-10 [--workloads lattice_r3,...]

Runs run.py once per workload and seed with the run length of
BENCHMARK.json (untraced), then once traced with the first seed, and
writes bench/results/<label>.json: every run's result line, environment
and operation times, and per end-to-end metric the median, the quartiles
and the spread (quartile distance over median) the acceptance rule uses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 2)[2]) for line in lines
               if line.startswith("# environment "))
    op_s = next(json.loads(line.split(" ", 2)[2]) for line in lines
                if line.startswith("# op_s "))
    return {"seed": seed, "trace": trace, "environment": env, "op_s": op_s,
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(run_once(workload, seed, seconds, 0))
            res = runs[-1]["result"]
            print(workload, seed, res["correct"], res["failed"], {
                k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            summary[metric] = dict(spread(values), bound=bound) if len(values) > 1 else {}
            print(f"  {metric}: {summary[metric]}", flush=True)
        entry = {"summary": summary, "runs": runs,
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs)}
        if not args.no_trace:
            entry["traced"] = run_once(workload, seeds_of(args.seeds)[0], seconds, 1)
        record["workloads"][workload] = entry
    out = BENCH / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("wrote", out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
