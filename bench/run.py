"""Benchmark of the elastisph solver, one workload per invocation.

    python3 bench/run.py --workload lattice_r3 --seed 1 --seconds 20 --trace 0

Run it from the repository root.  ``--workload all`` runs every workload
named in BENCHMARK.json, one after another.  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer ones
(spans go to bench/out/).  Each line names a metric and its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every operation's output is checked outside the timed
part.  README.md next to this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# fresh processes whose set-up time is measured; the median is reported
SETUP_SAMPLES = 3
# every run ends within this many seconds or is abandoned
TIME_LIMIT_S = 170.0
# BLAS threads per workload, capped at the cores this process may use.
# Only the dense factorisation gains from a second thread (7 s instead of
# 12 s per solve on two cores); on the small products of the pair loop and
# the field evaluation a second thread made operations slower and their
# times twice as spread, so those workloads use one.
BLAS_THREADS = {"three_sphere_n20": 2}


def blas_threads(workload: str) -> int:
    return max(1, min(BLAS_THREADS.get(workload, 1), len(os.sched_getaffinity(0))))


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(argv: list[str], threads: int, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, **{var: str(threads) for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *argv, "--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: int, corrupt: bool, deadline: float) -> dict:
    """Metrics of one workload: end-to-end without tracing, per-layer with it."""
    threads = blas_threads(name)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if corrupt:
        argv.append("--corrupt-reference")
    if trace:
        OUT.mkdir(exist_ok=True)
        argv += ["--spans-out", str(OUT / f"spans-{name}-seed{seed}.json")]
        main = spawn(argv, threads, deadline)
        metrics = {k: tuple(v) for k, v in main["layers"].items()}
        notes = {"trace.op_s.p50": f"median of {len(main['traced_op_s'])} traced operations"}
    else:
        setups = [spawn(argv + ["--probe"], threads, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        main = spawn(argv, threads, deadline)
        setups.append(main["setup_s"])
        op_s = main["op_s"] or [0.0]  # no operation returned; correct is false
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s.p50": (statistics.median(op_s), "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        }
        notes = {"setup_s": f"median of {len(setups)} fresh processes",
                 "op_s.p50": f"median of {len(main['op_s'])} operations"}
    environment = dict(main["environment"], workload=name, seed=seed, commit=git_commit(),
                       nproc=os.cpu_count(), blas_threads=threads)
    return {"metrics": metrics, "notes": notes, "main": main, "environment": environment}


def report(name: str, result: dict) -> None:
    main = result["main"]
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# op_s {json.dumps([round(t, 6) for t in main['op_s']])}")
    for metric, (value, unit) in result["metrics"].items():
        note = result["notes"].get(metric, "")
        print(f"{name:18s} {metric:48s} {value:14.6g} {unit:6s} {note}")
    frac = main["failed"] / main["attempted"]
    print(f"{name:18s} {'ops_failed_frac':48s} {frac:14.6g} {'1':6s} "
          f"{main['failed']} of {main['attempted']} operations failed")
    for key, value in sorted(main["evidence"].items()):
        print(f"{name:18s} {'check.' + key:48s} {value:14.3e}        largest over operations")
    for message in main["messages"]:
        print(f"# {name}: {message}", file=sys.stderr)


def workload_names() -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload; 0 runs a single operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb every reference by 1%% (harness self-test)")
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so that subprocess.run
    # kills and reaps the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "elastisph" / "__init__.py").is_file():
        print(f"error: no elastisph source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = workload_names() if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + TIME_LIMIT_S * len(names)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, args.trace,
                             args.corrupt_reference, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        report(name, result)
        main_run = result["main"]
        summary["attempted"] += main_run["attempted"]
        summary["failed"] += main_run["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in result["metrics"].items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
