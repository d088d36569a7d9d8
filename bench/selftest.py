"""Self-test of the benchmark harness on tiny inputs, in about a minute.

    python3 bench/selftest.py

Runs run.py on tiny variants of the four workloads (lattice_r1, three
spheres at N=4, 50 field points, single products) and checks that

- every end-to-end and per-layer metric BENCHMARK.json names is printed,
  with its unit, and no other;
- with correct references no operation fails;
- with every reference deliberately perturbed, every operation fails;
- in a directory holding only BENCHMARK.json and bench/, run.py exits
  non-zero without printing a result.

Exits 0 when all of them hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY = ("tiny_lattice_r1", "tiny_three_sphere_n4", "tiny_field_eval", "tiny_matvec_r1")


def run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    for name in TINY:
        for trace in (0, 1):
            code, out = run("--workload", name, "--seed", "7", "--seconds", "0",
                            "--trace", str(trace))
            result = last_json(out) if code == 0 else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if code != 0 or got != expected[trace]:
                problems.append(f"{name} trace {trace}: exit {code}, metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            elif not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{name} trace {trace}: operations failed: {result}")
        code, out = run("--workload", name, "--seed", "7", "--seconds", "0", "--trace", "0",
                        "--corrupt-reference")
        result = last_json(out) if code == 0 else {}
        if code != 0 or result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{name}: a wrong reference did not fail every operation: {result}")

    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = run("--workload", TINY[0], "--seed", "7", "--seconds", "0", "--trace", "0",
                    cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        problems.append(f"without the program's source run.py exited {code} and printed {out!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
