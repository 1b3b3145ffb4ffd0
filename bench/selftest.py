"""Self-test of the benchmark: each workload once on n=16 grids.

    python3 bench/selftest.py

Runs bench/run.py with --tiny for every workload, untraced and traced, and
checks that each run passes its verification and prints as its last line
a result with exactly the declared metrics and units.  Then checks that
the benchmark fails, without a result, in a directory holding only
BENCHMARK.json and bench/.  Exits 1 on the first set of problems.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("picard_2d", "linear_3d", "cli_configs")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, declared: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"verification: correct={res['correct']} failed={res['failed']} "
                        f"attempted={res['attempted']}")
    metrics = res["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metrics differ: missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if m.get("unit") != declared.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {declared.get(name)!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')!r} is not a finite number")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(ROOT / ".bench_out", ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: expected a non-zero exit and no result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            found = check_result(run(ROOT, workload, trace), declared)
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
    problems += check_bare_directory()
    for p in problems:
        print(p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
