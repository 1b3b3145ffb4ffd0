"""Run one workload of the fpme benchmark and print its metrics.

    python3 bench/run.py --workload picard_2d --seed 0 --seconds 28 --trace 0

Run from the root of a checkout; fpme is imported from its ``src``.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured with
tracing off; with ``--trace 1`` the per-layer metrics come from isolated
layer timings and one traced call.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable table and the environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibration import NominalTimer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("picard_2d", "linear_3d", "cli_configs")
DEADLINE_S = 170.0
# Fresh-interpreter set-ups per run; setup_s is their median.
SETUPS = 7


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FPME_THREADS", None)
    return env


def workload_cmd(step: str, args) -> list[str]:
    cmd = [sys.executable, str(BENCH / "workloads.py"), step,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    return cmd + (["--tiny"] if args.tiny else [])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, versions: dict) -> dict:
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_sha": git_sha(),
        "seed": args.seed,
        "cli_pool_size": min(4, nproc),
    }


def setup_times(args, env, count: int) -> tuple[list[float], list[float]]:
    """Raw and nominal seconds of fresh interpreters that import fpme,
    build the inputs and make one warm-up call."""
    timed = NominalTimer()
    raw, nom = [], []
    for _ in range(count):
        # A pipe makes run() wait for its EOF at the child's exit; without
        # one, a timed wait polls the child with sleeps of up to 50 ms.
        _, r, n = timed(lambda: subprocess.run(workload_cmd("setup", args), env=env,
                                               cwd=ROOT, stdout=subprocess.PIPE,
                                               timeout=60, check=True))
        raw.append(r)
        nom.append(n)
    return raw, nom


def run_workload(args, env, timeout: float) -> dict:
    proc = subprocess.run(workload_cmd("trace" if args.trace else "measure", args),
                          env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"error: workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, env, declared: dict) -> tuple[dict, dict, dict]:
    """Workload result, metrics, and readable rows name -> (q1, median, q3, n, unit)."""
    setup_raw, setups = setup_times(args, env, SETUPS)
    res = run_workload(args, env, DEADLINE_S - sum(setup_raw))
    samples = res["samples"]
    wall = statistics.median(samples["wall_s"])
    modes = [k for k in samples if k.startswith("cli.")]
    if modes:
        # Sum of the per-mode medians: steadier than the median of pass sums.
        wall = sum(statistics.median(samples[k]) for k in modes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "rk4_steps_per_s": res["rk4_steps"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    rows = {"setup_s": (*quartiles(setups), len(setups), "s")}
    for key, vals in samples.items():
        name = "pass_sum_s" if modes and key == "wall_s" else key
        rows[name] = (*quartiles(vals), len(vals), "s")
    if modes:
        rows["wall_s"] = (None, wall, None, len(samples["wall_s"]), "s")
    rows["raw setup_s"] = (*quartiles(setup_raw), len(setup_raw), "s")
    rows["calibration_s"] = (*quartiles(res["kernels"]), len(res["kernels"]), "s")
    rows["rk4_steps_per_s"] = (None, values["rk4_steps_per_s"], None, len(samples["wall_s"]), "1/s")
    rows["peak_rss_mb"] = (None, values["peak_rss_mb"], None, 1, "MB")
    rows["fail_ratio"] = (None, res["failed"] / res["attempted"], None, res["attempted"], "1")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    return res, metrics, rows


def _cell(x) -> str:
    return f"{x:12.6g}" if x is not None else f"{'-':>12s}"


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the fpme benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="n=16 grids, for the self-test; no reference values")
    args = parser.parse_args()

    missing = [p for p in ("src/fpme/__init__.py", "configs/linear.cfg", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an fpme checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = child_env()
    declared_spec = spec()
    try:
        if args.trace:
            declared = {m["name"]: m["unit"] for m in declared_spec["per_layer"]}
            res = run_workload(args, env, DEADLINE_S)
            metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u in declared.items()}
            for name, m in metrics.items():
                print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
        else:
            declared = {m["name"]: m["unit"] for m in declared_spec["end_to_end"]}
            res, metrics, rows = end_to_end(args, env, declared)
            print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}  unit")
            for name, (q1, med, q3, n, unit) in rows.items():
                print(f"{name:24s} {_cell(med)} {_cell(q1)} {_cell(q3)} {n:4d}  {unit}")
            print(f"rk4_steps per call: {res['rk4_steps']}")
    finally:
        shutil.rmtree(ROOT / ".bench_out", ignore_errors=True)
    for problem in res["problems"]:
        print(f"FAILED: {problem}")
    print("summary " + json.dumps(res["summary"], sort_keys=True))
    print("env " + json.dumps(environment(args, res["versions"]), sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
