"""Workload process of the fpme benchmark.

bench/run.py starts this file once per step, with the checkout's ``src`` on
PYTHONPATH:

    workloads.py setup   --workload W --seed N   import, build inputs, one warm-up call
    workloads.py measure --workload W --seed N --seconds S   timed calls, tracing off
    workloads.py trace   --workload W --seed N --seconds S   layer timings and one traced call

``measure`` and ``trace`` print one JSON object as their last stdout line.
The benchmark seed only picks the generated inputs; fpme receives fields,
configs and ``--set`` overrides, never the seed itself.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibration import NominalTimer
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
TWO_PI = 2.0 * math.pi
clock = time.perf_counter


# Runs one fpme CLI call the way the installed `fpme` script does, then
# appends the process's own peak resident set (VmHWM) to stderr.  VmHWM
# belongs to the address space made at exec, so unlike the rusage of a
# child it holds nothing of the process that spawned it.
CLI_CHILD = """\
import sys
from fpme.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as status:
    sys.stderr.write("\\n" + next(l for l in status if l.startswith("VmHWM:")))
sys.exit(rc)
"""


def vmhwm_mb(text: str) -> float | None:
    """Peak resident set in MB from the VmHWM line of a /proc status text."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def field_seeds(seed: int, count: int) -> list[int]:
    """Independent generator seeds for the inputs of one run."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count)]


def compare_reference(workload: str, summary: dict) -> list[str]:
    """Tolerance comparison against values kept for the default seed."""
    ref = json.loads(REFERENCE.read_text())[workload]
    problems = []
    for key, expected in ref["values"].items():
        got = summary.get(key)
        if got is None or not math.isclose(got, expected, rel_tol=ref["rtol"],
                                           abs_tol=ref["atol"]):
            problems.append(f"reference {key}: got {got!r}, expected {expected!r}")
    return problems


def time_layer(fn) -> float:
    """Median microseconds per call over five repeats of about 60 ms each."""
    t = clock()
    fn()
    once = clock() - t
    n = max(1, int(0.06 / max(once, 1e-9)))
    per_call = []
    for _ in range(5):
        t = clock()
        for _ in range(n):
            fn()
        per_call.append((clock() - t) / n)
    return statistics.median(per_call) * 1e6


def solver_layers(grid, u, v, s, epsilon, alpha, moll_epsilon) -> dict:
    """Isolated timings of the public layer functions on one grid."""
    from fpme.diagnostics import RecorderConfig, record
    from fpme.fracops import MollifierKernel, mollify
    from fpme.grid import forward_transform, inverse_transform
    from fpme.linear import make_coefficient_ops, rhs_with_ops
    from fpme.norms import DyadicPartition, besov_norm, sobolev_norm

    ops = make_coefficient_ops(v, s, epsilon)
    partition = DyadicPartition(grid)
    recorder = RecorderConfig(alpha=alpha, partition=partition,
                              coefficient_scale=sobolev_norm(v, alpha))
    kernel = MollifierKernel(grid, moll_epsilon)
    return {
        "layer.transform_pair_us": time_layer(lambda: inverse_transform(forward_transform(u))),
        "layer.rhs_us": time_layer(lambda: rhs_with_ops(u, ops)),
        "layer.coefficient_ops_us": time_layer(lambda: make_coefficient_ops(v, s, epsilon)),
        "layer.sobolev_norm_us": time_layer(lambda: sobolev_norm(u, alpha)),
        "layer.besov_norm_us": time_layer(lambda: besov_norm(u, alpha, partition)),
        "layer.record_us": time_layer(lambda: record(u, 0.0, 0.0, recorder, None)),
        "layer.mollify_us": time_layer(lambda: mollify(u, kernel)),
        "layer.points_per_fft": grid.size,
    }


class Picard2D:
    """run_picard on a seeded 2-D bump: many small transforms."""

    RK4_STEPS = 1600  # 4 advances of 400 segments, one step each

    def __init__(self, seed: int, tiny: bool):
        from fpme import FieldGenerator, Grid, PicardConfig

        n, width, self.moll_epsilon = (16, 2.5, 1.0) if tiny else (64, 0.8, 0.4)
        self.grid = Grid(2, n, TWO_PI)
        (u_seed,) = field_seeds(seed, 1)
        self.u0 = FieldGenerator("multi_bump", seed=u_seed, amplitude=0.05,
                                 width=width).generate(self.grid)
        self.config = PicardConfig(s=0.75, alpha=2.1, samples=400)

    def warm_up(self):
        from fpme.linear import make_coefficient_ops, rhs_with_ops

        rhs_with_ops(self.u0, make_coefficient_ops(self.u0, self.config.s, 0.0))

    def run(self, out: Path):
        import fpme.picard

        return fpme.picard.run_picard(self.u0, self.config)

    def check(self, result, out: Path) -> list[str]:
        problems = []
        deltas = result.state.deltas
        if not result.state.converged or not deltas:
            problems.append("picard did not converge")
        elif not deltas[-1] < self.config.tol_picard:
            problems.append(f"last delta {deltas[-1]:.3e} not below tol_picard")
        masses = [r.mass for r in result.records]
        if max(abs(m - masses[0]) for m in masses) > 1e-12 * abs(masses[0]):
            problems.append("picard trajectory does not conserve mass")
        return problems

    def summary(self, result) -> dict:
        last = result.records[-1]
        return {"horizon": result.horizon, "iterates": len(result.state.deltas),
                "l2": last.l2, "h_alpha": last.h_alpha, "besov_alpha": last.besov_alpha,
                "mass": last.mass, "min_u": last.min_u}

    def layers(self) -> dict:
        c = self.config
        return solver_layers(self.grid, self.u0, self.u0, c.s, 0.0, c.alpha,
                             self.moll_epsilon)


class Linear3D:
    """solve_linear on seeded 3-D bumps with snapshot and CSV output: few,
    large transforms."""

    STEPS = RK4_STEPS = 6
    T_END = 0.015  # dt = 0.0025, below 0.5 / rho_est for these amplitudes

    def __init__(self, seed: int, tiny: bool):
        from fpme import FieldGenerator, Grid, LinearProblem, TimeStepPolicy

        n, width, epsilon = (16, 2.5, 1.0) if tiny else (64, 0.8, 0.4)
        self.grid = Grid(3, n, TWO_PI)
        u_seed, v_seed = field_seeds(seed, 2)
        u0 = FieldGenerator("multi_bump", seed=u_seed, amplitude=0.5,
                            width=width).generate(self.grid)
        v = FieldGenerator("multi_bump", seed=v_seed, amplitude=0.5,
                           width=width * 1.125).generate(self.grid)
        self.problem = LinearProblem(v=v, u0=u0, s=0.75, epsilon=epsilon, t_end=self.T_END)
        self.policy = TimeStepPolicy(dt_max=self.T_END / self.STEPS)
        self.alpha = 2.6
        self.snapshot_times = (0.0, self.T_END / 2, self.T_END)

    def warm_up(self):
        from fpme.linear import make_coefficient_ops, rhs_with_ops

        p = self.problem
        rhs_with_ops(p.u0, make_coefficient_ops(p.v, p.s, p.epsilon))

    def run(self, out: Path):
        import fpme.linear
        import fpme.reporting
        import fpme.snapshots

        sol = fpme.linear.solve_linear(self.problem, self.policy, self.alpha, 1,
                                       self.snapshot_times)
        out.mkdir(parents=True, exist_ok=True)
        for idx, (t, fld) in enumerate(sol.snapshots):
            fpme.snapshots.write_snapshot(out / f"snapshot_{idx:03d}.fpm1", fld, t)
        fpme.reporting.write_records_csv(sol.records, out / "diagnostics.csv")
        return sol

    def check(self, sol, out: Path) -> list[str]:
        from fpme import read_snapshot

        problems = []
        recs = sol.records
        if len(recs) != self.STEPS + 1:
            problems.append(f"{len(recs)} records, expected {self.STEPS + 1}")
        m0 = recs[0].mass
        if max(abs(r.mass - m0) for r in recs) > 1e-12 * abs(m0):
            problems.append("mass not conserved within round-off")
        if any(b.l2 > a.l2 * (1.0 + 1e-12) for a, b in zip(recs, recs[1:])):
            problems.append("L2 norm increased")
        if [t for t, _ in sol.snapshots] != list(self.snapshot_times):
            problems.append("snapshot times differ from the requested ones")
        last, t_last = read_snapshot(out / f"snapshot_{len(sol.snapshots) - 1:03d}.fpm1")
        if t_last != self.T_END or not np.array_equal(last.values, sol.final.values):
            problems.append("final snapshot does not read back bit-exactly")
        rows = (out / "diagnostics.csv").read_text().splitlines()
        if len(rows) != len(recs) + 1:
            problems.append("diagnostics.csv row count differs from the records")
        return problems

    def summary(self, sol) -> dict:
        last = sol.records[-1]
        return {"l2": last.l2, "h_alpha": last.h_alpha, "besov_alpha": last.besov_alpha,
                "mass": last.mass, "min_u": last.min_u}

    def layers(self) -> dict:
        p = self.problem
        return solver_layers(self.grid, p.u0, p.v, p.s, p.epsilon, self.alpha, p.epsilon)


CLI_MODES = (
    ("linear", "linear.cfg"),
    ("picard", "picard.cfg"),
    ("sweep_epsilon", "sweep.cfg"),
    ("properties", "properties.cfg"),
)


def _tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


class CliConfigs:
    """The four CLI modes on the shipped configs, one fpme process each.

    One call is one operation.  The first pass runs in-process and is the
    byte reference: every later pass on the same seed must write the same
    bytes.
    """

    RK4_STEPS = 2800  # linear 400 + picard 4 x 400 + sweep 4 x 200

    def __init__(self, seed: int, tiny: bool):
        initial_seed, coefficient_seed, properties_seed = field_seeds(seed, 3)
        self.overrides = {
            "initial.seed": initial_seed,
            "coefficient.seed": coefficient_seed,
            "properties.seed": properties_seed,
        }
        if tiny:
            self.overrides.update({
                "grid.n": 16, "initial.width": 2.5, "coefficient.width": 2.5,
                "solver.epsilon": 1.0, "sweep.epsilons": "2.0, 1.5, 1.0",
                "properties.count": 8,
            })
        self.reference_hashes: dict[str, dict] = {}
        self.peak_rss_mb = 0.0  # the largest VmHWM of the fpme subprocesses

    def argv(self, mode: str, cfg: str, out: Path) -> list[str]:
        sets = {**self.overrides, "output.dir": out / mode}
        argv = [mode, "--config", str(ROOT / "configs" / cfg)]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def warm_up(self):
        pass

    def run_pass(self, out: Path, in_process: bool, timed) -> dict:
        """Run the four modes through timed; per mode: return code, start,
        raw and nominal seconds, stderr."""
        import fpme.cli

        def in_proc(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return fpme.cli.main(argv), ""

        def subproc(argv):
            proc = subprocess.run([sys.executable, "-c", CLI_CHILD, *argv],
                                  capture_output=True, text=True, timeout=120)
            self.peak_rss_mb = max(self.peak_rss_mb, vmhwm_mb(proc.stderr) or 0.0)
            return proc.returncode, proc.stderr

        one = in_proc if in_process else subproc
        calls = {}
        for mode, cfg in CLI_MODES:
            argv = self.argv(mode, cfg, out)
            start = clock()
            (rc, err), raw, nom = timed(lambda: one(argv))
            calls[mode] = {"rc": rc, "start": start, "raw_s": raw, "nominal_s": nom,
                           "stderr": err.strip()}
        return calls

    def check_call(self, mode: str, call: dict, out: Path) -> list[str]:
        if call["rc"] != 0:
            return [f"{mode} exited {call['rc']}: {call['stderr'][-300:]}"]
        problems = []
        d = out / mode
        if mode == "sweep_epsilon":
            if any(r["decreasing_from_prev"] != "true" for r in _csv_rows(d / "summary.csv")):
                problems.append("sweep_epsilon: l2_diff not decreasing with epsilon")
        if mode == "properties":
            if any(r["passed"] != "true" for r in _csv_rows(d / "report.csv")):
                problems.append("properties: a check failed in report.csv")
        hashes = _tree_hashes(d)
        ref = self.reference_hashes.setdefault(mode, hashes)
        if hashes != ref:
            problems.append(f"{mode}: outputs differ from the first pass on this seed")
        return problems

    def summary(self, out: Path) -> dict:
        lin = _csv_rows(out / "linear" / "diagnostics.csv")[-1]
        pic = _csv_rows(out / "picard" / "diagnostics.csv")[-1]
        its = _csv_rows(out / "picard" / "iterates.csv")
        sweep = _csv_rows(out / "sweep_epsilon" / "summary.csv")
        report = _csv_rows(out / "properties" / "report.csv")
        s = {f"linear.{k}": float(lin[k]) for k in ("l2", "h_alpha", "mass", "min_u")}
        s.update({"picard.horizon": float(pic["t"]), "picard.l2": float(pic["l2"]),
                  "picard.iterates": len(its), "properties.checks": len(report)})
        s.update({f"sweep.l2_diff_{r['epsilon']}": float(r["l2_diff"]) for r in sweep})
        return s

    def layers(self) -> dict:
        from fpme import parse_config

        spec = parse_config((ROOT / "configs" / "linear.cfg").read_text(), mode="linear",
                            overrides={k: str(v) for k, v in self.overrides.items()})
        g = spec.grid
        return solver_layers(g, spec.initial.generate(g), spec.coefficient.generate(g),
                             spec.s, spec.epsilon, spec.alpha, spec.epsilon)


WORKLOADS = {"picard_2d": Picard2D, "linear_3d": Linear3D, "cli_configs": CliConfigs}


def _untimed(fn):
    t = clock()
    out = fn()
    raw = clock() - t
    return out, raw, raw


class Run:
    """Calls, verification and counts of one workload process.

    With calibrate, every call is timed by a NominalTimer; without (the
    traced run, whose tracer would record the kernel's transforms) the
    nominal time is the raw one.
    """

    def __init__(self, args, calibrate: bool):
        self.args = args
        self.timed = NominalTimer() if calibrate else _untimed
        self.out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.summary: dict = {}
        self.calls: dict = {}

    def _fail(self, problems):
        self.problems.extend(problems)
        return bool(problems)

    def solver_call(self, w) -> tuple[float, float]:
        """One verified solve; returns its raw and nominal seconds.  An
        fpme error fails the operation, not the workload process."""
        from fpme import FpmeError

        out = self.out / "call"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1

        def attempt():
            try:
                return w.run(out), None
            except FpmeError as exc:  # NoConvergence, BlowUp, ...
                return None, exc

        (result, error), raw, nom = self.timed(attempt)
        if error is not None:
            self.failed += self._fail([f"{type(error).__name__}: {error}"])
            return raw, nom
        problems = w.check(result, out)
        self.summary = w.summary(result)
        if self.args.seed == DEFAULT_SEED and not self.args.tiny:
            problems += compare_reference(self.args.workload, self.summary)
        self.failed += self._fail(problems)
        return raw, nom

    def cli_pass(self, w, in_process: bool) -> dict:
        """One verified pass of the four modes; returns the per-mode calls."""
        shutil.rmtree(self.out, ignore_errors=True)
        calls = w.run_pass(self.out, in_process, self.timed)
        for mode, call in calls.items():
            self.attempted += 1
            self.failed += self._fail(w.check_call(mode, call, self.out))
        if all(c["rc"] == 0 for c in calls.values()):
            self.summary = w.summary(self.out)
            if self.args.seed == DEFAULT_SEED and not self.args.tiny:
                problems = compare_reference(self.args.workload, self.summary)
                if self._fail(problems):
                    self.failed += 1
        return calls

    def call(self, w, in_process=False) -> dict:
        """One operation of the workload: nominal seconds as wall_s and, for
        the CLI, cli.<mode>_s; raw seconds under the same names prefixed
        with "raw "."""
        if isinstance(w, CliConfigs):
            self.calls = self.cli_pass(w, in_process)
            times = {}
            for kind, prefix in (("nominal_s", ""), ("raw_s", "raw ")):
                modes = {f"{prefix}cli.{m}_s": c[kind] for m, c in self.calls.items()}
                times.update({f"{prefix}wall_s": sum(modes.values()), **modes})
            return times
        raw, nom = self.solver_call(w)
        return {"wall_s": nom, "raw wall_s": raw}

    def result(self, **extra) -> dict:
        import fpme
        import scipy

        shutil.rmtree(self.out, ignore_errors=True)
        versions = {"numpy": np.__version__, "scipy": scipy.__version__,
                    "fpme": fpme.__version__}
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, "summary": self.summary,
                "versions": versions, **extra}


def measure(args) -> dict:
    """Timed calls for --seconds, each bracketed by calibration kernel runs.

    The only instrument installed is a counter of RK4 steps, one list
    append per step.  The CLI's fpme processes cannot be counted, so an
    in-process warm-up pass counts them and keeps the byte reference; the
    solvers get a warm-up transform instead and count on every call, which
    must take the same number of steps each time.
    """
    w = WORKLOADS[args.workload](args.seed, args.tiny)
    run = Run(args, calibrate=True)
    samples: dict[str, list[float]] = {}
    with Tracer(only={"linear.rk4"}) as counter:
        if isinstance(w, CliConfigs):
            run.call(w, in_process=True)
        else:
            w.warm_up()
        steps = {len(counter.spans)}
        start = clock()
        while not samples or clock() - start < args.seconds:
            before = len(counter.spans)
            for key, value in run.call(w).items():
                samples.setdefault(key, []).append(value)
            if not isinstance(w, CliConfigs):
                steps.add(len(counter.spans) - before)
    steps.discard(0)
    if len(steps) > 1:
        run.failed += 1
        run.problems.append(f"RK4 step count differs between calls: {sorted(steps)}")
    rk4_steps = max(steps, default=0)
    if counter.missing:
        print(f"warning: RK4 steps not countable, using the nominal {w.RK4_STEPS}",
              file=sys.stderr)
        rk4_steps = w.RK4_STEPS
    if isinstance(w, CliConfigs):
        peak = w.peak_rss_mb
    else:
        peak = vmhwm_mb(Path("/proc/self/status").read_text())
    return run.result(samples=samples, kernels=run.timed.kernels, rk4_steps=rk4_steps,
                      peak_rss_mb=peak)


def _importtime(prefix: str, lines: list[str]) -> float:
    """Seconds of cumulative import time of the outermost `prefix` modules.

    -X importtime prints children before their parent, one more indent
    level deeper; walking backwards visits every parent first.
    """
    total, stack = 0, []
    for line in reversed(lines):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        del stack[depth:]
        inside = any(p == prefix or p.startswith(prefix + ".") for p in stack)
        if (name == prefix or name.startswith(prefix + ".")) and not inside:
            total += int(cumulative)
        stack.append(name)
    return total / 1e6


def import_times() -> dict:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fpme.cli"],
                          capture_output=True, text=True, timeout=60, check=True)
    lines = proc.stderr.splitlines()
    return {"setup.import_s": _importtime("fpme", lines),
            "setup.import_scipy_s": _importtime("scipy", lines)}


def trace(args) -> dict:
    """Layer timings, import times, untraced baseline calls, then one
    traced call (in-process for the CLI)."""
    w = WORKLOADS[args.workload](args.seed, args.tiny)
    run = Run(args, calibrate=False)
    metrics = w.layers()
    metrics.update(import_times())
    metrics.update({f"cli.{m}_s": 0.0 for m, _ in CLI_MODES})
    if isinstance(w, CliConfigs):
        run.call(w)
        metrics.update({f"cli.{m}_s": c["raw_s"] for m, c in run.calls.items()})

    run.call(w, in_process=True)  # warm-up
    baseline, start = [], clock()
    while not baseline or clock() - start < args.seconds / 4:
        baseline.append(run.call(w, in_process=True)["wall_s"])

    tracer = Tracer()
    with tracer:
        traced = run.call(w, in_process=True)
    sweep = None
    if isinstance(w, CliConfigs):
        call = run.calls["sweep_epsilon"]
        sweep = (call["start"], call["start"] + call["raw_s"])
    metrics.update(layer_metrics(tracer, sweep))
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(baseline)
    return run.result(per_layer=metrics)


def setup(args) -> None:
    import fpme.cli  # noqa: F401

    w = WORKLOADS[args.workload](args.seed, args.tiny)
    w.warm_up()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    # The CLI pool runs at its default size.
    os.environ.pop("FPME_THREADS", None)
    if args.step == "setup":
        setup(args)
        return 0
    result = measure(args) if args.step == "measure" else trace(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
