"""Command-line entry point, ``fpme <mode> --config <path> [--set key=value]...``:
main parses the config, and execute runs the mode and writes its outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import MODES, RunSpec, _run_keys, parse_config
from .diagnostics import run_property_suite
from .errors import BlowUp, FpmeError, NoConvergence, ParseError, ValidationError
from .grid import RealField
from .linear import LinearProblem, _kernel, solve_linear
from .norms import lp_norm
from .picard import run_picard
from .reporting import (
    format_float,
    write_manifest,
    write_picard_summary_csv,
    write_property_report_csv,
    write_records_csv,
    write_sweep_summary_csv,
)
from .snapshots import write_snapshot

__all__ = ["main", "execute"]


def _write_solution(out: Path, records, final: RealField, t: float, snapshots) -> None:
    """diagnostics.csv, final.fpm1 at time t and snapshot_NNN.fpm1 of each
    (t, field) in snapshots, in order."""
    write_records_csv(records, out / "diagnostics.csv")
    write_snapshot(out / "final.fpm1", final, t)
    for idx, (ts, fld) in enumerate(snapshots):
        write_snapshot(out / f"snapshot_{idx:03d}.fpm1", fld, ts)


def _linear_solution(spec: RunSpec, problem: LinearProblem):
    return solve_linear(problem, spec.policy, spec.alpha, spec.sample_every, spec.snapshot_times)


def _problem(spec: RunSpec) -> LinearProblem:
    """The run's problem at solver.epsilon, each field generated once."""
    return LinearProblem(v=spec.coefficient.generate(spec.grid),
                         u0=spec.initial.generate(spec.grid), s=spec.s,
                         epsilon=spec.epsilon, t_end=spec.t_end)


# Each _run_<mode> runs its mode and returns the function that writes the
# mode's outputs into a directory and returns the exit code.


def _run_linear(spec: RunSpec):
    sol = _linear_solution(spec, _problem(spec))

    def write(out: Path) -> int:
        _write_solution(out, sol.records, sol.final, spec.t_end, sol.snapshots)
        last = sol.records[-1]
        print(f"linear: t={format_float(last.t)} l2={format_float(last.l2)} "
              f"min_u={format_float(last.min_u)}")
        return 0

    return write


def _run_picard(spec: RunSpec):
    result = run_picard(spec.initial.generate(spec.grid), spec.picard, spec.snapshot_times)

    def write(out: Path) -> int:
        for ts in sorted(spec.snapshot_times):
            if ts > result.horizon:
                print(f"picard: snapshot time {format_float(ts)} skipped, beyond "
                      f"horizon={format_float(result.horizon)}")
        state = result.state
        write_picard_summary_csv(
            state.sup_halpha, state.deltas, state.c_meas, state.min_u, out / "iterates.csv"
        )
        _write_solution(
            out, result.records, result.trajectory[-1], result.horizon, result.snapshots
        )
        n_iter = len(state.sup_halpha)
        print(f"picard: converged in {n_iter} iterates, horizon={format_float(result.horizon)} "
              f"delta={format_float(state.deltas[-1])}")
        return 0

    return write


def _run_sweep(spec: RunSpec):
    # every radius is solved before anything is written, and every kernel
    # built before the first solve, so a radius the grid cannot resolve
    # fails before any step; the freezes read the cached kernels
    problem = _problem(spec)
    eps_list = sorted(spec.epsilons, reverse=True)
    for eps in eps_list:
        _kernel(spec.grid, eps)
    sols = [_linear_solution(spec, replace(problem, epsilon=eps)) for eps in eps_list + [0.0]]
    baseline = sols[-1].final
    entries = [(eps, lp_norm(RealField(spec.grid, sol.final.values - baseline.values), 2))
               for eps, sol in zip(eps_list, sols)]

    def write(out: Path) -> int:
        for eps, sol in zip(eps_list + [0.0], sols):
            _write_solution(out / f"eps_{format_float(eps)}", sol.records, sol.final,
                            spec.t_end, sol.snapshots)
        write_sweep_summary_csv(entries, out / "summary.csv")
        for eps, diff in entries:
            print(f"sweep_epsilon: eps={format_float(eps)} l2_diff={format_float(diff)}")
        return 0

    return write


def _run_properties(spec: RunSpec):
    rows, ok = run_property_suite(
        spec.grid, seed=spec.properties_seed, count=spec.properties_count
    )

    def write(out: Path) -> int:
        write_property_report_csv(rows, out / "report.csv")
        n_fail = sum(1 for r in rows if not r[3])
        print(f"properties: {len(rows)} checks, {n_fail} failed")
        return 0 if ok else 5

    return write


_RUNNERS = {
    "linear": _run_linear,
    "picard": _run_picard,
    "sweep_epsilon": _run_sweep,
    "properties": _run_properties,
}


def execute(spec: RunSpec, config_text: str = "") -> int:
    """Run spec's mode, then write manifest.json and the mode's outputs into
    its output.dir; returns the exit code.

    Nothing is written before the run has succeeded, except that a
    NoConvergence (3) or BlowUp (4) writes manifest.json.  Any other error
    the run raises exits 2 and writes nothing; its message follows the keys
    that set the run (config._run_keys).  A directory that cannot be
    written exits 2, after the run.
    """
    out = Path(spec.output_dir)
    failure = None
    try:
        write = _RUNNERS[spec.mode](spec)
    except (NoConvergence, BlowUp) as exc:
        failure = exc
    except (FpmeError, ValueError) as exc:
        print(f"error: {_run_keys(spec)}: {exc}", file=sys.stderr)
        return 2
    try:
        write_manifest(out, config_text, spec.echo, {"mode": spec.mode})
        if failure is None:
            return write(out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"error: {failure}", file=sys.stderr)
    return 3 if isinstance(failure, NoConvergence) else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpme", description="Spectral tooling for a nonlocal porous medium flow."
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        config_text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            print(f"error: --set needs KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()

    try:
        spec = parse_config(config_text, mode=args.mode, overrides=overrides)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    return execute(spec, config_text)


if __name__ == "__main__":
    sys.exit(main())
