"""Command-line entry point.

    fpme <mode> --config <path> [--set key=value]...

Modes: linear, picard, sweep_epsilon, properties.  Exit codes: 0 ok,
2 validation problem or unwritable output, 3 Picard failed to converge,
4 solution blew up, 5 a property check failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import MODES, RunSpec, parse_config
from .diagnostics import run_property_suite
from .errors import BlowUp, FpmeError, NoConvergence, ParseError, ValidationError
from .grid import RealField
from .linear import solve_linear
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


def _linear_solution(spec: RunSpec, problem):
    return solve_linear(problem, spec.policy, spec.alpha, spec.sample_every, spec.snapshot_times)


def _run_linear(spec: RunSpec, out: Path) -> int:
    sol = _linear_solution(spec, spec.problem)
    _write_solution(out, sol.records, sol.final, spec.problem.t_end, sol.snapshots)
    last = sol.records[-1]
    print(f"linear: t={format_float(last.t)} l2={format_float(last.l2)} "
          f"min_u={format_float(last.min_u)}")
    return 0


def _run_picard(spec: RunSpec, out: Path) -> int:
    result = run_picard(spec.u0, spec.picard, spec.snapshot_times)
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


def _run_sweep(spec: RunSpec, out: Path) -> int:
    eps_list = sorted(spec.epsilons, reverse=True)
    finals = []
    for eps in eps_list + [0.0]:
        sol = _linear_solution(spec, replace(spec.problem, epsilon=eps))
        sub = out / f"eps_{format_float(eps)}"
        _write_solution(sub, sol.records, sol.final, spec.problem.t_end, sol.snapshots)
        finals.append(sol.final)

    baseline = finals[-1]
    entries = []
    for eps, final in zip(eps_list, finals[:-1]):
        diff = lp_norm(
            RealField(spec.grid, final.values - baseline.values), 2
        )
        entries.append((eps, diff))
    write_sweep_summary_csv(entries, out / "summary.csv")
    for eps, diff in entries:
        print(f"sweep_epsilon: eps={format_float(eps)} l2_diff={format_float(diff)}")
    return 0


def _run_properties(spec: RunSpec, out: Path) -> int:
    rows, ok = run_property_suite(
        spec.grid, seed=spec.properties_seed, count=spec.properties_count
    )
    write_property_report_csv(rows, out / "report.csv")
    n_fail = sum(1 for r in rows if not r[3])
    print(f"properties: {len(rows)} checks, {n_fail} failed")
    return 0 if ok else 5


_RUNNERS = {
    "linear": _run_linear,
    "picard": _run_picard,
    "sweep_epsilon": _run_sweep,
    "properties": _run_properties,
}


def execute(spec: RunSpec, config_text: str = "") -> int:
    """Write manifest.json into spec's output.dir, then run its mode;
    returns the exit code."""
    out = Path(spec.output_dir)
    try:
        write_manifest(out, config_text, spec.echo, {"mode": spec.mode})
        return _RUNNERS[spec.mode](spec, out)
    except (FpmeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NoConvergence) else 4 if isinstance(exc, BlowUp) else 2


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
