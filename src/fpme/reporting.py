"""CSV and manifest writers.

Floats are serialized with repr() of the builtin float, which round-trips
exactly and is stable across runs; this is what makes the determinism
guarantee checkable by byte comparison.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .diagnostics import DiagnosticsRecord

__all__ = [
    "format_float",
    "write_records_csv",
    "write_picard_summary_csv",
    "write_property_report_csv",
    "write_sweep_summary_csv",
    "write_manifest",
]


def format_float(x) -> str:
    return repr(float(x))


def _write_lines(path, header: str, rows: Iterable[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_records_csv(records: Sequence[DiagnosticsRecord], path) -> None:
    header = "t,dt,l2,h_alpha,min_u,mass,c_meas,besov_alpha"
    rows = (
        ",".join(
            format_float(v)
            for v in (r.t, r.dt, r.l2, r.h_alpha, r.min_u, r.mass, r.c_meas, r.besov_alpha)
        )
        for r in records
    )
    _write_lines(path, header, rows)


def write_picard_summary_csv(sup_halpha: Sequence[float], deltas: Sequence[float],
                             c_meas: Sequence[float], min_u: Sequence[float], path) -> None:
    """Per-iterate summary.  Iterate 1 has no contraction increment, so its
    delta column is empty; deltas[k] belongs to iterate k+2.
    """
    header = "n,sup_halpha,delta,c_meas,min_u"
    rows = []
    for idx, sup in enumerate(sup_halpha):
        delta = format_float(deltas[idx - 1]) if 1 <= idx <= len(deltas) else ""
        rows.append(
            ",".join(
                (
                    str(idx + 1),
                    format_float(sup),
                    delta,
                    format_float(c_meas[idx]),
                    format_float(min_u[idx]),
                )
            )
        )
    _write_lines(path, header, rows)


def write_property_report_csv(rows: Sequence[tuple], path) -> None:
    header = "check,seed,statistic,passed"
    lines = (
        f"{name},{seed},{format_float(stat)},{'true' if ok else 'false'}"
        for name, seed, stat, ok in rows
    )
    _write_lines(path, header, lines)


def write_sweep_summary_csv(entries: Sequence[tuple[float, float]], path) -> None:
    """entries: (epsilon, L2 distance of the final state to the eps=0 run),
    ordered by decreasing epsilon.  The third column records whether each
    distance shrank relative to the previous (coarser) epsilon.
    """
    header = "epsilon,l2_diff,decreasing_from_prev"
    rows = []
    prev = None
    for eps, diff in entries:
        flag = "true" if prev is None or diff <= prev else "false"
        rows.append(f"{format_float(eps)},{format_float(diff)},{flag}")
        prev = diff
    _write_lines(path, header, rows)


def write_manifest(out_dir, config_text: str, echo: dict, extra: dict | None = None) -> None:
    from . import __version__

    payload = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "resolved": dict(echo),
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if extra:
        payload.update(extra)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
