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


def _write_rows(path, header: str, rows: Iterable[Sequence]) -> None:
    """header, then one line per row: float cells through format_float,
    other cells through str."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = (format_float(c) if isinstance(c, (float, np.floating)) else str(c)
                     for c in row)
            fh.write(",".join(cells) + "\n")


def _flag(ok) -> str:
    return "true" if ok else "false"


def write_records_csv(records: Sequence[DiagnosticsRecord], path) -> None:
    rows = ((r.t, r.dt, r.l2, r.h_alpha, r.min_u, r.mass, r.c_meas, r.besov_alpha)
            for r in records)
    _write_rows(path, "t,dt,l2,h_alpha,min_u,mass,c_meas,besov_alpha", rows)


def write_picard_summary_csv(sup_halpha: Sequence[float], deltas: Sequence[float],
                             c_meas: Sequence[float], min_u: Sequence[float], path) -> None:
    """Per-iterate summary.  Iterate 1 has no contraction increment, so its
    delta column is empty; deltas[k] belongs to iterate k+2.
    """
    rows = ((n + 1, sup, deltas[n - 1] if 1 <= n <= len(deltas) else "", c_meas[n], min_u[n])
            for n, sup in enumerate(sup_halpha))
    _write_rows(path, "n,sup_halpha,delta,c_meas,min_u", rows)


def write_property_report_csv(rows: Sequence[tuple], path) -> None:
    _write_rows(path, "check,seed,statistic,passed",
                ((name, seed, stat, _flag(ok)) for name, seed, stat, ok in rows))


def write_sweep_summary_csv(entries: Sequence[tuple[float, float]], path) -> None:
    """entries: (epsilon, L2 distance of the final state to the eps=0 run),
    ordered by decreasing epsilon.  The third column records whether each
    distance shrank relative to the previous (coarser) epsilon.
    """
    diffs = [diff for _, diff in entries]
    rows = ((eps, diff, _flag(n == 0 or diff <= diffs[n - 1]))
            for n, (eps, diff) in enumerate(entries))
    _write_rows(path, "epsilon,l2_diff,decreasing_from_prev", rows)


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
