"""Span recording for the traced pass of the benchmark.

The tracer replaces the module attributes through which one fpme layer
calls the next with wrappers that record a span: name, start, end and the
enclosing span of the same thread.  Spans stay in memory until the run
ends; ``layer_metrics`` then turns them into per-layer counts and self
times.  A span's self time is its duration minus the time its child spans
cover.  Spans recorded in worker threads have no parent, so the span that
waits on a pool keeps the wait in its self time.

Nothing here is imported by the package: the wrappers are installed from
outside and removed again by ``uninstall``.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _fft_amount(args, out):
    """(points, bytes computed) of one transform: input plus output arrays."""
    src = args[0]
    return out.size, getattr(src, "nbytes", out.nbytes) + out.nbytes


def _written_last(args, out):
    return os.path.getsize(args[-1])


def _written_first(args, out):
    return os.path.getsize(args[0])


def _manifest_written(args, out):
    return os.path.getsize(Path(args[0]) / "manifest.json")


def _kept_iterates(args, out):
    return len(out.state.deltas)


# span name -> [(module, attribute, amount hook)].  Each attribute is the
# name a caller looks up at call time, so every call crosses exactly one
# wrapper.  The hook maps (args, result) to what the span carries.
TARGETS = {
    "fft": [
        ("numpy.fft", "fftn", _fft_amount),
        ("numpy.fft", "ifftn", _fft_amount),
    ],
    "grid.transform": [
        (mod, attr, None)
        for mod in ("fpme.grid", "fpme.norms", "fpme.fracops", "fpme.diagnostics")
        for attr in ("forward_transform", "inverse_transform")
    ],
    "fracops": [
        ("fpme.fracops", "mollify", None),
        ("fpme.picard", "mollify", None),
        ("fpme.diagnostics", "frac_laplacian", None),
        ("fpme.diagnostics", "apply_radial_power", None),
        ("fpme.fracops", "MollifierKernel", None),
        ("fpme.linear", "MollifierKernel", None),
        ("fpme.picard", "MollifierKernel", None),
    ],
    "norms.sobolev_norm": [
        ("fpme.linear", "sobolev_norm", None),
        ("fpme.picard", "sobolev_norm", None),
        ("fpme.diagnostics", "sobolev_norm", None),
    ],
    "norms.besov_norm": [("fpme.diagnostics", "besov_norm", None)],
    "diagnostics.record": [
        ("fpme.linear", "record", None),
        ("fpme.picard", "record", None),
    ],
    "diagnostics.property_suite": [("fpme.cli", "run_property_suite", None)],
    "linear.coefficient_ops": [
        ("fpme.linear", "make_coefficient_ops", None),
        ("fpme.picard", "make_coefficient_ops", None),
    ],
    "linear.rk4": [
        ("fpme.linear", "_rk4_step", None),
        ("fpme.picard", "_rk4_step", None),
    ],
    "linear.rhs": [("fpme.linear", "_rhs_values", None)],
    "linear.solve": [
        ("fpme.linear", "solve_linear", None),
        ("fpme.cli", "solve_linear", None),
    ],
    "picard.run": [
        ("fpme.picard", "run_picard", _kept_iterates),
        ("fpme.cli", "run_picard", _kept_iterates),
    ],
    "picard.iterate": [("fpme.picard", "_advance_iterate", None)],
    "picard.horizon": [("fpme.picard", "horizon", None)],
    "snapshots.write": [
        ("fpme.snapshots", "write_snapshot", _written_first),
        ("fpme.cli", "write_snapshot", _written_first),
    ],
    "reporting.write": [
        ("fpme.reporting", "write_records_csv", _written_last),
        ("fpme.cli", "write_records_csv", _written_last),
        ("fpme.cli", "write_picard_summary_csv", _written_last),
        ("fpme.cli", "write_property_report_csv", _written_last),
        ("fpme.cli", "write_sweep_summary_csv", _written_last),
        ("fpme.cli", "write_manifest", _manifest_written),
    ],
    "config.parse": [("fpme.cli", "parse_config", None)],
    "cli.execute": [("fpme.cli", "execute", None)],
}

NAME, START, END, PARENT, AMOUNT = range(5)


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    ``only`` restricts the installed spans to a subset of TARGETS, which
    the untraced runs use to count RK4 steps.
    """

    def __init__(self, only=None):
        self.names = [n for n in TARGETS if only is None or n in only]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, amount):
        spans, local, clock = self.spans, self._local, time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, clock(), 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if amount is not None:
                span[AMOUNT] = amount(args, out)
            return out

        return traced

    def install(self) -> "Tracer":
        # Import every target module first: a module imported after its
        # source was wrapped would copy the wrapper and be wrapped twice.
        modules = {mod: importlib.import_module(mod)
                   for name in self.names for mod, _, _ in TARGETS[name]}
        for name in self.names:
            found = False
            for mod_name, attr, amount in TARGETS[name]:
                module = modules[mod_name]
                if not hasattr(module, attr):
                    print(f"warning: {mod_name}.{attr} not found; not traced",
                          file=sys.stderr)
                    continue
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, amount))
                found = True
            if not found:
                self.missing.append(name)
        return self

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> dict[str, float]:
    """Sum over spans of each name of duration minus child-covered time."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child[id(s[PARENT])] += s[END] - s[START]
    out = defaultdict(float)
    for s in spans:
        out[s[NAME]] += (s[END] - s[START]) - child[id(s)]
    return out


# Per-layer metric -> span name it derives from, so a span whose wrapped
# names have all disappeared can be reported as missing.
SPAN_OF = {
    "fft.calls": "fft",
    "fft.points": "fft",
    "fft.points_per_call": "fft",
    "fft.bytes_computed": "fft",
    "fft.self_s": "fft",
    "grid.transform.calls": "grid.transform",
    "grid.transform.self_s": "grid.transform",
    "fracops.calls": "fracops",
    "fracops.self_s": "fracops",
    "norms.sobolev_norm.calls": "norms.sobolev_norm",
    "norms.sobolev_norm.self_s": "norms.sobolev_norm",
    "norms.besov_norm.calls": "norms.besov_norm",
    "norms.besov_norm.self_s": "norms.besov_norm",
    "diagnostics.record.calls": "diagnostics.record",
    "diagnostics.record.self_s": "diagnostics.record",
    "diagnostics.property_suite.self_s": "diagnostics.property_suite",
    "linear.coefficient_ops.calls": "linear.coefficient_ops",
    "linear.coefficient_ops.self_s": "linear.coefficient_ops",
    "linear.rk4_steps": "linear.rk4",
    "linear.rk4.self_s": "linear.rk4",
    "linear.rhs.calls": "linear.rhs",
    "linear.rhs.self_s": "linear.rhs",
    "linear.solve.self_s": "linear.solve",
    "picard.run.self_s": "picard.run",
    "picard.outer_iterates": "picard.iterate",
    "picard.iterate.self_s": "picard.iterate",
    "picard.recalibrations": "picard.horizon",
    "picard.useful_iterate_ratio": "picard.run",
    "snapshots.write.calls": "snapshots.write",
    "snapshots.write.bytes": "snapshots.write",
    "snapshots.write.self_s": "snapshots.write",
    "reporting.write.calls": "reporting.write",
    "reporting.write.bytes": "reporting.write",
    "reporting.write.self_s": "reporting.write",
    "config.parse.self_s": "config.parse",
    "cli.execute.self_s": "cli.execute",
    "cli.pool.overlap": "linear.solve",
    "trace.spans": None,
}


def layer_metrics(tracer: Tracer, sweep_window=None) -> dict[str, float]:
    """Per-layer counts, amounts and self times of one traced call.

    sweep_window is the (start, end) of the sweep_epsilon mode, inside
    which cli.pool.overlap is measured; without one the overlap is 0.
    """
    spans = tracer.spans
    selft = self_times(spans)
    calls = defaultdict(int)
    amount = defaultdict(lambda: [0, 0])
    for s in spans:
        calls[s[NAME]] += 1
        a = s[AMOUNT]
        if isinstance(a, tuple):
            amount[s[NAME]][0] += a[0]
            amount[s[NAME]][1] += a[1]
        elif a is not None:
            amount[s[NAME]][0] += a

    overlap = 0.0
    if sweep_window is not None:
        lo, hi = sweep_window
        solves = [s for s in spans
                  if s[NAME] == "linear.solve" and lo <= s[START] and s[END] <= hi]
        if solves:
            span = max(s[END] for s in solves) - min(s[START] for s in solves)
            overlap = sum(s[END] - s[START] for s in solves) / span

    runs = calls["picard.run"]
    iterates = calls["picard.iterate"]
    m = {
        "fft.calls": calls["fft"],
        "fft.points": amount["fft"][0],
        "fft.points_per_call": amount["fft"][0] / calls["fft"] if calls["fft"] else 0.0,
        "fft.bytes_computed": amount["fft"][1],
        "picard.outer_iterates": iterates,
        "picard.recalibrations": max(0, calls["picard.horizon"] - runs),
        "picard.useful_iterate_ratio": amount["picard.run"][0] / iterates if iterates else 0.0,
        "snapshots.write.bytes": amount["snapshots.write"][0],
        "reporting.write.bytes": amount["reporting.write"][0],
        "linear.rk4_steps": calls["linear.rk4"],
        "cli.pool.overlap": overlap,
        "trace.spans": len(spans),
    }
    for key, name in SPAN_OF.items():
        if key in m:
            continue
        if key.endswith(".calls"):
            m[key] = calls[name]
        elif key.endswith(".self_s"):
            m[key] = selft[name]
    for key, name in SPAN_OF.items():
        if name in tracer.missing:
            print(f"warning: metric {key} missing: no wrapped name for span {name}",
                  file=sys.stderr)
    return m
