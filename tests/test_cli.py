"""End-to-end CLI runs: exit codes, output files, determinism."""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpme
import fpme.diagnostics as diag_mod
import fpme.linear as linear_mod
import fpme.picard as picard_mod
from fpme import FieldGenerator, read_snapshot
from fpme.cli import main
from fpme.config import _KEYS, _READERS, MODES
from fpme.fracops import MollifierKernel

from conftest import deadline

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# shipped config -> the mode it is written for
SHIPPED = {"linear": "linear", "picard": "picard", "sweep": "sweep_epsilon",
           "properties": "properties"}


def run_shipped(name, out, *overrides):
    args = [SHIPPED[name], "--config", str(CONFIGS / f"{name}.cfg"), "--set", f"output.dir={out}"]
    for item in overrides:
        args += ["--set", item]
    return main(args)

# LINEAR_CFG without the keys only linear and sweep_epsilon read
SOLVER_CFG = """
grid.dim = 1
grid.n = 64
grid.length = 6.283185307179586
initial.kind = gaussian_bump
initial.seed = 1
initial.width = 0.8
coefficient.kind = multi_bump
coefficient.seed = 2
coefficient.width = 0.9
output.dir = {out}
"""
LINEAR_CFG = SOLVER_CFG + "solver.t_end = 0.01\nsolver.dt_max = 0.0002\n"

PICARD_CFG = """
grid.dim = 1
grid.n = 64
grid.length = 6.283185307179586
solver.alpha = 2.1
solver.samples = 100
initial.kind = gaussian_bump
initial.seed = 1
initial.amplitude = 0.05
initial.width = 0.8
output.dir = {out}
"""

PROPS_CFG = """
grid.dim = 1
grid.n = 64
grid.length = 6.283185307179586
properties.count = 3
output.dir = {out}
"""


def write_cfg(tmp_path, template, name="run.cfg", **extra):
    out = tmp_path / name.replace(".cfg", ".out")
    text = template.format(out=out)
    for key, value in extra.items():
        text += f"{key} = {value}\n"
    path = tmp_path / name
    path.write_text(text)
    return path, out


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["linear", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["document", "set"])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, where):
        out = tmp_path / "out"
        if where == "document":
            key = "solver.theta"
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{key} = 1\noutput.dir = {out}\n")
            code = main(["properties", "--config", str(cfg)])
        else:
            # a positive solver.epsilon always mollifies the initial datum
            key = "solver.mollify_initial"
            code = run_shipped("picard", out, f"{key}=true")
        assert code == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_error(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, LINEAR_CFG)
        code = main(["linear", "--config", str(cfg), "--set", "solver.s=0.3"])
        assert code == 2
        assert "s must lie in" in capsys.readouterr().err

    def test_bad_set_syntax(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, LINEAR_CFG)
        assert main(["linear", "--config", str(cfg), "--set", "solver.s:0.9"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["linear", "picard", "properties"])
    @pytest.mark.parametrize(
        "key, bad",
        [
            ("s", "0.3"),
            ("epsilon", "-0.1"),
            ("safety", "1.5"),
            ("dt_max", "0"),
            ("samples", "1"),
            ("tol_picard", "0"),
            ("max_outer", "0"),
            ("c_gronwall", "-1"),
            ("t0_override", "0"),
        ],
    )
    def test_bad_solver_value_rejected_before_output(self, tmp_path, capsys, mode, key, bad):
        template = LINEAR_CFG if mode == "linear" else SOLVER_CFG
        cfg, out = write_cfg(
            tmp_path, template, **{"solver.alpha": 2.1, f"solver.{key}": bad}
        )
        assert main([mode, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        readers = _READERS.get(f"solver.{key}", (mode,))
        if mode not in readers:
            # the mode does not read the key, so it rejects it whatever its value
            assert (f"solver.{key} is read only by mode{'s' * (len(readers) > 1)} "
                    f"{' and '.join(readers)}, not by mode {mode}") in err
        else:
            assert key in err and "read only by" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["picard", "properties"])
    @pytest.mark.parametrize("key", ["solver.dt_max", "solver.sample_every"])
    def test_step_key_rejected_before_output(self, tmp_path, capsys, name, key):
        out = tmp_path / "out"
        assert run_shipped(name, out, f"{key}=1") == 2
        assert f"error: {key} is read only by modes linear and sweep_epsilon, not by mode {name}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, name",
        [(key, name) for key, readers in _READERS.items() for name, mode in SHIPPED.items()
         if mode not in readers],
    )
    def test_one_solver_key_rejected_before_output(self, tmp_path, capsys, key, name):
        # the shipped config of a mode that does not read the key
        out = tmp_path / "out"
        assert run_shipped(name, out, f"{key}=2") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} is read only by mode")
        assert err.endswith(f"{' and '.join(_READERS[key])}, not by mode {SHIPPED[name]}\n")
        assert not out.exists()

    def test_infinite_length_rejected_before_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_shipped("properties", out, "grid.length=inf") == 2
        assert "side_length must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["linear", "sweep_epsilon"])
    @pytest.mark.parametrize(
        "narrow, wide", [("initial", "coefficient"), ("coefficient", "initial")]
    )
    def test_narrow_generator_width_rejected_before_output(
        self, tmp_path, capsys, mode, narrow, wide
    ):
        # at n = 32 the default width L/8 is too narrow to stay band-limited
        text = (
            LINEAR_CFG.replace("grid.n = 64", "grid.n = 32")
            .replace("initial.width = 0.8\n", "")
            .replace("coefficient.width = 0.9\n", "")
        )
        cfg, out = write_cfg(tmp_path, text, **{f"{wide}.width": 2.0})
        assert main([mode, "--config", str(cfg)]) == 2
        assert f"{narrow}.width 0.785" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "cfg, overrides, key",
        [
            ("properties", ["properties.seed=-5"], "properties.seed"),
            ("linear", ["initial.kind=multi_bump", "initial.seed=-1"], "initial.seed"),
            ("linear", ["coefficient.amplitude=-0.5"], "coefficient.amplitude"),
            ("linear", ["coefficient.kind=random_trig"], "coefficient.kind"),
            ("picard", ["initial.amplitude=-0.05"], "initial.amplitude"),
            ("linear", ["solver.epsilon=0.01"], "solver.epsilon"),
            ("linear", ["solver.epsilon=3.5"], "solver.epsilon"),
            ("sweep", ["sweep.epsilons=0.4, 0.01"], "sweep.epsilons"),
            ("linear", ["solver.epsilon=nan"], "epsilon_moll"),
            ("linear", ["solver.alpha=inf"], "alpha must be >= 0 and finite"),
            ("picard", ["solver.alpha=inf"], "alpha must be >= 0 and finite"),
            ("picard", ["solver.c_gronwall=inf"], "c_gronwall must be positive and finite"),
            ("picard", ["solver.epsilon=nan"], "epsilon_moll"),
            ("sweep", ["sweep.epsilons=0.4, nan"], "sweep.epsilons"),
            ("linear", ["initial.kind=random_trig", "initial.width=0"], "initial.width"),
            ("linear", ["initial.kind=random_trig", "initial.width=-1"], "initial.width"),
            ("linear", ["initial.kind=random_trig", "initial.width=100"], "initial.width"),
            ("linear", ["initial.kind=random_trig", "initial.width=0.001"], "initial.width"),
            ("linear", ["solver.alpha=200"], "solver.alpha = 200.0 overflows"),
            ("picard", ["solver.alpha=1000"], "solver.alpha = 1000.0 overflows"),
            # the corner |xi| = 32 overflows at 110; the band's 21 would not
            ("picard", ["solver.alpha=110"], "solver.alpha = 110.0 overflows"),
            ("picard", ["grid.length=1e-300"], "side_length 1e-300 is out of range"),
            ("properties", ["grid.length=1e-300"], "side_length 1e-300 is out of range"),
            # an infinite rho_est used to step by 0 forever, and a zero
            # horizon failed after the manifest
            ("linear", ["coefficient.amplitude=1e300"], "coefficient.amplitude = 1e+300"),
            ("picard", ["initial.amplitude=1e300"], "initial.amplitude = 1e+300"),
            # the suite's commutator weights overflow: this one failed after
            # the manifest, and 1e-100 reported 25 false failures
            ("properties", ["grid.dim=3", "grid.n=16", "grid.length=1e-110"],
             "grid.length = 1e-110"),
            ("properties", ["grid.length=1e-100"], "grid.length = 1e-100"),
            # past the step budget: each was still stepping after 15 s, the
            # counts per solve or iterate 2.1e7, 1.2e20, 1.5e300, 4.3e299, 2e303
            ("picard", ["solver.safety=1e-8"], "solver.safety"),
            ("picard", ["grid.length=1e-40"], "grid.length = 1e-40"),
            ("picard", ["solver.t0_override=1e300"], "solver.t0_override"),
            ("picard", ["solver.c_gronwall=1e-300"], "solver.c_gronwall"),
            ("linear", ["solver.t_end=1e300"], "solver.t_end = 1e+300"),
            # a horizon whose segments underflow to 0 failed after the manifest
            ("picard", ["solver.t0_override=1e-322"], "solver.t0_override"),
            # a step that underflows to 0 divided the step budget by 0
            # (a ZeroDivisionError, exit 1)
            ("linear", ["solver.safety=5e-324"], "safety / rho_est"),
            ("sweep", ["solver.safety=5e-324"], "safety / rho_est"),
            ("picard", ["solver.safety=5e-324", "initial.amplitude=5"], "safety / rho_est"),
            # an initial datum whose norms overflow warned, then failed after
            # the manifest on a non-finite l2
            ("linear", ["initial.amplitude=1e300"], "initial.amplitude = 1e+300"),
            ("sweep", ["initial.amplitude=1e300"], "initial.amplitude = 1e+300"),
            ("linear", ["initial.amplitude=-1e300"], "initial.amplitude = -1e+300"),
        ],
        ids=lambda v: "+".join(v) if isinstance(v, list) else v,
    )
    def test_run_time_failure_rejected_before_output(
        self, tmp_path, capsys, cfg, overrides, key
    ):
        # each of these used to pass the parser and then fail only after the
        # manifest (or a whole sweep radius) was written, run clamped (a NaN
        # radius ran unmollified), or run without end
        out = tmp_path / "out"
        with deadline(10, f"fpme {cfg} with {overrides}"):
            assert run_shipped(cfg, out, *overrides) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg, override",
        [
            ("sweep", "sweep.epsilons=0.4, 0.4, 0.2"),
            ("linear", "output.snapshot_times=0.1, 0.1"),
            ("picard", "output.snapshot_times=0.1, 0.1"),
        ],
    )
    def test_repeated_value_rejected_before_output(self, tmp_path, capsys, cfg, override):
        # these used to run with the repeats merged into one, without a word
        out = tmp_path / "out"
        assert run_shipped(cfg, out, override) == 2
        err = capsys.readouterr().err
        assert override.split("=")[0] in err and "distinct" in err
        assert not out.exists()

    def test_unwritable_output_dir_is_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_shipped("linear", blocker) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert blocker.read_text() == ""

    def test_picard_no_convergence_is_3(self, tmp_path):
        cfg, _ = write_cfg(tmp_path, PICARD_CFG, **{"solver.max_outer": 1})
        assert main(["picard", "--config", str(cfg)]) == 3

    def test_picard_recalibration_budget_is_3(self, tmp_path, monkeypatch, capsys):
        quotients = iter(50.0 * 1000.0**k for k in range(10))
        monkeypatch.setattr(picard_mod, "_max_quotient", lambda h, dt, sc: next(quotients))
        cfg, _ = write_cfg(tmp_path, PICARD_CFG)
        assert main(["picard", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("error: recalibration budget exhausted")

    def test_blowup_is_4(self, tmp_path, monkeypatch):
        real_step = linear_mod._rk4_step

        def exploding(u, *args, **kwargs):
            return real_step(u, *args, **kwargs) * 1e14

        monkeypatch.setattr(linear_mod, "_rk4_step", exploding)
        cfg, _ = write_cfg(tmp_path, LINEAR_CFG)
        assert main(["linear", "--config", str(cfg)]) == 4

    def test_property_failure_is_5(self, tmp_path, monkeypatch):
        # every Cordoba and L^p row reads the suite's one stacked gap, so a
        # gap shifted below zero fails each of them and no other row
        real = diag_mod._gap_field

        def pessimist(*args):
            return real(*args) - 1.0

        monkeypatch.setattr(diag_mod, "_gap_field", pessimist)
        cfg, out = write_cfg(tmp_path, PROPS_CFG)
        assert main(["properties", "--config", str(cfg)]) == 5
        rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
        gap_rows = [r for r in rows if r[0].startswith(("cordoba", "pointwise"))]
        assert len(gap_rows) == 8 * 3
        assert all(r[3] == "false" and float(r[2]) < 0 for r in gap_rows)
        assert all(r[3] == "true" for r in rows if r not in gap_rows)


# each mode's shipped config cut to a tiny run at n = 16 (width 2.5 keeps a
# bump on the band): four RK4 steps per solve, four Picard samples, two
# property checks
TINY = {
    "linear": ("linear", ["grid.n=16", "initial.width=2.5", "coefficient.width=2.5",
                          "solver.epsilon=0.8", "solver.t_end=0.002", "output.snapshot_times="]),
    "sweep_epsilon": ("sweep", ["grid.n=16", "initial.width=2.5", "coefficient.width=2.5",
                                "solver.t_end=0.001", "sweep.epsilons=1.6, 0.8"]),
    "picard": ("picard", ["grid.n=16", "initial.width=2.5", "solver.samples=4"]),
    "properties": ("properties", ["grid.n=16", "properties.count=2"]),
}
# values at the edges of what a key parses to, and the generator kinds
EDGES = ["0", "-1", "1e300", "-1e300", "1e-300", "5e-324", "nan", "inf", "-inf", "",
         "0.1, 0.2", "1e300, 0", *FieldGenerator.KINDS]
# mode -> the keys it does not reject outright, but output.dir, which the
# test sets
FUZZ_KEYS = {
    mode: sorted(k for k in _KEYS if k != "output.dir" and mode in _READERS.get(k, MODES))
    for mode in TINY
}


def edge_runs(mode):
    pairs = st.tuples(st.sampled_from(FUZZ_KEYS[mode]), st.sampled_from(EDGES))
    return st.tuples(st.just(mode), st.lists(pairs, max_size=3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(TINY)).flatmap(edge_runs))
def test_edge_overrides_end_or_exit_2_before_output(run):
    # every run ends with a documented exit code and no RuntimeWarning, and
    # a run rejected with 2 leaves no output, whatever it is given
    mode, pairs = run
    cfg, base = TINY[mode]
    args = [mode, "--config", str(CONFIGS / f"{cfg}.cfg")]
    for item in [*base, *(f"{key}={value}" for key, value in pairs)]:
        args += ["--set", item]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with deadline(10, f"fpme {' '.join(args)}"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*args, "--set", f"output.dir={out}"])
        assert code in (0, 2, 3, 4, 5)
        assert code != 2 or not out.exists()


class TestLinearRun:
    def test_outputs_and_headers(self, tmp_path, capsys):
        cfg, out = write_cfg(
            tmp_path, LINEAR_CFG, **{"output.snapshot_times": "0.0, 0.005"}
        )
        assert main(["linear", "--config", str(cfg)]) == 0
        assert (out / "manifest.json").exists()
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == "t,dt,l2,h_alpha,min_u,mass,c_meas,besov_alpha"
        assert len(diag) > 2
        field, t = read_snapshot(out / "final.fpm1")
        assert t == 0.01
        assert field.grid.n_points == 64
        snap0, t0 = read_snapshot(out / "snapshot_000.fpm1")
        assert t0 == 0.0
        snap1, t1 = read_snapshot(out / "snapshot_001.fpm1")
        assert t1 == 0.005
        assert not np.array_equal(snap0.values, snap1.values)
        assert "linear: t=0.01" in capsys.readouterr().out

    def test_snapshot_time_past_t_end_rejected(self, tmp_path, capsys):
        cfg, out = write_cfg(
            tmp_path, LINEAR_CFG, **{"output.snapshot_times": "0.005, 5"}
        )
        assert main(["linear", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "output.snapshot_times" in err and "t_end = 0.01" in err
        assert not out.exists()

    def test_manifest_contents(self, tmp_path):
        cfg, out = write_cfg(tmp_path, LINEAR_CFG)
        main(["linear", "--config", str(cfg)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "linear"
        assert manifest["resolved"]["grid.n"] == "64"
        assert len(manifest["config_sha256"]) == 64
        assert "numpy" in manifest["versions"]

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg_a, out_a = write_cfg(tmp_path, LINEAR_CFG, name="a.cfg")
        cfg_b, out_b = write_cfg(tmp_path, LINEAR_CFG, name="b.cfg")
        assert main(["linear", "--config", str(cfg_a)]) == 0
        assert main(["linear", "--config", str(cfg_b)]) == 0
        assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()
        assert (out_a / "final.fpm1").read_bytes() == (out_b / "final.fpm1").read_bytes()


class TestPicardRun:
    def test_outputs(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, PICARD_CFG)
        assert main(["picard", "--config", str(cfg)]) == 0
        iterates = (out / "iterates.csv").read_text().splitlines()
        assert iterates[0] == "n,sup_halpha,delta,c_meas,min_u"
        assert len(iterates) >= 3
        first = iterates[1].split(",")
        assert first[0] == "1"
        assert first[2] == ""
        assert (out / "diagnostics.csv").exists()
        assert (out / "final.fpm1").exists()
        assert "picard: converged" in capsys.readouterr().out

    def test_snapshot_past_horizon_reported(self, tmp_path, capsys):
        cfg, out = write_cfg(
            tmp_path, PICARD_CFG, **{"output.snapshot_times": "0.0, 5, 7"}
        )
        assert main(["picard", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        skipped = [line for line in lines if "skipped" in line]
        assert len(skipped) == 2
        assert "5.0 skipped" in skipped[0] and "7.0 skipped" in skipped[1]
        assert (out / "snapshot_000.fpm1").exists()
        assert not (out / "snapshot_001.fpm1").exists()

    def test_two_snapshot_times_near_one_sample_both_written(self, tmp_path):
        # 0.1 and 0.1001 are both nearest the stored sample at 0.10014..., and
        # used to exit 2 after the manifest; each is marched to, and
        # every other output is the bytes of a run without snapshot times
        plain, out = tmp_path / "plain", tmp_path / "out"
        assert run_shipped("picard", plain) == 0
        assert run_shipped("picard", out, "output.snapshot_times=0.1001, 0.0, 0.1") == 0
        snaps = [read_snapshot(out / f"snapshot_00{i}.fpm1") for i in range(3)]
        assert [t for _, t in snaps] == [0.0, 0.1, 0.1001]
        assert not np.array_equal(snaps[1][0].values, snaps[2][0].values)
        assert not (out / "snapshot_003.fpm1").exists()
        for name in ("iterates.csv", "diagnostics.csv", "final.fpm1"):
            assert (out / name).read_bytes() == (plain / name).read_bytes(), name

    def test_constant_initial_converges_fast(self, tmp_path):
        cfg, out = write_cfg(tmp_path, PICARD_CFG.replace("gaussian_bump", "constant"))
        assert main(["picard", "--config", str(cfg)]) == 0
        rows = (out / "iterates.csv").read_text().splitlines()[1:]
        assert len(rows) <= 2
        field, _ = read_snapshot(out / "final.fpm1")
        assert np.all(field.values == 0.05)


class TestSweepRun:
    def test_summary_and_subdirs(self, tmp_path):
        cfg, out = write_cfg(
            tmp_path,
            LINEAR_CFG.replace("solver.t_end = 0.01", "solver.t_end = 0.005")
            .replace("solver.dt_max = 0.0002", "solver.dt_max = 0.00025"),
            **{"sweep.epsilons": "0.4, 0.2"},
        )
        assert main(["sweep_epsilon", "--config", str(cfg)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "epsilon,l2_diff,decreasing_from_prev"
        assert len(summary) == 3
        for sub in ("eps_0.4", "eps_0.2", "eps_0.0"):
            assert (out / sub / "diagnostics.csv").exists()
            assert (out / sub / "final.fpm1").exists()
        diffs = [float(line.split(",")[1]) for line in summary[1:]]
        assert diffs[0] > diffs[1] > 0

    def test_shipped_sweep_is_second_order_in_epsilon(self, tmp_path):
        # measured l2_diff 8.27e-4, 2.26e-4, 5.11e-5 at eps 0.4, 0.2, 0.1:
        # orders 1.87 and 2.14, as a symmetric mollifier gives on smooth data
        out = tmp_path / "out"
        assert run_shipped("sweep", out) == 0
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [0.4, 0.2, 0.1]
        diffs = [float(r[1]) for r in rows]
        for a, b in zip(diffs, diffs[1:]):
            assert 1.5 <= np.log2(a / b) <= 2.5

    def test_snapshots_written_per_epsilon(self, tmp_path):
        cfg, out = write_cfg(
            tmp_path,
            LINEAR_CFG.replace("solver.t_end = 0.01", "solver.t_end = 0.005")
            .replace("solver.dt_max = 0.0002", "solver.dt_max = 0.00025"),
            **{"sweep.epsilons": "0.4", "output.snapshot_times": "0.0, 0.0025, 0.005"},
        )
        assert main(["sweep_epsilon", "--config", str(cfg)]) == 0
        for sub in ("eps_0.4", "eps_0.0"):
            times = [read_snapshot(out / sub / f"snapshot_{i:03d}.fpm1")[1] for i in range(3)]
            assert times == [0.0, 0.0025, 0.005]
            last = read_snapshot(out / sub / "snapshot_002.fpm1")[0]
            final = read_snapshot(out / sub / "final.fpm1")[0]
            assert np.array_equal(last.values, final.values)
            assert not (out / sub / "snapshot_003.fpm1").exists()

    def test_snapshot_time_past_t_end_rejected(self, tmp_path, capsys):
        cfg, out = write_cfg(
            tmp_path,
            LINEAR_CFG.replace("solver.t_end = 0.01", "solver.t_end = 0.005"),
            **{"sweep.epsilons": "0.4", "output.snapshot_times": "0.0025, 5"},
        )
        assert main(["sweep_epsilon", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "output.snapshot_times" in err and "t_end = 0.005" in err
        assert not out.exists()

    def test_job_bytes_independent_of_other_epsilons(self, tmp_path):
        def run(tag, epsilons):
            cfg, out = write_cfg(
                tmp_path,
                LINEAR_CFG.replace("solver.t_end = 0.01", "solver.t_end = 0.005")
                .replace("solver.dt_max = 0.0002", "solver.dt_max = 0.00025"),
                name=f"{tag}.cfg",
                **{"sweep.epsilons": epsilons},
            )
            assert main(["sweep_epsilon", "--config", str(cfg)]) == 0
            return out

        out_two = run("two", "0.4, 0.2")
        out_one = run("one", "0.2")
        for sub in ("eps_0.2", "eps_0.0"):
            for name in ("diagnostics.csv", "final.fpm1"):
                a = (out_two / sub / name).read_bytes()
                assert a == (out_one / sub / name).read_bytes()


@pytest.mark.parametrize(
    "cfg, files",
    [
        ("linear", ["manifest.json", "diagnostics.csv", "final.fpm1"]
         + [f"snapshot_00{i}.fpm1" for i in range(3)]),
        ("picard", ["manifest.json", "iterates.csv", "diagnostics.csv", "final.fpm1"]),
        ("sweep", ["manifest.json", "summary.csv"]
         + [f"eps_{e}/{name}" for e in ("0.4", "0.2", "0.1", "0.0")
            for name in ("diagnostics.csv", "final.fpm1")]),
        ("properties", ["manifest.json", "report.csv"]),
    ],
    ids=lambda v: v if isinstance(v, str) else "outputs",
)
def test_shipped_config_runs(tmp_path, cfg, files):
    out = tmp_path / "out"
    assert run_shipped(cfg, out) == 0
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == sorted(files)
    got, ref = shipped_values(cfg, out), SHIPPED_REFERENCE[cfg]
    assert got.keys() == ref.keys()
    for key, value in ref.items():
        if isinstance(value, int):
            assert got[key] == value, key
        elif (cfg, key) == ("picard", "l2"):
            assert abs(got[key] - value) <= 5e-5 / 400, key  # picard.cfg: solver.samples = 400
        else:
            assert got[key] == pytest.approx(value, rel=1e-8), key


@pytest.mark.parametrize("cfg, radii", [("linear", [0.2]), ("picard", []),
                                         ("sweep", [0.1, 0.2, 0.4])])
def test_run_builds_each_field_and_kernel_once(tmp_path, monkeypatch, cfg, radii):
    # parse_config generates the fields and builds the kernels its checks
    # need, and the run reads those: nothing is built again
    generated, kernels = Counter(), Counter()
    generate, post_init = FieldGenerator.generate, MollifierKernel.__post_init__

    def counted_generate(self, grid):
        generated[self] += 1
        return generate(self, grid)

    def counted_post_init(self):
        kernels[self.epsilon] += 1
        post_init(self)

    monkeypatch.setattr(FieldGenerator, "generate", counted_generate)
    monkeypatch.setattr(MollifierKernel, "__post_init__", counted_post_init)
    linear_mod._band_hat.cache_clear()
    assert run_shipped(cfg, tmp_path / "out") == 0
    assert list(generated.values()) == [1] * (1 if cfg == "picard" else 2)
    assert sorted(kernels) == radii and set(kernels.values()) <= {1}


# What the shipped configs compute at their seeds, compared by tolerance so
# that it survives kernel rewrites: rtol 1e-8 on the linear and sweep values
# and the Picard horizon, exact counts.  picard's final l2 is the direct
# nonlinear march's (tests/helpers.py, 16 steps) at the horizon.  Picard's
# H^(alpha-1) distance to that march is bounded by 5e-5 / samples (criterion
# 6; 5.4e-8 measured here, against 1.25e-7), and it bounds the L2 distance.
SHIPPED_REFERENCE = {
    "linear": {"l2": 0.4782266594669303, "h_alpha": 1.1195864390130312,
               "mass": 0.7089815403622064, "min_u": 0.0029185987477730537},
    "picard": {"horizon": 0.29238078956052005, "l2": 0.04980931117641534, "iterates": 5},
    "sweep": {"l2_diff": [0.0008274178332208484, 0.00022587598623697257,
                          5.113865850376493e-05]},
    "properties": {"checks": 850},
}


def csv_rows(path):
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return [dict(zip(header, row)) for row in rows]


def shipped_values(cfg, out):
    """The SHIPPED_REFERENCE entries of a run of the shipped config cfg."""
    if cfg == "properties":
        return {"checks": len(csv_rows(out / "report.csv"))}
    if cfg == "sweep":
        return {"l2_diff": [float(r["l2_diff"]) for r in csv_rows(out / "summary.csv")]}
    last = {k: float(v) for k, v in csv_rows(out / "diagnostics.csv")[-1].items()}
    if cfg == "linear":
        return {k: last[k] for k in ("l2", "h_alpha", "mass", "min_u")}
    return {"horizon": read_snapshot(out / "final.fpm1")[1], "l2": last["l2"],
            "iterates": len(csv_rows(out / "iterates.csv"))}


class TestPropertiesRun:
    def test_report_schema(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, PROPS_CFG)
        assert main(["properties", "--config", str(cfg)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "check,seed,statistic,passed"
        assert len(lines) > 10
        assert all(line.endswith(",true") for line in lines[1:])
        assert "0 failed" in capsys.readouterr().out

    def test_rerun_is_bit_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            cfg, out = write_cfg(tmp_path, PROPS_CFG, name=f"{tag}.cfg")
            assert main(["properties", "--config", str(cfg)]) == 0
            outs.append(out)
        a, b = (o / "report.csv" for o in outs)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("module", ["scipy", "concurrent.futures"])
def test_import_leaves_module_unloaded(module):
    src = str(Path(fpme.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = f"import sys, fpme.cli; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
