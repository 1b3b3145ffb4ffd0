"""End-to-end CLI runs: exit codes, output files, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpme
import fpme.diagnostics as diag_mod
import fpme.linear as linear_mod
from fpme import read_snapshot
from fpme.cli import main

LINEAR_CFG = """
grid.dim = 1
grid.n = 64
grid.length = 6.283185307179586
solver.t_end = 0.01
solver.samples = 50
initial.kind = gaussian_bump
initial.seed = 1
initial.width = 0.8
coefficient.kind = multi_bump
coefficient.seed = 2
coefficient.width = 0.9
output.dir = {out}
"""

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

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("solver.theta = 1\n")
        assert main(["properties", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_validation_error(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, LINEAR_CFG)
        code = main(["linear", "--config", str(cfg), "--set", "solver.s=0.3"])
        assert code == 2
        assert "s must lie in" in capsys.readouterr().err

    def test_bad_set_syntax(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, LINEAR_CFG)
        assert main(["linear", "--config", str(cfg), "--set", "solver.s:0.9"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_picard_no_convergence_is_3(self, tmp_path):
        cfg, _ = write_cfg(tmp_path, PICARD_CFG, **{"solver.max_outer": 1})
        assert main(["picard", "--config", str(cfg)]) == 3

    def test_blowup_is_4(self, tmp_path, monkeypatch):
        real_step = linear_mod._rk4_step

        def exploding(u, *args, **kwargs):
            return real_step(u, *args, **kwargs) * 1e14

        monkeypatch.setattr(linear_mod, "_rk4_step", exploding)
        cfg, _ = write_cfg(tmp_path, LINEAR_CFG)
        assert main(["linear", "--config", str(cfg)]) == 4

    def test_property_failure_is_5(self, tmp_path, monkeypatch):
        real = diag_mod.check_cordoba

        def pessimist(f, s):
            return dataclasses.replace(real(f, s), passed=False)

        monkeypatch.setattr(diag_mod, "check_cordoba", pessimist)
        cfg, out = write_cfg(tmp_path, PROPS_CFG)
        assert main(["properties", "--config", str(cfg)]) == 5
        report = (out / "report.csv").read_text()
        assert ",false" in report


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

    def test_constant_initial_converges_fast(self, tmp_path):
        cfg, out = write_cfg(
            tmp_path, PICARD_CFG.replace("gaussian_bump", "constant"),
            **{"solver.mollify_initial": "false"},
        )
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
            .replace("solver.samples = 50", "solver.samples = 20"),
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

    def test_thread_count_invariance(self, tmp_path, monkeypatch):
        def run(tag, threads):
            cfg, out = write_cfg(
                tmp_path,
                LINEAR_CFG.replace("solver.t_end = 0.01", "solver.t_end = 0.005")
                .replace("solver.samples = 50", "solver.samples = 20"),
                name=f"{tag}.cfg",
                **{"sweep.epsilons": "0.4, 0.2"},
            )
            monkeypatch.setenv("FPME_THREADS", str(threads))
            assert main(["sweep_epsilon", "--config", str(cfg)]) == 0
            return out

        out1 = run("t1", 1)
        out4 = run("t4", 4)
        assert (out1 / "summary.csv").read_bytes() == (out4 / "summary.csv").read_bytes()

    def test_bad_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FPME_THREADS", "lots")
        cfg, _ = write_cfg(tmp_path, PROPS_CFG)
        assert main(["properties", "--config", str(cfg)]) == 2


class TestPropertiesRun:
    def test_report_schema(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, PROPS_CFG)
        assert main(["properties", "--config", str(cfg)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "check,seed,statistic,passed"
        assert len(lines) > 10
        assert all(line.endswith(",true") for line in lines[1:])
        assert "0 failed" in capsys.readouterr().out

    def test_report_deterministic_across_pools(self, tmp_path, monkeypatch):
        outs = []
        for tag, threads in (("p1", 1), ("p4", 4)):
            cfg, out = write_cfg(tmp_path, PROPS_CFG, name=f"{tag}.cfg")
            monkeypatch.setenv("FPME_THREADS", str(threads))
            assert main(["properties", "--config", str(cfg)]) == 0
            outs.append(out)
        a, b = (o / "report.csv" for o in outs)
        assert a.read_bytes() == b.read_bytes()


def test_import_leaves_scipy_unloaded():
    src = str(Path(fpme.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, fpme.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
