"""Outer iteration: horizon, contraction, bounds, residual, uniqueness."""

import math
import tracemalloc

import numpy as np
import pytest

import fpme.linear as linear_mod
import fpme.picard as picard_mod
from fpme import (
    FieldGenerator,
    Grid,
    LinearProblem,
    NoConvergence,
    PicardConfig,
    RealField,
    TimeStepPolicy,
    horizon,
    lp_norm,
    mollify,
    nonlinear_residual,
    run_picard,
    sobolev_norm,
    solve_linear,
    uniqueness_probe,
)
from fpme.fracops import MollifierKernel
from fpme.linear import _field
from fpme.norms import _start_band
from fpme.picard import _advance_iterate, _Samples

from conftest import random_field


def small_bump(grid, amplitude=0.05, width=0.8):
    return FieldGenerator("gaussian_bump", seed=1, amplitude=amplitude, width=width).generate(grid)


BASE = dict(s=0.75, alpha=2.1, epsilon_moll=0.0, samples=200)


class TestHorizon:
    def test_zero_data(self, grid64):
        u0 = RealField(grid64, np.zeros(64))
        cfg = PicardConfig(**BASE)
        assert horizon(u0, cfg) == pytest.approx(math.log(2) / 2, rel=1e-14)

    def test_formula(self, grid64):
        u0 = small_bump(grid64)
        h0 = sobolev_norm(u0, 2.1)
        cfg = PicardConfig(**BASE)
        assert horizon(u0, cfg) == pytest.approx(math.log(2) / (2 * (1 + h0)), rel=1e-14)

    def test_doubling_constant_halves_window(self, grid64):
        u0 = small_bump(grid64)
        t1 = horizon(u0, PicardConfig(**BASE, c_gronwall=1.0))
        t2 = horizon(u0, PicardConfig(**BASE, c_gronwall=2.0))
        assert t2 == pytest.approx(t1 / 2, rel=1e-14)

    def test_override_wins(self, grid64):
        u0 = small_bump(grid64)
        cfg = PicardConfig(**BASE, t0_override=0.017)
        assert horizon(u0, cfg) == 0.017


class TestValidation:
    def test_alpha_hypothesis_message(self):
        g = Grid(2, 16, 2 * np.pi)
        u0 = FieldGenerator("gaussian_bump", seed=1, amplitude=0.05, width=2.5).generate(g)
        cfg = PicardConfig(s=0.75, alpha=1.4, samples=50)
        with pytest.raises(ValueError, match=r"alpha must exceed dim/2\+1, got 1.4 for dim=2"):
            run_picard(u0, cfg)

    def test_negative_initial_data_rejected(self, grid64):
        u0 = RealField(grid64, small_bump(grid64).values - 0.01)
        with pytest.raises(ValueError):
            run_picard(u0, PicardConfig(**BASE))

    def test_config_field_ranges(self):
        with pytest.raises(ValueError):
            PicardConfig(s=1.0, alpha=2.1)
        with pytest.raises(ValueError):
            PicardConfig(s=0.75, alpha=2.1, tol_picard=0.0)
        with pytest.raises(ValueError):
            PicardConfig(s=0.75, alpha=2.1, max_outer=0)
        with pytest.raises(ValueError, match="safety"):
            PicardConfig(s=0.75, alpha=2.1, safety=2.0)
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            PicardConfig(s=0.75, alpha=-1.0)


class TestFixedPoint:
    def test_constant_converges_immediately(self, grid64):
        u0 = RealField(grid64, np.full(64, 0.3))
        result = run_picard(u0, PicardConfig(**BASE))
        assert result.state.converged
        assert result.state.deltas == [0.0]
        assert all(np.array_equal(f.values, u0.values) for f in result.trajectory)

    def test_bump_contracts_geometrically(self, grid64):
        result = run_picard(small_bump(grid64), PicardConfig(**BASE))
        deltas = result.state.deltas
        assert result.state.converged
        assert len(deltas) >= 3
        for a, b in zip(deltas, deltas[1:]):
            if a > 0 and b > 1e-14:
                assert b / a < 0.9

    def test_uniform_bound(self, grid64):
        u0 = small_bump(grid64)
        h0 = sobolev_norm(u0, 2.1)
        result = run_picard(u0, PicardConfig(**BASE))
        assert max(result.state.sup_halpha) <= 2.2 * h0

    def test_positivity_and_mass(self, grid64):
        u0 = small_bump(grid64)
        result = run_picard(u0, PicardConfig(**BASE))
        assert min(result.state.min_u) >= -1e-8 * lp_norm(u0, np.inf)
        masses = [r.mass for r in result.records]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-9 * abs(masses[0])

    def test_no_convergence_carries_deltas(self, grid64):
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=100, max_outer=1)
        with pytest.raises(NoConvergence) as err:
            run_picard(small_bump(grid64), cfg)
        assert len(err.value.deltas) == 1
        assert err.value.deltas[0] > 0

    def test_mollified_initial_data(self, grid64):
        u0 = small_bump(grid64)
        cfg = PicardConfig(s=0.75, alpha=2.1, epsilon_moll=0.4, samples=100)
        result = run_picard(u0, cfg)
        expected = mollify(u0, MollifierKernel(grid64, 0.4))
        assert np.array_equal(result.trajectory[0].values, expected.values)

    def test_unmollified_initial_data_option(self, grid64):
        u0 = small_bump(grid64)
        cfg = PicardConfig(
            s=0.75, alpha=2.1, epsilon_moll=0.4, samples=100, mollify_initial=False
        )
        result = run_picard(u0, cfg)
        assert np.array_equal(result.trajectory[0].values, u0.values)

    def test_records_cover_window(self, grid64):
        result = run_picard(small_bump(grid64), PicardConfig(**BASE))
        ts = [r.t for r in result.records]
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(result.horizon, rel=1e-12)
        assert all(b > a for a, b in zip(ts, ts[1:]))


class TestRecalibration:
    def test_forced_restart_updates_constant(self, grid64, monkeypatch):
        # the honest dynamics decay, so force a large measured quotient to
        # exercise the restart branch
        monkeypatch.setattr(picard_mod, "_max_quotient", lambda h, dt, sc: 50.0)
        u0 = small_bump(grid64)
        h0 = sobolev_norm(u0, 2.1)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=50)
        result = run_picard(u0, cfg)
        assert result.c_gronwall == pytest.approx(60.0)  # max(1, 1.2*50)
        assert result.horizon == pytest.approx(math.log(2) / (2 * 60.0 * (1 + h0)), rel=1e-12)
        assert result.state.converged

    def test_override_disables_recalibration(self, grid64, monkeypatch):
        monkeypatch.setattr(picard_mod, "_max_quotient", lambda h, dt, sc: 50.0)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=50, t0_override=0.05)
        result = run_picard(small_bump(grid64), cfg)
        assert result.c_gronwall == 1.0
        assert result.horizon == 0.05


class TestFreezes:
    def test_one_freeze_per_distinct_coefficient(self, grid64, monkeypatch):
        # the first iterate's coefficient is the initial datum on every
        # segment, so it is frozen once; later iterates freeze every sample
        calls = []
        real = picard_mod._freeze

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(picard_mod, "_freeze", counting)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=50, t0_override=0.05)
        result = run_picard(small_bump(grid64), cfg)
        assert len(calls) == (len(result.state.deltas) - 1) * cfg.samples + 1


class TestBandTrajectory:
    """The trajectory is held as band states; real fields are made on access."""

    def test_spectral_delta_matches_real_space_distance(self, grid2d):
        # the first two iterates move by 2e-3 and 2e-5, far above the
        # roundoff of the real-space difference of two O(0.05) fields
        u0 = small_bump(grid2d, width=1.2)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=100)
        m = cfg.samples
        dt_seg = horizon(u0, cfg) / m
        F0, tail = _start_band(u0, cfg.alpha)
        traj = _Samples([F0] * (m + 1), [float(np.max(np.abs(u0.values)))] * (m + 1))

        def values(F):
            return _field(u0, F, F0, 0.0).values

        for _ in range(2):
            kept = list(traj.states)
            traj, _, delta, _ = _advance_iterate(u0, tail, traj, cfg, dt_seg, None)
            real = max(
                sobolev_norm(RealField(grid2d, values(a) - values(b)), cfg.alpha - 1.0)
                for a, b in zip(traj.states, kept)
            )
            assert delta == pytest.approx(real, rel=1e-12)

    def test_peak_memory_is_one_trajectory_of_band_states(self, grid2d):
        # one trajectory of band states, plus a few dozen real fields for the
        # RK4 stages, the frozen coefficients and the records; two
        # trajectories of real fields take 3.7x this bound at n=32
        u0 = small_bump(grid2d, width=1.2)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=400, tol_picard=1e-4)
        run_picard(u0, PicardConfig(s=0.75, alpha=2.1, samples=4))  # fill the symbol caches
        c = grid2d.dealias_cutoff
        band_bytes = (2 * c + 1) * (c + 1) * np.dtype(complex).itemsize + 256  # and header
        bound = (cfg.samples + 1) * band_bytes + 32 * u0.values.nbytes
        tracemalloc.start()
        try:
            result = run_picard(u0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.state.deltas) == 2
        assert peak <= bound

    def test_trajectory_items_are_field_output(self, grid2d):
        u0 = small_bump(grid2d, width=1.2)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=20)
        result = run_picard(u0, cfg)
        traj = result.trajectory
        assert len(traj) == cfg.samples + 1
        states = traj._states
        for i in (0, 1, cfg.samples // 2, cfg.samples, -1):
            expected = _field(u0, states[i], states[0], float(result.times[i]))
            assert np.array_equal(traj[i].values, expected.values)
        assert np.array_equal(traj[-1].values, traj[cfg.samples].values)
        assert np.array_equal(traj[0].values, u0.values)
        with pytest.raises(TypeError):
            traj[0] = u0

    def test_trajectory_slices_are_lists_of_items(self, grid2d):
        u0 = small_bump(grid2d, width=1.2)
        traj = run_picard(u0, PicardConfig(s=0.75, alpha=2.1, samples=10)).trajectory
        for sl in (slice(1, 3), slice(None, None, 4), slice(-3, None), slice(5, 2), slice(None)):
            items = traj[sl]
            assert isinstance(items, list)
            indices = range(len(traj))[sl]
            assert len(items) == len(indices)
            for field, i in zip(items, indices):
                assert np.array_equal(field.values, traj[i].values)


class TestSegments:
    @pytest.mark.parametrize(
        "amplitude, samples, steps_per_segment", [(5.0, 4, 2), (0.05, 8, 1)]
    )
    def test_first_iterate_matches_solve_linear(
        self, grid64, monkeypatch, amplitude, samples, steps_per_segment
    ):
        # the first iterate freezes u0 over the whole window, so it is the
        # linear flow with v = u0; a large amplitude caps the RK4 step below
        # the segment length, and each segment then takes several steps
        steps = []
        real_step = linear_mod._rk4_step

        def counting(*args):
            steps.append(args[1])
            return real_step(*args)

        monkeypatch.setattr(linear_mod, "_rk4_step", counting)
        u0 = small_bump(grid64, amplitude)
        cfg = PicardConfig(
            s=0.75, alpha=2.1, samples=samples, t0_override=0.05, tol_picard=1e300
        )
        result = run_picard(u0, cfg)
        assert len(result.state.deltas) == 1
        assert len(steps) == steps_per_segment * samples

        dt_seg = result.horizon / samples
        problem = LinearProblem(v=u0, u0=u0, s=0.75, epsilon=0.0, t_end=result.horizon)
        sol = solve_linear(
            problem, TimeStepPolicy(dt_max=dt_seg), 2.1, 1, tuple(result.times)
        )
        assert len(sol.snapshots) == samples + 1
        scale = float(np.max(np.abs(u0.values)))
        for (t, snap), t_pic, pic in zip(sol.snapshots, result.times, result.trajectory):
            assert t == pytest.approx(t_pic, rel=1e-14)
            assert np.max(np.abs(snap.values - pic.values)) <= 1e-14 * scale


class TestResidual:
    def test_converged_trajectory_solves_equation(self, grid64):
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=400)
        result = run_picard(small_bump(grid64), cfg)
        defects = nonlinear_residual(result, s=0.75, stride=4)
        assert len(defects) > 10
        worst = max(d for _, d in defects)
        assert worst <= 1e-6

    def test_residual_shrinks_with_sampling(self, grid64):
        # the frozen-coefficient lag is O(segment length): doubling the
        # sample count should cut the defect roughly in half
        worsts = []
        for m in (100, 200):
            cfg = PicardConfig(s=0.75, alpha=2.1, samples=m)
            result = run_picard(small_bump(grid64), cfg)
            worsts.append(max(d for _, d in nonlinear_residual(result, s=0.75, stride=4)))
        assert worsts[1] < 0.7 * worsts[0]


class TestUniquenessProbe:
    def test_zero_perturbation_ratio_is_one(self, grid64):
        u0 = small_bump(grid64)
        ratio = uniqueness_probe(u0, PicardConfig(**BASE), RealField(grid64, np.zeros(64)))
        assert ratio == 1.0

    def test_large_seed_rejected(self, grid64):
        u0 = small_bump(grid64)
        big = RealField(grid64, np.full(64, 0.5))
        with pytest.raises(ValueError):
            uniqueness_probe(u0, PicardConfig(**BASE), big)

    def test_growth_within_envelope(self, grid64):
        u0 = small_bump(grid64)
        cfg = PicardConfig(**BASE)
        h0 = sobolev_norm(u0, 2.1)
        seed_scale = 1e-6 * (1 + h0)
        base = run_picard(u0, cfg)
        envelope = 2.0 * math.exp(
            base.c_gronwall * max(base.state.sup_halpha) * base.horizon
        )
        for seed in (21, 22, 23):
            d = random_field(grid64, seed=seed, k_max=12)
            d = RealField(grid64, d.values * (0.5 * seed_scale / sobolev_norm(d, 2.1)))
            ratio = uniqueness_probe(u0, cfg, d)
            assert ratio <= envelope
