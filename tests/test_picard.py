"""Outer iteration: horizon, contraction, bounds, reference march, closed
form, uniqueness."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import fpme.linear as linear_mod
import fpme.picard as picard_mod
from fpme import (
    FieldGenerator,
    Grid,
    GridMismatch,
    LinearProblem,
    NoConvergence,
    PicardConfig,
    RealField,
    TimeStepPolicy,
    horizon,
    lp_norm,
    mollify,
    run_picard,
    sobolev_norm,
    solve_linear,
)
from fpme.fracops import MollifierKernel
from fpme.linear import _field
from fpme.norms import _start_band
from fpme.picard import _advance_iterate

from conftest import count_calls, deadline, random_field
from helpers import band_distance, hilbert_flux_solution, nonlinear_march, uniqueness_probe


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

    @pytest.mark.parametrize(
        "field, bad", [("samples", 50.5), ("max_outer", 2.5), ("max_outer", True)]
    )
    def test_fractional_count_rejected(self, field, bad):
        # samples = 50.5 used to fail inside run_picard with a TypeError,
        # max_outer = 2.5 ran 3 iterates before giving up, and max_outer =
        # True ran as 1
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= "):
            PicardConfig(s=0.75, alpha=2.1, **{field: bad})


class TestFixedPoint:
    def test_constant_converges_immediately(self, grid64):
        u0 = RealField(grid64, np.full(64, 0.3))
        result = run_picard(u0, PicardConfig(**BASE))
        # one iterate, converged, its delta roundoff: the band pair's sums
        # leave the constant's nonzero modes at roundoff, not exactly zero
        # (measured 0.26 eps times the H^alpha norm)
        state = result.state
        assert state.converged and len(state.deltas) == 1
        assert state.deltas[0] <= 4 * np.finfo(float).eps * state.sup_halpha[0]
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

    def test_records_cover_window(self, grid64):
        result = run_picard(small_bump(grid64), PicardConfig(**BASE))
        ts = [r.t for r in result.records]
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(result.horizon, rel=1e-12)
        assert all(b > a for a, b in zip(ts, ts[1:]))


class TestSnapshots:
    def test_snapshots_hit_each_time_and_change_no_other_output(self, grid64):
        u0 = small_bump(grid64)
        cfg = PicardConfig(**BASE)
        plain = run_picard(u0, cfg)
        dt, t0 = float(plain.times[1]), plain.horizon
        # given out of order: inside segment 7, past the horizon, the horizon,
        # a sample time, inside the last segment, the start
        asked = (7.3 * dt, 2.0 * t0, t0, float(plain.times[7]), t0 - 0.5 * dt, 0.0)
        snap = run_picard(u0, cfg, asked)
        assert [t for t, _ in snap.snapshots] == sorted(t for t in asked if t <= t0)
        assert snap.state.deltas == plain.state.deltas
        assert snap.records == plain.records
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(snap.trajectory, plain.trajectory))
        fields = dict(snap.snapshots)
        assert np.array_equal(fields[0.0].values, u0.values)
        assert np.array_equal(fields[float(plain.times[7])].values, plain.trajectory[7].values)
        for t in (7.3 * dt, t0 - 0.5 * dt):
            assert all(not np.array_equal(fields[t].values, f.values) for f in plain.trajectory)
        # the horizon is marched to from sample m - 1, onto sample m up to roundoff
        assert np.max(np.abs(fields[t0].values - plain.trajectory[-1].values)) <= 1e-15

    @pytest.mark.parametrize("times", [(0.01, 0.01), (-0.01,), (np.nan,), (np.inf,)])
    def test_bad_snapshot_times_rejected_before_any_work(self, grid64, times, monkeypatch):
        monkeypatch.setattr(picard_mod, "sobolev_norm", None)
        with pytest.raises(ValueError, match="^snapshot times must be distinct, finite"):
            run_picard(small_bump(grid64), PicardConfig(**BASE), times)


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

    def test_exhausted_budget_is_reported(self, grid64, monkeypatch):
        # every attempt measures a quotient 1000x its last, so each one
        # recalibrates; its single iterate is already below tol_picard
        quotients = iter(50.0 * 1000.0**k for k in range(10))
        monkeypatch.setattr(picard_mod, "_max_quotient", lambda h, dt, sc: next(quotients))
        # the attempts share one start: its band is made once per run
        starts = []
        count_calls(monkeypatch, picard_mod, "_start_band", starts)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=50)
        with pytest.raises(NoConvergence, match=(
            r"^recalibration budget exhausted: each of 4 attempts raised the Gronwall "
            r"constant, the last to C = 6e\+10$"
        )) as err:
            run_picard(small_bump(grid64), cfg)
        assert len(err.value.deltas) == 1
        assert err.value.deltas[0] < cfg.tol_picard
        assert len(starts) == 1

    def test_override_disables_recalibration(self, grid64, monkeypatch):
        monkeypatch.setattr(picard_mod, "_max_quotient", lambda h, dt, sc: 50.0)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=50, t0_override=0.05)
        result = run_picard(small_bump(grid64), cfg)
        assert result.c_gronwall == 1.0
        assert result.horizon == 0.05


class TestFreezes:
    def test_one_freeze_per_distinct_coefficient(self, grid64, monkeypatch):
        # the first iterate's coefficient is the initial datum on every
        # segment, and every iterate's on the first: the attempt freezes it
        # once, for its step budget, and later iterates freeze each of the
        # other samples
        calls = []
        real = picard_mod._freeze

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(picard_mod, "_freeze", counting)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=50, t0_override=0.05)
        result = run_picard(small_bump(grid64), cfg)
        assert len(calls) == (len(result.state.deltas) - 1) * (cfg.samples - 1) + 1

    @pytest.mark.parametrize(
        "grid", [Grid(1, 64, 2 * np.pi), Grid(2, 32, 2 * np.pi)], ids=["dim1", "dim2"]
    )
    @pytest.mark.parametrize("epsilon", [0.0, 0.4])
    def test_band_state_freeze_matches_field_freeze(self, grid, epsilon):
        # Picard freezes the band states it stores; make_coefficient_ops of
        # the same samples' RealFields gives the same ops to roundoff,
        # rho_est included, and the same cached filter
        cfg = PicardConfig(s=0.75, alpha=2.1, epsilon_moll=epsilon, samples=20)
        result = run_picard(small_bump(grid, width=1.2), cfg)
        for F, u in zip(result.trajectory._states, result.trajectory):
            a = picard_mod._freeze(grid, F, cfg.s, epsilon)
            b = linear_mod.make_coefficient_ops(u, cfg.s, epsilon)
            for row_a, row_b in zip(a.coeffs, b.coeffs):
                assert np.max(np.abs(row_a - row_b)) <= 1e-13 * np.max(np.abs(row_b))
            assert a.rho_est == pytest.approx(b.rho_est, rel=1e-13)
            assert a.filt is b.filt


class TestBandTrajectory:
    """The trajectory is held as band states; real fields are made on access."""

    def test_spectral_delta_matches_real_space_distance(self, grid2d):
        # the first two iterates move by 2e-3 and 2e-5, far above the
        # roundoff of the real-space difference of two O(0.05) fields
        u0 = small_bump(grid2d, width=1.2)
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=100)
        m = cfg.samples
        policy = TimeStepPolicy(dt_max=horizon(u0, cfg) / m, safety=cfg.safety)
        F0, tail = _start_band(u0, cfg.alpha)
        start = picard_mod._freeze(grid2d, F0, cfg.s, 0.0)
        traj = [F0] * (m + 1)

        def values(F):
            return _field(u0, F, F0, 0.0).values

        for _ in range(2):
            kept = list(traj)
            traj, _, delta, _ = _advance_iterate(u0, tail, traj, cfg, policy, start)
            real = max(
                sobolev_norm(RealField(grid2d, values(a) - values(b)), cfg.alpha - 1.0)
                for a, b in zip(traj, kept)
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


class TestStepBudget:
    """The step budget is run_picard's own, counted before any step."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.4])
    @pytest.mark.parametrize("safety", [1e-3, 1e-4])
    def test_count_is_the_first_iterates_steps(self, grid64, monkeypatch, safety, epsilon):
        # rho_est 0.734 at u0, less at its mollified start: about 5 and 46
        # steps in each segment of 0.00625; the first iterate freezes only
        # the start, whose rate is counted
        counts, steps = [], []
        count_calls(monkeypatch, picard_mod, "_step_count", counts)
        count_calls(monkeypatch, linear_mod, "_rk4_step", steps)
        cfg = PicardConfig(s=0.75, alpha=2.1, epsilon_moll=epsilon, samples=8,
                           t0_override=0.05, tol_picard=1e300, safety=safety)
        result = run_picard(small_bump(grid64), cfg)
        assert len(result.state.deltas) == 1
        assert counts == [len(steps)] and len(steps) > cfg.samples

    @pytest.mark.parametrize("override", [{"t0_override": 1e300}, {"samples": 2_000_000}],
                             ids=["long-horizon", "many-samples"])
    def test_iterate_past_the_budget_raises_before_a_step(self, grid64, monkeypatch, override):
        # about 1.5e300 steps, and one step in each of 2e6 segments: the
        # first marched until it was killed, the second after allocating
        # about 32 MB of sample times and states
        steps = []
        count_calls(monkeypatch, linear_mod, "_rk4_step", steps)
        cfg = PicardConfig(s=0.75, alpha=2.1, **override)
        with deadline(10, "run_picard"):
            with pytest.raises(ValueError, match="RK4 steps, past the budget of 1,000,000"):
                run_picard(small_bump(grid64), cfg)
        assert steps == []

    @pytest.mark.parametrize("epsilon", [0.0, 0.4])
    def test_overflowing_start_raises_without_a_warning(self, grid64, epsilon):
        # with t0_override the horizon does not read u0's norm, so the
        # start's freeze is the first check to meet the overflow
        u0 = RealField(grid64, small_bump(grid64).values * 1e300)
        cfg = PicardConfig(s=0.75, alpha=2.1, epsilon_moll=epsilon, t0_override=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="rho_est must be finite, got inf"):
                run_picard(u0, cfg)


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


class TestReference:
    """Picard's final state against the direct nonlinear march of helpers.

    The march is order 4 in its steps and 16 steps put it within 5e-15 of
    its limit here, so the distance is Picard's own time error: the
    coefficient frozen over each sample interval, first order in
    1/samples.  Distances are in H^(alpha - 1) = H^1.1."""

    @pytest.fixture(params=[(1, 64, 0.8), (2, 32, 1.2)], ids=["1d-n64", "2d-n32"])
    def case(self, request):
        dim, n, width = request.param
        u0 = small_bump(Grid(dim, n, 2 * np.pi), width=width)
        return u0, horizon(u0, PicardConfig(s=0.75, alpha=2.1))

    def distance(self, case, samples, reference):
        u0, t0 = case
        cfg = PicardConfig(s=0.75, alpha=2.1, samples=samples, t0_override=t0)
        final = run_picard(u0, cfg).trajectory._states[-1]
        return band_distance(u0.grid, final, reference, 1.1)

    def test_march_is_fourth_order(self, case):
        u0, t0 = case
        limit = nonlinear_march(u0, 0.75, t0, 64)
        errors = [
            band_distance(u0.grid, nonlinear_march(u0, 0.75, t0, steps), limit, 1.1)
            for steps in (2, 4, 8)
        ]
        for a, b in zip(errors, errors[1:]):
            assert 14.0 <= a / b <= 18.0

    def test_distance_within_time_error_bound(self, case):
        # measured 2.15e-5 / samples at 1-D and 1.58e-5 / samples at 2-D
        u0, t0 = case
        assert self.distance(case, 400, nonlinear_march(u0, 0.75, t0, 16)) <= 5e-5 / 400

    def test_distance_is_first_order_in_samples(self, case):
        u0, t0 = case
        reference = nonlinear_march(u0, 0.75, t0, 16)
        d = [self.distance(case, m, reference) for m in (50, 100, 200)]
        for a, b in zip(d, d[1:]):
            assert 1.8 <= a / b <= 2.2


    def test_march_decays_at_the_linearized_rate(self):
        # near its mean ubar the flow is du/dt = -ubar (-Lap)^(1-s) u, so the
        # log-decay rate of ||u - ubar|| falls to ubar |k|^(2-2s) = ubar at
        # k = 1 (measured 0.1331 over [25, 30], 0.1195 over [35, 40] and ubar
        # 0.11284); the march conserves the zero mode
        g = Grid(1, 64, 2 * np.pi)
        u0 = FieldGenerator("gaussian_bump", seed=1, amplitude=0.5, width=0.8).generate(g)
        F0 = g.band_forward(u0.values)
        F, t, spread = F0, 0, {}
        for stop in (25, 30, 35, 40):
            F = nonlinear_march(u0, 0.75, stop - t, round((stop - t) / 0.05), F)
            t = stop
            u = u0.values + g.band_inverse(F - F0)
            spread[stop] = np.linalg.norm(u - u.mean())
        rate = {a: math.log(spread[a] / spread[a + 5]) / 5 for a in (25, 35)}
        ubar = float(np.mean(u0.values))
        assert ubar < rate[35] < rate[25]
        assert rate[35] < 1.1 * ubar
        assert abs(F[0] - F0[0]) <= 1e-14 * abs(F0[0])


class TestClosedForm:
    """The march and Picard against the exact solution of
    helpers.hilbert_flux_solution at s = 1/2 from u0 = 1 + 0.5 cos(e.x), in
    the max norm.  Each bound is at least twice the error measured with
    numpy 2.4.6, the same on 1 and 2 BLAS threads; the measured values are
    in comments."""

    @staticmethod
    def initial(n, e):
        g = Grid(len(e), n, 2 * np.pi)
        return RealField(g, hilbert_flux_solution(g, 0.0, e))

    def march_error(self, n, t_end, steps, e=(1,)):
        u0 = self.initial(n, e)
        g = u0.grid
        F = nonlinear_march(u0, 0.5, t_end, steps)
        u = u0.values + g.band_inverse(F - g.band_forward(u0.values))
        return np.max(np.abs(u - hilbert_flux_solution(g, t_end, e)))

    def test_march_converges_geometrically_in_n(self):
        # 3.93e-4, 1.99e-6, 4.14e-11 at T = 0.5, 100 steps; an algebraic
        # order p would gain 2^p at each doubling of n, not ever more
        errors = [self.march_error(n, 0.5, 100) for n in (16, 32, 64)]
        assert errors[0] <= 7.9e-4 and errors[1] <= 4.0e-6 and errors[2] <= 8.3e-11
        gains = [a / b for a, b in zip(errors, errors[1:])]
        assert 100 <= gains[0] < gains[1]

    @pytest.mark.parametrize(
        "e, bounds",
        [((1, 1), (9.5e-6, 5.3e-10)), ((1, 1, 1), (2.3e-5, 2.8e-9))],
        ids=["2d", "3d"],
    )
    def test_plane_wave_march_converges_in_n(self, e, bounds):
        # n = 16 -> 32 at T = 0.1, 20 steps: 4.71e-6 -> 2.64e-10 for e = (1, 1)
        # and 1.11e-5 -> 1.38e-9 for e = (1, 1, 1), every axis's derivative
        # matrix and the cross-axis products at work
        errors = [self.march_error(n, 0.1, 20, e) for n in (16, 32)]
        assert errors[0] <= bounds[0] and errors[1] <= bounds[1]
        assert errors[0] / errors[1] >= 1000

    def test_march_is_fourth_order_in_steps(self):
        # 4.69e-9 -> 3.02e-10 at n = 64, T = 0.5, 25 -> 50 steps: ratio 15.5
        coarse, fine = (self.march_error(64, 0.5, steps) for steps in (25, 50))
        assert coarse <= 9.4e-9 and fine <= 6.1e-10
        assert coarse / fine >= 12

    @pytest.mark.parametrize(
        "n, e, bounds",
        [
            # horizon 0.0879, 7 iterates: 4.09e-5, 2.04e-5, 1.02e-5, 5.10e-6
            (64, (1,), (8.2e-5, 4.1e-5, 2.1e-5, 1.1e-5)),
            # horizon 0.0332, 6 iterates: 1.36e-5, 6.80e-6, 3.38e-6
            (16, (1, 1), (2.8e-5, 1.4e-5, 6.8e-6)),
            # horizon 0.0091, 6 iterates: 1.73e-6, 8.65e-7, 4.32e-7
            (16, (1, 1, 1), (3.5e-6, 1.8e-6, 8.7e-7)),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_picard_is_first_order_in_samples(self, n, e, bounds):
        # the error at the horizon, for 25, 50, 100 (and 200) samples
        u0 = self.initial(n, e)
        errors = []
        for samples in (25, 50, 100, 200)[: len(bounds)]:
            cfg = PicardConfig(s=0.5, alpha=len(e) / 2 + 1.1, samples=samples, tol_picard=1e-12)
            result = run_picard(u0, cfg)
            exact = hilbert_flux_solution(u0.grid, result.horizon, e)
            errors.append(np.max(np.abs(result.trajectory[-1].values - exact)))
        assert all(err <= bound for err, bound in zip(errors, bounds))
        for a, b in zip(errors, errors[1:]):
            assert 1.8 <= a / b <= 2.2


    def test_mid_segment_snapshot_is_first_order_in_samples(self):
        # mid-segment near a third of the window, 1-D n = 64: 1.69e-5,
        # 8.36e-6, 4.26e-6 for 25, 50, 100 samples, Picard's own time error;
        # the nearest stored sample is 1.21e-3, 6.22e-4, 3.03e-4 away
        u0 = self.initial(64, (1,))
        errors = []
        for samples in (25, 50, 100):
            cfg = PicardConfig(s=0.5, alpha=1.6, samples=samples, tol_picard=1e-12)
            ts = (samples // 3 + 0.5) * horizon(u0, cfg) / samples
            result = run_picard(u0, cfg, (ts,))
            assert result.horizon == horizon(u0, cfg)
            [(t, snap)] = result.snapshots
            assert t == ts
            errors.append(np.max(np.abs(snap.values - hilbert_flux_solution(u0.grid, ts, (1,)))))
        assert all(err <= bound for err, bound in zip(errors, (3.5e-5, 1.8e-5, 8.8e-6)))
        for a, b in zip(errors, errors[1:]):
            assert 1.8 <= a / b <= 2.2


class TestUniquenessProbe:
    def test_zero_perturbation_ratio_is_one(self, grid64):
        u0 = small_bump(grid64)
        ratio = uniqueness_probe(u0, PicardConfig(**BASE), RealField(grid64, np.zeros(64)))
        assert ratio == 1.0

    @pytest.mark.parametrize(
        "seed_grid", [Grid(1, 16, 2 * np.pi), Grid(2, 16, 3.0)], ids=["dim1", "length3"]
    )
    def test_seed_on_another_grid_rejected_before_any_work(self, seed_grid, monkeypatch):
        # a 1-D seed used to broadcast across the 2-D field (ratio 2.5066),
        # and a seed on another side length ran as if on u0's (2.0944)
        grid = Grid(2, 16, 2 * np.pi)
        u0 = small_bump(grid, width=2.5)
        monkeypatch.setattr(picard_mod, "sobolev_norm", None)
        monkeypatch.setattr(picard_mod, "run_picard", None)
        seed = RealField(seed_grid, np.full(seed_grid.shape, 1e-9))
        with pytest.raises(GridMismatch, match="^delta_seed grid"):
            uniqueness_probe(u0, PicardConfig(**BASE), seed)

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
