"""Frozen-coefficient solver: rhs structure, stability, conservation."""

import numpy as np
import pytest

import fpme.linear as linear_mod
from fpme import (
    BlowUp,
    FieldGenerator,
    Grid,
    LinearProblem,
    RealField,
    TimeStepPolicy,
    lp_norm,
    sobolev_norm,
    solve_linear,
)
from fpme.fracops import MollifierKernel
from fpme.grid import resample
from fpme.linear import _freeze, _march, make_coefficient_ops, rhs_with_ops

from conftest import deadline, random_field
from helpers import band_distance


def frozen_rhs(u, prob):
    """Right-hand side at state u with freshly frozen coefficient ops."""
    return rhs_with_ops(u, make_coefficient_ops(prob.v, prob.s, prob.epsilon))


def bump(grid, seed, amplitude=0.5, width=0.8):
    return FieldGenerator("gaussian_bump", seed=seed, amplitude=amplitude, width=width).generate(grid)


class TestRhsStructure:
    def test_zero_coefficient_gives_zero(self, grid64):
        u = random_field(grid64, seed=1)
        prob = LinearProblem(
            v=RealField(grid64, np.zeros(64)), u0=u, s=0.75, epsilon=0.0, t_end=1.0
        )
        out = frozen_rhs(u, prob)
        assert np.max(np.abs(out.values)) == 0.0

    def test_constant_state_is_stationary(self, grid64):
        # both terms kill constants: the gradient directly, the fractional
        # Laplacian through its vanishing zero-mode symbol
        v = bump(grid64, seed=2)
        prob = LinearProblem(
            v=v, u0=RealField(grid64, np.full(64, 3.0)), s=0.75, epsilon=0.0, t_end=1.0
        )
        out = frozen_rhs(prob.u0, prob)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_mean_zero(self, grid64):
        for seed in range(10):
            u = random_field(grid64, seed=seed, k_max=grid64.dealias_cutoff)
            v = bump(grid64, seed=100 + seed)
            prob = LinearProblem(v=v, u0=u, s=0.6, epsilon=0.0, t_end=1.0)
            out = frozen_rhs(u, prob)
            scale = max(1.0, np.max(np.abs(out.values)))
            assert abs(np.mean(out.values)) < 1e-12 * scale

    @pytest.mark.parametrize("k_u,k_v", [(2, 3), (3, 4)])
    def test_two_mode_closed_form(self, k_u, k_v):
        # hand convolution: u = A cos(k_u x), v = B(1 + cos(k_v x)) interact
        # through exactly four output modes; the (k_u + k_v) one is clipped
        # when it exceeds the 2/3 cutoff (N=16 keeps |k| <= 5)
        g = Grid(1, 16, 2 * np.pi)
        x = g.axes()[0]
        s, A, B = 0.75, 0.7, 0.5
        u = RealField(g, A * np.cos(k_u * x))
        v = RealField(g, B * (1.0 + np.cos(k_v * x)))
        prob = LinearProblem(v=v, u0=u, s=s, epsilon=0.0, t_end=1.0)

        transport = (A * B * k_u * k_v ** (1 - 2 * s) / 2) * (
            np.cos((k_u - k_v) * x) - np.cos((k_u + k_v) * x)
        )
        diffusion = A * B * k_u ** (2 - 2 * s) * (
            np.cos(k_u * x)
            + 0.5 * np.cos((k_u + k_v) * x)
            + 0.5 * np.cos((k_u - k_v) * x)
        )
        expected = transport - diffusion
        if k_u + k_v > g.dealias_cutoff:
            # remove the clipped sum mode from the hand formula
            expected += (A * B * k_u * k_v ** (1 - 2 * s) / 2) * np.cos((k_u + k_v) * x)
            expected += A * B * k_u ** (2 - 2 * s) * 0.5 * np.cos((k_u + k_v) * x)
        out = frozen_rhs(u, prob)
        assert np.max(np.abs(out.values - expected)) < 1e-11

    def test_two_mode_closed_form_mollified(self):
        # with epsilon > 0 every mode k picks up kernel_hat[|k|]: once from the
        # inner J_eps on u, once from the outer J_eps on each flux term; the
        # potential of v is never mollified
        g = Grid(1, 16, 2 * np.pi)
        x = g.axes()[0]
        s, A, B, eps = 0.75, 0.7, 0.5, 0.8
        k_u, k_v = 2, 3
        m = MollifierKernel(g, eps).kernel_hat
        u = RealField(g, A * np.cos(k_u * x))
        v = RealField(g, B * (1.0 + np.cos(k_v * x)))
        prob = LinearProblem(v=v, u0=u, s=s, epsilon=eps, t_end=1.0)

        a_in = A * m[k_u]
        tr_amp = a_in * B * k_u * k_v ** (1 - 2 * s) / 2
        di_amp = a_in * B * k_u ** (2 - 2 * s)
        expected = (
            tr_amp * (m[abs(k_u - k_v)] * np.cos((k_u - k_v) * x) - m[k_u + k_v] * np.cos((k_u + k_v) * x))
            - di_amp * m[k_u] * np.cos(k_u * x)
            - di_amp * 0.5 * m[k_u + k_v] * np.cos((k_u + k_v) * x)
            - di_amp * 0.5 * m[abs(k_u - k_v)] * np.cos((k_u - k_v) * x)
        )
        out = frozen_rhs(u, prob)
        assert np.max(np.abs(out.values - expected)) < 1e-11

    @pytest.mark.parametrize("n", [16, 128], ids=["matrix", "matrix_n128"])
    def test_two_mode_closed_form_2d(self, n):
        # u = A cos(a.x), v = B(1 + cos(b.x)): the transport term is
        # AB |b|^(-2s) (a.b) sin(a.x) sin(b.x), the diffusion term
        # AB |a|^(2-2s) (1 + cos(b.x)) cos(a.x); every output mode, a, a + b
        # and a - b, lies inside the cutoff 5 of n = 16.  The 2-D band pair
        # is the cos/sin matrix products at every n, 128 included
        g = Grid(2, n, 2 * np.pi)
        x, y = g.axes()
        s, A, B = 0.75, 0.7, 0.5
        a, b = np.array([1, 2]), np.array([3, 1])
        phase = lambda k: k[0] * x + k[1] * y  # noqa: E731
        u = RealField(g, A * np.cos(phase(a)))
        v = RealField(g, B * (1.0 + np.cos(phase(b))))
        prob = LinearProblem(v=v, u0=u, s=s, epsilon=0.0, t_end=1.0)

        norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
        transport = (A * B * norm_b ** (-2 * s) * (a @ b) / 2) * (
            np.cos(phase(a - b)) - np.cos(phase(a + b))
        )
        diffusion = A * B * norm_a ** (2 - 2 * s) * (
            np.cos(phase(a)) + 0.5 * np.cos(phase(a + b)) + 0.5 * np.cos(phase(a - b))
        )
        out = frozen_rhs(u, prob)
        assert np.max(np.abs(out.values - (transport - diffusion))) < 1e-11

    def test_grid_mismatch(self, grid64):
        other = Grid(1, 32, 2 * np.pi)
        v = bump(grid64, seed=3)
        prob = LinearProblem(v=v, u0=bump(grid64, seed=4), s=0.75, epsilon=0.0, t_end=1.0)
        from fpme import GridMismatch

        with pytest.raises(GridMismatch):
            frozen_rhs(random_field(other, seed=0), prob)


class TestProblemValidation:
    def test_negative_coefficient_rejected(self, grid64):
        v = RealField(grid64, np.full(64, -0.5))
        with pytest.raises(ValueError):
            LinearProblem(v=v, u0=bump(grid64, 1), s=0.75, epsilon=0.0, t_end=1.0)

    def test_s_range(self, grid64):
        v = bump(grid64, 1)
        for s in (0.4, 1.0):
            with pytest.raises(ValueError):
                LinearProblem(v=v, u0=v, s=s, epsilon=0.0, t_end=1.0)

    def test_grids_must_match(self, grid64):
        from fpme import GridMismatch

        with pytest.raises(GridMismatch, match="v and u0 must share a grid"):
            LinearProblem(v=bump(grid64, 1), u0=bump(Grid(1, 128, 2 * np.pi), 2),
                          s=0.75, epsilon=0.0, t_end=1.0)

    def test_tiny_negative_coefficient_tolerated(self, grid64):
        vals = bump(grid64, 1).values.copy()
        vals[0] = -1e-13
        LinearProblem(v=RealField(grid64, vals), u0=bump(grid64, 2), s=0.75, epsilon=0.0, t_end=1.0)


class TestTimeStepPolicy:
    def test_zero_rho_gives_dt_max(self):
        pol = TimeStepPolicy(dt_max=0.1, safety=0.5)
        assert pol.step_size(0.0) == 0.1

    def test_stiff_rho_scales_down(self):
        pol = TimeStepPolicy(dt_max=0.1, safety=0.5)
        assert pol.step_size(1000.0) == pytest.approx(5e-4)

    @pytest.mark.parametrize("rho", [np.inf, np.nan])
    def test_non_finite_rho_rejected(self, rho):
        # inf used to give a step of 0, and nan one of dt_max
        with pytest.raises(ValueError, match="rho_est must be finite"):
            TimeStepPolicy(dt_max=0.1).step_size(rho)

    def test_step_that_underflows_rejected(self):
        # safety / rho_est = 5e-324 / 100 rounds to 0
        with pytest.raises(ValueError, match="safety / rho_est = 5e-324 / 100 underflows to 0"):
            TimeStepPolicy(dt_max=1e-3, safety=5e-324).step_size(100.0)

    def test_solve_with_underflowing_step_raises(self, grid64):
        # the march used to step by 0 forever, so a regression is stopped by
        # the alarm
        prob = make_problem(grid64, seed=7)
        with deadline(10, "solve_linear"):
            with pytest.raises(ValueError, match="underflows to 0"):
                solve_linear(prob, TimeStepPolicy(dt_max=1e-3, safety=5e-324), alpha=2.1)

    def test_solve_with_overflowing_coefficient_raises(self, grid64):
        # at amplitude 1e300 the freeze's rho_est is inf: the march used to
        # step by 0 forever, so a regression is stopped by the alarm
        prob = make_problem(grid64, seed=7)
        huge = LinearProblem(v=RealField(grid64, prob.v.values * 2e300), u0=prob.u0,
                             s=prob.s, epsilon=0.0, t_end=prob.t_end)
        with deadline(10, "solve_linear"), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="rho_est must be finite, got inf"):
                solve_linear(huge, TimeStepPolicy(dt_max=1e-3), alpha=2.1)

    def test_rho_est_formula(self, grid64):
        v = bump(grid64, seed=7)
        s = 0.75
        ops = make_coefficient_ops(v, s, 0.0)
        from fpme.fracops import gradient, inv_frac_laplacian

        grad_p = gradient(inv_frac_laplacian(v, s))
        grad_norm = np.max(np.abs(np.stack([c.values for c in grad_p])))
        xi_max = grid64.xi_max_retained
        expected = lp_norm(v, np.inf) * xi_max ** (2 - 2 * s) + grad_norm * xi_max
        assert ops.rho_est == pytest.approx(expected, rel=1e-10)


def make_problem(grid, seed, s=0.75, epsilon=0.0, t_end=0.05, amp=0.5):
    u0 = bump(grid, seed=seed, amplitude=amp)
    v = bump(grid, seed=seed + 50, amplitude=amp, width=0.9)
    return LinearProblem(v=v, u0=u0, s=s, epsilon=epsilon, t_end=t_end)


class TestSolveLinear:
    def test_zero_coefficient_freezes_state(self, grid64):
        u0 = random_field(grid64, seed=5)
        prob = LinearProblem(
            v=RealField(grid64, np.zeros(64)), u0=u0, s=0.75, epsilon=0.0, t_end=0.3
        )
        sol = solve_linear(prob, TimeStepPolicy(dt_max=0.05), alpha=2.1)
        assert np.array_equal(sol.final.values, u0.values)

    def test_l2_nonincreasing_mollified(self, grid64):
        for seed in (1, 2, 3):
            prob = make_problem(grid64, seed=seed, epsilon=0.3)
            sol = solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
            l2s = [r.l2 for r in sol.records]
            assert all(b <= l2s[0] * (1 + 1e-6) for b in l2s)

    def test_mass_conserved_unmollified(self, grid64):
        prob = make_problem(grid64, seed=4, epsilon=0.0)
        sol = solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
        m0 = sol.records[0].mass
        for r in sol.records:
            assert abs(r.mass - m0) <= 1e-10 * abs(m0)

    def test_mass_conserved_mollified_too(self, grid64):
        # kernel_hat(0) is pinned to exactly 1, so the mollifier cannot leak mass
        prob = make_problem(grid64, seed=4, epsilon=0.3)
        sol = solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
        m0 = sol.records[0].mass
        assert abs(sol.records[-1].mass - m0) <= 1e-10 * abs(m0)

    def test_epsilon_sweep_monotone(self, grid64):
        finals = {}
        for eps in (0.0, 0.4, 0.2):
            # one wide grid so eps=0.2 is resolved: 2*spacing ~ 0.196
            prob = make_problem(grid64, seed=6, epsilon=eps, t_end=0.05)
            sol = solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
            finals[eps] = sol.final
        diffs = {
            eps: lp_norm(RealField(grid64, finals[eps].values - finals[0.0].values), 2)
            for eps in (0.4, 0.2)
        }
        assert diffs[0.4] > diffs[0.2] > 0

    def test_snapshot_times_hit_exactly(self, grid64):
        prob = make_problem(grid64, seed=7)
        sol = solve_linear(
            prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1, snapshot_times=(0.02, 0.04)
        )
        assert [t for t, _ in sol.snapshots] == [0.02, 0.04]

    @pytest.mark.parametrize("bad", [-0.01, 0.5, np.nan])
    def test_snapshot_time_outside_run_rejected(self, grid64, bad):
        prob = make_problem(grid64, seed=7, t_end=0.05)
        with pytest.raises(ValueError, match="snapshot times"):
            solve_linear(
                prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1, snapshot_times=(0.02, bad)
            )

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_sample_every_rejected_before_any_work(self, grid64, bad, monkeypatch):
        # 0 used to divide by zero after the first record; -1 and 2.5 ran,
        # recording at steps no integer stride gives, and True ran as 1
        monkeypatch.setattr(linear_mod, "make_coefficient_ops", None)
        with pytest.raises(ValueError, match=r"^sample_every must be an integer >= 1"):
            solve_linear(
                make_problem(grid64, seed=7), TimeStepPolicy(dt_max=1e-3), alpha=2.1,
                sample_every=bad,
            )

    def test_march_ends_on_t_end_past_a_snapshot_just_below_it(self, grid64):
        # a snapshot time within the landing tolerance below t_end used to end
        # the march there, so no state or record reached t_end
        prob = make_problem(grid64, seed=7, t_end=0.05)
        below = float(np.nextafter(0.05, 0.0))
        sol = solve_linear(
            prob, TimeStepPolicy(dt_max=1e-2), alpha=2.1, sample_every=1000,
            snapshot_times=(below,),
        )
        assert [t for t, _ in sol.snapshots] == [below]
        assert [r.t for r in sol.records] == [0.0, 0.05]

    def test_self_convergence_under_refinement(self):
        coarse = Grid(1, 64, 2 * np.pi)
        fine = Grid(1, 128, 2 * np.pi)
        sols = []
        for g in (coarse, fine):
            prob = make_problem(g, seed=8, epsilon=0.0, t_end=0.05)
            sols.append(solve_linear(prob, TimeStepPolicy(dt_max=5e-4), alpha=2.1).final)
        up = resample(sols[0], fine)
        assert np.max(np.abs(up.values - sols[1].values)) < 1e-6

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
    def test_constant_coefficient_decay_is_fourth_order(self, dim, n):
        # with v = c constant the flow is du/dt = -c (-Lap)^(1-s) u, so the
        # mode cos(k.x), k = (1, ..., 1), decays as exp(-c |k|^(2-2s) t)
        g = Grid(dim, n, 2 * np.pi)
        c, s, t_end = 0.8, 0.75, 0.5
        wave = np.cos(sum(g.axes()))
        prob = LinearProblem(
            v=RealField(g, np.full(g.shape, c)), u0=RealField(g, 1.0 + 0.3 * wave),
            s=s, epsilon=0.0, t_end=t_end,
        )
        exact = 1.0 + 0.3 * np.exp(-c * dim ** (1.0 - s) * t_end) * wave
        errors = [
            np.max(np.abs(solve_linear(prob, TimeStepPolicy(dt_max=dt), 2.1).final.values - exact))
            for dt in (0.1, 0.05, 0.025, 0.0125)
        ]
        for a, b in zip(errors, errors[1:]):
            assert 14.0 <= a / b <= 18.0

    def test_gronwall_quotient_finite(self, grid64):
        prob = make_problem(grid64, seed=9)
        sol = solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
        quots = [r.c_meas for r in sol.records[1:]]
        assert all(np.isfinite(q) for q in quots)
        assert max(np.abs(quots)) < 100.0

    def test_perturbation_within_gronwall_envelope(self, grid64):
        alpha = 2.1
        prob = make_problem(grid64, seed=10, epsilon=0.0, t_end=0.05)
        base = solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=alpha)
        delta = random_field(grid64, seed=11, k_max=10)
        delta = RealField(grid64, delta.values * (1e-6 / sobolev_norm(delta, alpha)))
        pert_prob = LinearProblem(
            v=prob.v,
            u0=RealField(grid64, prob.u0.values + delta.values),
            s=prob.s,
            epsilon=0.0,
            t_end=prob.t_end,
        )
        pert = solve_linear(pert_prob, TimeStepPolicy(dt_max=1e-3), alpha=alpha)
        diff = sobolev_norm(
            RealField(grid64, pert.final.values - base.final.values), alpha
        )
        c_max = max(max(r.c_meas for r in base.records), 0.0)
        sup_v = sobolev_norm(prob.v, alpha)
        envelope = 1e-6 * np.exp(c_max * sup_v * prob.t_end) * 1.05
        assert diff <= envelope


class TestTimeDependentCoefficient:
    """The right-hand side is linear in v, so under v(t) = (1 + t) v0 the
    state at T is the constant-v0 flow at T + T**2 / 2: a known answer for a
    march that reads its coefficient at each RK4 stage time."""

    T, S = 0.2, 0.75

    def final(self, F, coeff, t_end, steps):
        for F, *_ in _march(F, coeff, TimeStepPolicy(dt_max=t_end / steps), (t_end,)):
            pass
        return F

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
    def test_march_is_fourth_order_in_steps(self, dim, n):
        g = Grid(dim, n, 2 * np.pi)
        Fu, Fv = (
            g.band_forward(FieldGenerator("multi_bump", seed, 0.5, 1.2).generate(g).values)
            for seed in (3, 4)
        )
        T, s = self.T, self.S
        ops = _freeze(g, Fv, s, 0.0)
        exact = self.final(Fu, lambda t: ops, T + T * T / 2, 4096)
        errors = [
            band_distance(g, self.final(Fu, lambda t: _freeze(g, (1 + t) * Fv, s, 0.0), T, k),
                          exact, 1.1)
            for k in (8, 16, 32, 64)
        ]
        # a stage that reads the step's start instead of its own time gives
        # order 1 and errors near 1e-3
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert min(orders[:2]) >= 3.5, errors
        assert all(a > b for a, b in zip(errors, errors[1:])), errors


class TestPositivity:
    def test_nonnegative_run_stays_nonnegative(self, grid64):
        prob = make_problem(grid64, seed=12, epsilon=0.2)
        sol = solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
        assert min(r.min_u for r in sol.records) >= -1e-8 * lp_norm(prob.u0, np.inf)

    def test_zero_initial_state(self, grid64):
        v = bump(grid64, seed=13)
        prob = LinearProblem(
            v=v, u0=RealField(grid64, np.zeros(64)), s=0.75, epsilon=0.0, t_end=0.02
        )
        sol = solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
        assert min(r.min_u for r in sol.records) == 0.0

    def test_negative_initial_data_reported(self, grid64):
        u0 = RealField(grid64, bump(grid64, seed=14).values - 0.1)
        v = bump(grid64, seed=15)
        prob = LinearProblem(v=v, u0=u0, s=0.75, epsilon=0.0, t_end=0.02)
        sol = solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
        assert min(r.min_u for r in sol.records) <= -0.09  # monitoring, not enforcement


class TestBlowUp:
    def test_divergent_step_raises(self, grid64, monkeypatch):
        # the honest dt policy never reaches this branch, so force it
        monkeypatch.setattr(linear_mod, "_rk4_step", lambda F, dt, *stages: F * 1e14)
        prob = make_problem(grid64, seed=16, amp=1.0)
        with pytest.raises(BlowUp) as err:
            solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
        assert err.value.linf > 1e12

    def test_nan_raises(self, grid64, monkeypatch):
        monkeypatch.setattr(linear_mod, "_rk4_step", lambda F, dt, *stages: F * np.nan)
        prob = make_problem(grid64, seed=17)
        with pytest.raises(BlowUp):
            solve_linear(prob, TimeStepPolicy(dt_max=1e-3), alpha=2.1)
