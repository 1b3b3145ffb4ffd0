"""Fractional multipliers and the mollifier family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpme import (
    Grid,
    GridMismatch,
    InvalidExponent,
    RealField,
    UnresolvedKernel,
    frac_laplacian,
    gradient,
    inv_frac_laplacian,
    mollify,
    sobolev_norm,
)
from fpme.fracops import MollifierKernel

from conftest import random_field
from helpers import dft_forward_oracle, radial_symbol_oracle


class TestEigenfunctions:
    """Plane waves diagonalize every operator here, so these are exact."""

    @pytest.mark.parametrize("length", [2 * np.pi, 1.0, 3.7])
    def test_first_mode_sigma_one(self, length):
        g = Grid(1, 64, length)
        x = g.axes()[0]
        xi1 = 2 * np.pi / length
        f = RealField(g, np.cos(xi1 * x))
        out = frac_laplacian(f, 1.0)
        assert np.max(np.abs(out.values - xi1 * np.cos(xi1 * x))) < 1e-12 * xi1

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 2.0])
    def test_general_order(self, sigma):
        g = Grid(1, 64, 2 * np.pi)
        x = g.axes()[0]
        f = RealField(g, np.sin(4 * x))
        out = frac_laplacian(f, sigma)
        assert np.max(np.abs(out.values - 4.0**sigma * np.sin(4 * x))) < 1e-11

    def test_inverse_half(self):
        g = Grid(1, 64, 2 * np.pi)
        x = g.axes()[0]
        f = RealField(g, np.cos(x))
        out = inv_frac_laplacian(f, 0.5)
        assert np.max(np.abs(out.values - np.cos(x))) < 1e-13

    def test_plane_wave_2d(self):
        g = Grid(2, 32, 2 * np.pi)
        xs = g.axes()
        f = RealField(g, np.cos(3 * xs[0] + 2 * xs[1]))
        mag = np.sqrt(13.0)
        out = frac_laplacian(f, 0.75)
        assert np.max(np.abs(out.values - mag**0.75 * f.values)) < 1e-11

    def test_inverse_undoes_forward(self):
        g = Grid(1, 64, 2 * np.pi)
        f = random_field(g, seed=3)
        shifted = RealField(g, f.values - np.mean(f.values))
        back = inv_frac_laplacian(frac_laplacian(shifted, 1.2), 0.6)
        assert np.max(np.abs(back.values - shifted.values)) < 1e-10


def test_half_laplacian_against_matrix_dft():
    g = Grid(1, 32, 2 * np.pi)
    f = random_field(g, seed=17)
    coeffs = dft_forward_oracle(f.values)
    symbol = radial_symbol_oracle(1, 32, 2 * np.pi, 0.5)
    expected = np.real(np.fft.ifft(coeffs * symbol) * 32)
    out = frac_laplacian(f, 0.5)
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_divergence_of_gradient_is_minus_laplacian():
    # restricted to fields with no Nyquist energy, where the odd-symbol
    # convention in gradient() is invisible
    g = Grid(2, 32, 2 * np.pi)
    f = random_field(g, seed=8, k_max=g.n_points // 2 - 1)
    parts = gradient(f)
    div = np.zeros(g.shape)
    for ax in range(2):
        div += gradient(parts[ax])[ax].values
    lap = frac_laplacian(f, 2.0)
    assert np.max(np.abs(div + lap.values)) < 1e-10 * max(1.0, np.max(np.abs(lap.values)))


def test_gradient_mean_zero(grid2d):
    f = random_field(grid2d, seed=11)
    for comp in gradient(f):
        assert abs(np.mean(comp.values)) < 1e-14


class TestExponentValidation:
    def test_sigma_out_of_range(self, grid64):
        f = random_field(grid64, seed=0)
        with pytest.raises(InvalidExponent):
            frac_laplacian(f, 2.5)
        with pytest.raises(InvalidExponent):
            frac_laplacian(f, -0.1)

    def test_inverse_s_out_of_range(self, grid64):
        f = random_field(grid64, seed=0)
        for s in (0.0, 1.0, 1.5):
            with pytest.raises(InvalidExponent):
                inv_frac_laplacian(f, s)


@given(a=st.floats(0.2, 1.0), b=st.floats(0.2, 1.0))
@settings(max_examples=20, deadline=None)
def test_radial_power_semigroup(a, b):
    g = Grid(1, 32, 2 * np.pi)
    f = random_field(g, seed=5)
    two_steps = frac_laplacian(frac_laplacian(f, a), b).values
    one_step = frac_laplacian(f, a + b).values
    assert np.max(np.abs(two_steps - one_step)) < 1e-9 * np.max(np.abs(one_step) + 1e-30)


class TestMollifierKernel:
    def test_unit_integral(self, grid64):
        k = MollifierKernel(grid64, 0.4)
        assert np.sum(k.kernel_values) * grid64.spacing == pytest.approx(1.0, abs=1e-14)

    def test_kernel_nonnegative(self, grid64):
        k = MollifierKernel(grid64, 0.4)
        assert np.min(k.kernel_values) >= 0.0

    def test_hat_at_zero_is_exactly_one(self, grid64):
        k = MollifierKernel(grid64, 0.3)
        assert k.kernel_hat.flat[0] == 1.0

    def test_hat_bounded_by_one(self):
        for dim, n in [(1, 64), (2, 32)]:
            g = Grid(dim, n, 2 * np.pi)
            k = MollifierKernel(g, 0.5)
            assert np.max(np.abs(k.kernel_hat)) <= 1.0 + 1e-12

    def test_under_resolved_epsilon(self, grid64):
        with pytest.raises(UnresolvedKernel):
            MollifierKernel(grid64, 0.5 * grid64.spacing)

    def test_epsilon_too_large(self, grid64):
        with pytest.raises(ValueError):
            MollifierKernel(grid64, grid64.side_length)

    @pytest.mark.parametrize("eps", [0.0, -0.4])
    def test_nonpositive_epsilon(self, grid64, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            MollifierKernel(grid64, eps)

    def test_mean_preserved(self, grid64):
        k = MollifierKernel(grid64, 0.4)
        f = random_field(grid64, seed=31)
        m = mollify(f, k)
        assert np.mean(m.values) == pytest.approx(np.mean(f.values), abs=1e-14)

    def test_positivity_preserved(self, grid64):
        k = MollifierKernel(grid64, 0.4)
        f = random_field(grid64, seed=32)
        nonneg = RealField(grid64, f.values - np.min(f.values))
        m = mollify(nonneg, k)
        assert np.min(m.values) >= -1e-13 * np.max(nonneg.values)

    def test_commutes_with_radial_power(self, grid64):
        # both are diagonal in the same basis
        k = MollifierKernel(grid64, 0.4)
        f = random_field(grid64, seed=33)
        a = frac_laplacian(mollify(f, k), 0.7)
        b = mollify(frac_laplacian(f, 0.7), k)
        scale = max(1.0, np.max(np.abs(a.values)))
        assert np.max(np.abs(a.values - b.values)) <= 1e-11 * scale

    def test_self_adjoint(self, grid64):
        k = MollifierKernel(grid64, 0.4)
        f = random_field(grid64, seed=34)
        h = random_field(grid64, seed=35)
        lhs = np.sum(mollify(f, k).values * h.values)
        rhs = np.sum(f.values * mollify(h, k).values)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_smoothing_never_grows_sobolev(self, grid64):
        k = MollifierKernel(grid64, 0.4)
        f = random_field(grid64, seed=36)
        assert sobolev_norm(mollify(f, k), 1.3) <= sobolev_norm(f, 1.3) * (1 + 1e-12)

    def test_convergence_to_identity(self, grid64):
        f = random_field(grid64, seed=37, k_max=8)
        errs = []
        for eps in (0.8, 0.4, 0.2):
            k = MollifierKernel(grid64, eps)
            diff = RealField(grid64, mollify(f, k).values - f.values)
            errs.append(sobolev_norm(diff, 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.2 * sobolev_norm(f, 1.0)

    def test_grid_mismatch(self, grid64):
        k = MollifierKernel(grid64, 0.4)
        other = Grid(1, 128, 2 * np.pi)
        with pytest.raises(GridMismatch):
            mollify(random_field(other, seed=0), k)

    def test_two_dim_kernel_integral(self):
        g = Grid(2, 32, 2 * np.pi)
        k = MollifierKernel(g, 0.6)
        assert np.sum(k.kernel_values) * g.spacing**2 == pytest.approx(1.0, abs=1e-13)

    def test_kernel_even_symmetry(self, grid64):
        # rho(-x) = rho(x) sampled on the lattice: index reversal fixes it
        k = MollifierKernel(grid64, 0.4)
        vals = k.kernel_values
        flipped = np.roll(vals[::-1], 1)
        assert np.array_equal(vals, flipped)
        # evenness is what makes the symbol real
        assert np.max(np.abs(np.imag(np.fft.fft(vals)))) < 1e-13 * np.max(np.abs(vals))
