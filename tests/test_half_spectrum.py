"""The rfftn half-spectrum kernel against the full complex-FFT formulas.

The stepper and the Sobolev norms run on real-to-complex transforms with
symbols from one cached table per grid.  The oracles below compute the same
quantities with mean-normalized complex FFTs over the full spectrum.
"""

import numpy as np
import pytest

from fpme import FieldGenerator, Grid, RealField, gradient, homogeneous_seminorm, sobolev_norm
from fpme.fracops import MollifierKernel, apply_radial_power
from fpme.grid import SpectralField, half_spectrum_symbols
from fpme.linear import make_coefficient_ops, rhs_with_ops

from conftest import random_field
from helpers import radial_symbol_oracle

GRIDS = [Grid(1, 64, 2 * np.pi), Grid(2, 32, 2 * np.pi), Grid(3, 16, 2 * np.pi)]


def coefficient(grid, seed):
    return FieldGenerator("multi_bump", seed=seed, amplitude=0.5, width=2.5).generate(grid)


def complex_coefficient_ops(v, s, epsilon):
    """(v_d, grad_p, grad_mults, lap_mult, mask, kernel_hat, rho_est) on the
    full spectrum with mean-normalized complex FFTs."""
    g = v.grid
    mask = g.dealias_mask
    size = g.size
    kernel_hat = MollifierKernel(g, epsilon).kernel_hat if epsilon > 0 else None

    Fv = np.fft.fftn(v.values) / size
    v_d = np.fft.ifftn(Fv * mask).real * size

    mag = g.xi_magnitude
    inv_sym = np.zeros_like(mag)
    nz = mag > 0
    inv_sym[nz] = mag[nz] ** (-2.0 * s)
    grad_p = []
    for ax in range(g.dim):
        spec = 1j * g.xi[ax] * inv_sym * Fv * mask
        grad_p.append(np.fft.ifftn(spec).real * size)

    grad_mults = tuple(1j * g.xi[ax] * mask for ax in range(g.dim))
    lap_mult = mag ** (2.0 - 2.0 * s) * mask

    grad_p_mag = np.sqrt(sum(gp**2 for gp in grad_p))
    xi_max = g.xi_max_retained
    rho_est = float(
        np.max(np.abs(v.values)) * xi_max ** (2.0 - 2.0 * s)
        + np.max(grad_p_mag) * xi_max
    )
    return v_d, grad_p, grad_mults, lap_mult, mask, kernel_hat, rho_est


def complex_rhs_values(u_values, ops):
    v_d, grad_p, grad_mults, lap_mult, mask, kernel_hat, _ = ops
    size = u_values.size
    Fu = np.fft.fftn(u_values) / size
    if kernel_hat is not None:
        Fu = Fu * kernel_hat
    transport = np.zeros(u_values.shape)
    for gm, gp in zip(grad_mults, grad_p):
        transport += np.fft.ifftn(gm * Fu).real * size * gp
    diffusion = v_d * (np.fft.ifftn(lap_mult * Fu).real * size)
    Fr = np.fft.fftn(transport - diffusion) / size * mask
    if kernel_hat is not None:
        Fr = Fr * kernel_hat
    return np.fft.ifftn(Fr).real * size


def rel_err(new, old):
    return np.max(np.abs(new - old)) / np.max(np.abs(old))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_stepper_matches_complex_oracle(grid, epsilon):
    s = 0.7
    v = coefficient(grid, seed=3)
    u = random_field(grid, seed=4)
    ops = make_coefficient_ops(v, s, epsilon)
    oracle = complex_coefficient_ops(v, s, epsilon)

    assert rel_err(ops.v_values, oracle[0]) <= 1e-13
    for new, old in zip(ops.grad_p_values, oracle[1]):
        assert rel_err(new, old) <= 1e-13
    assert ops.rho_est == pytest.approx(oracle[6], rel=1e-13)
    out = rhs_with_ops(u, ops).values
    assert rel_err(out, complex_rhs_values(u.values, oracle)) <= 1e-13


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_norms_match_full_spectrum(grid):
    f = random_field(grid, seed=5)
    c = np.fft.fftn(f.values) / grid.size
    power = np.abs(c) ** 2
    mag = grid.xi_magnitude
    nz = mag > 0
    for alpha in (0.0, 0.6, 2.1):
        full = np.sqrt(grid.volume * np.sum((1.0 + grid.xi_squared) ** alpha * power))
        assert sobolev_norm(f, alpha) == pytest.approx(full, rel=1e-13)
    for alpha in (-0.4, 0.6, 2.1):
        full = np.sqrt(grid.volume * np.sum(mag[nz] ** (2.0 * alpha) * power[nz]))
        assert homogeneous_seminorm(f, alpha) == pytest.approx(full, rel=1e-13)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_radial_power_unfolds_to_full_symbol(grid):
    ones = SpectralField(grid, np.ones(grid.shape))
    for power in (-1.5, 0.5, 1.2):
        symbol = apply_radial_power(ones, power).coeffs.real
        oracle = radial_symbol_oracle(grid.dim, grid.n_points, grid.side_length, power)
        assert np.allclose(symbol, oracle, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_nyquist_mode_dropped_by_rhs_and_gradient(grid):
    # cos(pi * j) along one axis is the pure Nyquist mode; the last axis is
    # the one the half-spectrum stores only once
    n = grid.n_points
    v = coefficient(grid, seed=6)
    ops = make_coefficient_ops(v, 0.75, 0.0)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = n
        wave = np.broadcast_to(np.cos(np.pi * np.arange(n)).reshape(shape), grid.shape)
        u = RealField(grid, wave)
        assert np.max(np.abs(rhs_with_ops(u, ops).values)) < 1e-13
        for comp in gradient(u):
            assert np.max(np.abs(comp.values)) < 1e-13


@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_symbols_shared_and_read_only(epsilon):
    grid = GRIDS[1]
    v = coefficient(grid, seed=7)
    a = make_coefficient_ops(v, 0.75, epsilon)
    b = make_coefficient_ops(RealField(grid, 2.0 * v.values), 0.75, epsilon)
    assert a.lap_mult is b.lap_mult
    assert all(x is y for x, y in zip(a.grad_mults, b.grad_mults))
    if epsilon == 0.0:
        assert a.filt is b.filt
    for arr in (a.filt, a.lap_mult, *a.grad_mults):
        assert arr.flags.writeable is False
    sym = half_spectrum_symbols(grid, 0.5)
    for arr in (sym.mask, sym.radial, sym.fold, sym.sobolev, *sym.grad):
        assert arr.flags.writeable is False
