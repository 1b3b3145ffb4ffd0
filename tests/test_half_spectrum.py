"""The rfftn half-spectrum layout against the full complex-FFT formulas.

Every transform, operator, norm and the stepper run on real-to-complex
transforms with symbols from one cached table per grid.  The oracles below
compute the same quantities with mean-normalized complex FFTs over the full
spectrum, with symbols built here from the signed integer modes.  The
spectral-state stepper is also checked against RK4 with the stages combined
in real space.
"""

import numpy as np
import pytest

import fpme
from fpme import (
    DyadicPartition,
    FieldGenerator,
    Grid,
    LinearProblem,
    PicardConfig,
    RealField,
    TimeStepPolicy,
    besov_norm,
    frac_laplacian,
    gradient,
    homogeneous_seminorm,
    inv_frac_laplacian,
    lp_norm,
    mollify,
    run_picard,
    run_property_suite,
    sobolev_norm,
    solve_linear,
)
from fpme.fracops import MollifierKernel
from fpme.grid import (
    apply_symbols,
    forward_transform,
    half_spectrum_symbols,
    inverse_transform,
    resample,
)
from fpme.linear import _rk4_step, make_coefficient_ops, rhs_with_ops
from fpme.norms import _chi
from fpme.picard import _advance_iterate

from conftest import random_field
from helpers import dft_forward_oracle, half_columns, radial_symbol_oracle

GRIDS = [Grid(1, 64, 2 * np.pi), Grid(2, 32, 2 * np.pi), Grid(3, 16, 2 * np.pi)]
TOL = 1e-13


def coefficient(grid, seed):
    return FieldGenerator("multi_bump", seed=seed, amplitude=0.5, width=2.5).generate(grid)


# ---------------------------------------------------------------------------
# full-spectrum oracles


def full_symbols(grid):
    """(xi per axis, |xi|, |xi|^2, 2/3 mask) as dense full-layout meshes."""
    k = np.fft.fftfreq(grid.n_points, d=1.0 / grid.n_points)
    xi = np.meshgrid(*([(2.0 * np.pi / grid.side_length) * k] * grid.dim), indexing="ij")
    xi_squared = sum(m**2 for m in xi)
    keep = np.meshgrid(*([np.abs(k) <= grid.dealias_cutoff] * grid.dim), indexing="ij")
    mask = np.logical_and.reduce(keep).astype(float)
    return xi, np.sqrt(xi_squared), xi_squared, mask


def full_radial(grid, power):
    return radial_symbol_oracle(grid.dim, grid.n_points, grid.side_length, power)


def full_forward(values):
    return np.fft.fftn(values) / values.size


def full_inverse(coeffs):
    return np.fft.ifftn(coeffs).real * coeffs.size


def full_multiply(values, symbol):
    return full_inverse(full_forward(values) * symbol)


def full_grad_symbols(grid):
    """i*xi per axis with the Nyquist plane zeroed along that axis."""
    xi = full_symbols(grid)[0]
    out = []
    for ax in range(grid.dim):
        mult = 1j * xi[ax]
        sl = [slice(None)] * grid.dim
        sl[ax] = grid.n_points // 2
        mult[tuple(sl)] = 0.0
        out.append(mult)
    return out


def full_kernel_hat(kernel):
    g = kernel.grid
    hat = (np.fft.fftn(kernel.kernel_values) * g.spacing**g.dim).real
    hat.flat[0] = 1.0
    return hat


def full_partition(grid):
    _, mag, _, mask = full_symbols(grid)
    r = mag / (2.0 * np.pi / grid.side_length)
    p = DyadicPartition(grid)
    mults = []
    for j in p.indices:
        chi = _chi(2.0 * r) if j == -1 else _chi(r / 2.0**j) - _chi(r / 2.0 ** (j - 1))
        mults.append(chi * mask)
    return p.indices, mults


def complex_coefficient_ops(v, s, epsilon):
    """(v_d, grad_p, grad_mults, lap_mult, mask, kernel_hat, rho_est) on the
    full spectrum with mean-normalized complex FFTs."""
    g = v.grid
    xi, mag, _, mask = full_symbols(g)
    kernel_hat = full_kernel_hat(MollifierKernel(g, epsilon)) if epsilon > 0 else None

    Fv = full_forward(v.values)
    v_d = full_inverse(Fv * mask)

    inv_sym = full_radial(g, -2.0 * s)
    grad_p = [full_inverse(gm * inv_sym * Fv * mask) for gm in full_grad_symbols(g)]

    grad_mults = tuple(gm * mask for gm in full_grad_symbols(g))
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
    Fu = full_forward(u_values)
    if kernel_hat is not None:
        Fu = Fu * kernel_hat
    transport = np.zeros(u_values.shape)
    for gm, gp in zip(grad_mults, grad_p):
        transport += full_inverse(gm * Fu) * gp
    diffusion = v_d * full_inverse(lap_mult * Fu)
    Fr = full_forward(transport - diffusion) * mask
    if kernel_hat is not None:
        Fr = Fr * kernel_hat
    return full_inverse(Fr)


def real_space_rhs_values(u_values, ops):
    """The right-hand side as the real-state stepper computed it."""
    shape, axes = ops.grid.shape, ops.grid.fft_axes
    Fu = np.fft.rfftn(u_values, axes=axes)
    Fu *= ops.filt
    r = np.zeros(shape)
    for gm, gp in zip(ops.grad_mults, ops.coeffs[:-1]):
        r += np.fft.irfftn(gm * Fu, s=shape, axes=axes) * gp
    r -= -ops.coeffs[-1] * np.fft.irfftn(ops.lap_mult * Fu, s=shape, axes=axes)
    Fr = np.fft.rfftn(r, axes=axes)
    Fr *= ops.filt
    return np.fft.irfftn(Fr, s=shape, axes=axes)


def real_space_rk4_step(u, dt, ops):
    """RK4 with the stages combined in real space."""
    k1 = real_space_rhs_values(u, ops)
    k2 = real_space_rhs_values(u + (0.5 * dt) * k1, ops)
    k3 = real_space_rhs_values(u + (0.5 * dt) * k2, ops)
    k4 = real_space_rhs_values(u + dt * k3, ops)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rel_err(new, old):
    return np.max(np.abs(new - old)) / np.max(np.abs(old))


# ---------------------------------------------------------------------------
# transforms and operators


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_forward_transform_is_half_of_full_dft(grid):
    f = random_field(grid, seed=1)
    F = forward_transform(f)
    assert F.coeffs.shape == grid.spectral_shape
    assert rel_err(F.coeffs, half_columns(dft_forward_oracle(f.values))) <= TOL
    assert rel_err(inverse_transform(F).values, f.values) <= TOL


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_operators_match_full_spectrum(grid):
    f = random_field(grid, seed=2)
    for sigma in (0.5, 1.2, 2.0):
        oracle = full_multiply(f.values, full_radial(grid, sigma))
        assert rel_err(frac_laplacian(f, sigma).values, oracle) <= TOL
    for s in (0.3, 0.75):
        oracle = full_multiply(f.values, full_radial(grid, -2.0 * s))
        assert rel_err(inv_frac_laplacian(f, s).values, oracle) <= TOL
    for comp, gm in zip(gradient(f), full_grad_symbols(grid)):
        assert rel_err(comp.values, full_multiply(f.values, gm)) <= TOL
    kernel = MollifierKernel(grid, 1.0)
    oracle = full_multiply(f.values, full_kernel_hat(kernel))
    assert rel_err(mollify(f, kernel).values, oracle) <= TOL


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_besov_blocks_match_full_spectrum(grid):
    f = random_field(grid, seed=3)
    indices, mults = full_partition(grid)
    p = DyadicPartition(grid)
    blocks = list(apply_symbols(f, *p.multipliers))
    assert len(blocks) == len(mults)
    oracle_blocks = [full_multiply(f.values, m) for m in mults]
    for b, o in zip(blocks, oracle_blocks):
        assert rel_err(b.values, o) <= TOL
    for alpha in (0.6, 2.1):
        oracle = max(
            2.0 ** (j * alpha) * np.sum(np.abs(o)) * grid.spacing**grid.dim
            for j, o in zip(indices, oracle_blocks)
        )
        assert besov_norm(f, alpha, p) == pytest.approx(oracle, rel=TOL)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_product_and_resample_match_full_spectrum(grid):
    mask = full_symbols(grid)[3]
    f = random_field(grid, seed=4)
    h = random_field(grid, seed=5)
    fd = full_multiply(f.values, mask)
    hd = full_multiply(h.values, mask)
    oracle = full_multiply(fd * hd, mask)
    half_mask = half_spectrum_symbols(grid, 1.0).mask
    fh = next(apply_symbols(f, half_mask)).values * next(apply_symbols(h, half_mask)).values
    assert rel_err(next(apply_symbols(RealField(grid, fh), half_mask)).values, oracle) <= TOL

    fine = Grid(grid.dim, 2 * grid.n_points, grid.side_length)
    keep = grid.n_points // 2 - 1
    src = np.abs(grid.k_signed) <= keep
    tgt = np.abs(fine.k_signed) <= keep
    out = np.zeros(fine.shape, dtype=complex)
    out[np.ix_(*[tgt] * grid.dim)] = full_forward(f.values)[np.ix_(*[src] * grid.dim)]
    up = resample(f, fine)
    assert rel_err(up.values, full_inverse(out)) <= TOL
    band = np.logical_and.reduce(np.meshgrid(*[src] * grid.dim, indexing="ij"))
    assert rel_err(resample(up, grid).values, full_multiply(f.values, band)) <= TOL


# ---------------------------------------------------------------------------
# stepper and norms


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_stepper_matches_complex_oracle(grid, epsilon):
    s = 0.7
    v = coefficient(grid, seed=3)
    u = random_field(grid, seed=4)
    ops = make_coefficient_ops(v, s, epsilon)
    oracle = complex_coefficient_ops(v, s, epsilon)

    assert ops.coeffs.shape == (grid.dim + 1, *grid.shape)
    assert rel_err(-ops.coeffs[-1], oracle[0]) <= TOL
    for new, old in zip(ops.coeffs[:-1], oracle[1]):
        assert rel_err(new, old) <= TOL
    assert ops.rho_est == pytest.approx(oracle[6], rel=TOL)
    out = rhs_with_ops(u, ops).values
    assert rel_err(out, complex_rhs_values(u.values, oracle)) <= TOL


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_spectral_state_steps_match_real_space_oracle(grid, epsilon):
    v = coefficient(grid, seed=8)
    u0 = random_field(grid, seed=9)
    ops = make_coefficient_ops(v, 0.7, epsilon)
    dt = TimeStepPolicy(dt_max=0.05).step_size(ops.rho_est)
    F0 = np.fft.rfftn(u0.values, axes=grid.fft_axes)
    F, oracle = F0, u0.values
    for _ in range(5):
        F = _rk4_step(F, dt, ops)
        oracle = real_space_rk4_step(oracle, dt, ops)
        u = u0.values + np.fft.irfftn(F - F0, s=grid.shape, axes=grid.fft_axes)
        assert rel_err(u, oracle) <= TOL
    # the state moves by O(1e-2) or more, so this is no bound on u0 alone
    assert rel_err(u - u0.values, oracle - u0.values) <= TOL


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_iterate_h_alpha_matches_sobolev_norm(grid):
    config = PicardConfig(s=0.75, alpha=grid.dim / 2.0 + 1.1, samples=6)
    u0 = coefficient(grid, seed=10)
    coeff_traj = [coefficient(grid, seed=11 + i) for i in range(config.samples + 1)]
    traj, h_list = _advance_iterate(u0, coeff_traj, config, 0.01, None)
    assert len(h_list) == len(traj) == config.samples + 1
    for field, h in zip(traj, h_list):
        assert h == pytest.approx(sobolev_norm(field, config.alpha), rel=TOL)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_transform_counts(grid, monkeypatch):
    # dim + 1 inverses and one forward per right-hand side, no transform of
    # the state inside a step, one stacked forward/inverse pair per freeze,
    # and one forward per operator call however many outputs it makes
    counts = {"rfftn": 0, "irfftn": 0}

    def counted(name):
        real = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    v = coefficient(grid, seed=12)
    kernel = MollifierKernel(grid, 1.0)
    F = np.fft.rfftn(random_field(grid, seed=13).values, axes=grid.fft_axes)
    for name in counts:
        monkeypatch.setattr(np.fft, name, counted(name))

    ops = make_coefficient_ops(v, 0.75, 1.0, kernel)
    assert counts == {"rfftn": 1, "irfftn": 1}
    counts.update(rfftn=0, irfftn=0)
    _rk4_step(F, 1e-3, ops)
    assert counts == {"rfftn": 4, "irfftn": 4 * (grid.dim + 1)}

    f = random_field(grid, seed=14)
    partition = DyadicPartition(grid)
    calls = [
        (lambda: frac_laplacian(f, 0.8), 1),
        (lambda: inv_frac_laplacian(f, 0.7), 1),
        (lambda: mollify(f, kernel), 1),
        (lambda: gradient(f), grid.dim),
        (lambda: besov_norm(f, 1.1, partition), len(partition.multipliers)),
    ]
    for call, inverses in calls:
        counts.update(rfftn=0, irfftn=0)
        call()
        assert counts == {"rfftn": 1, "irfftn": inverses}


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_norms_match_full_spectrum(grid):
    f = random_field(grid, seed=5)
    power = np.abs(full_forward(f.values)) ** 2
    _, mag, xi_squared, _ = full_symbols(grid)
    nz = mag > 0
    for alpha in (0.0, 0.6, 2.1):
        full = np.sqrt(grid.volume * np.sum((1.0 + xi_squared) ** alpha * power))
        assert sobolev_norm(f, alpha) == pytest.approx(full, rel=TOL)
    for alpha in (-0.4, 0.6, 2.1):
        full = np.sqrt(grid.volume * np.sum(mag[nz] ** (2.0 * alpha) * power[nz]))
        assert homogeneous_seminorm(f, alpha) == pytest.approx(full, rel=TOL)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_radial_power_unfolds_to_full_symbol(grid):
    # the half-spectrum symbol is columns 0..n/2 of the full one
    for power in (-1.5, 0.5, 1.2):
        symbol = half_spectrum_symbols(grid, power).radial
        oracle = half_columns(full_radial(grid, power))
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


# ---------------------------------------------------------------------------
# one transform path


def test_package_makes_no_complex_fft_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("complex FFT called")

    for name in ("fftn", "ifftn", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, forbidden)

    grid = Grid(2, 16, 2 * np.pi)
    f = FieldGenerator("random_trig", seed=1, amplitude=1.0, width=1.0).generate(grid)
    h = FieldGenerator("multi_bump", seed=2, amplitude=0.5, width=2.5).generate(grid)
    kernel = MollifierKernel(grid, 1.0)
    inverse_transform(forward_transform(f))
    frac_laplacian(f, 0.8)
    inv_frac_laplacian(f, 0.7)
    gradient(f)
    mollify(f, kernel)
    resample(f, Grid(2, 32, 2 * np.pi))
    sobolev_norm(f, 1.1)
    homogeneous_seminorm(f, 0.6)
    besov_norm(f, 1.1, DyadicPartition(grid))
    lp_norm(f, 2)
    fpme.check_commutator(f, h, 2.1)

    line = Grid(1, 16, 2 * np.pi)
    u0 = FieldGenerator("gaussian_bump", seed=1, amplitude=0.05, width=2.5).generate(line)
    problem = LinearProblem(v=u0, u0=u0, s=0.75, epsilon=1.0, t_end=0.01)
    solve_linear(problem, TimeStepPolicy(dt_max=0.005), alpha=1.6)
    run_picard(u0, PicardConfig(s=0.75, alpha=1.6, epsilon_moll=1.0, samples=4, max_outer=3,
                                t0_override=0.01, tol_picard=1e-3))
    rows, passed = run_property_suite(line, seed=0, count=2)
    assert passed and rows
