"""The rfftn half-spectrum and 2/3-rule band layouts against the full
complex-FFT formulas.

Every transform, operator, norm and the stepper run on real-to-complex
transforms with symbols from one cached table per grid; masked spectra
live on the band.  The oracles below compute the same quantities with
mean-normalized complex FFTs over the full spectrum, with symbols built
here from the signed integer modes.  The band pair is checked against
rfftn/irfftn, and the band-state stepper against RK4 with the stages
combined in real space on rfftn/irfftn.
"""

import sys

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
from fpme.diagnostics import RecorderConfig, record
from fpme.fracops import MollifierKernel
from fpme.grid import (
    band_symbols,
    forward_transform,
    half_spectrum_symbols,
    inverse_transform,
    resample,
)
from fpme.linear import _field, _rk4_step, make_coefficient_ops, rhs_with_ops
from fpme.norms import _chi, _start_band
from fpme.picard import _advance_iterate, _Samples

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


def on_half_spectrum(grid, band_values):
    """Band values (or a scalar) zero-extended to the rfftn half-spectrum."""
    out = np.zeros(grid.spectral_shape, dtype=np.result_type(band_values, 1.0))
    out[grid.band] = band_values
    return out


def real_space_rhs_values(u_values, ops):
    """The right-hand side as the real-state stepper computed it, on
    rfftn/irfftn with the band symbols zero-extended."""
    grid = ops.grid
    shape, axes = grid.shape, grid.fft_axes
    filt = on_half_spectrum(grid, ops.filt)
    Fu = np.fft.rfftn(u_values, axes=axes)
    Fu *= filt
    r = np.zeros(shape)
    for gm, gp in zip(ops.grad_mults, ops.coeffs[:-1]):
        r += np.fft.irfftn(on_half_spectrum(grid, gm) * Fu, s=shape, axes=axes) * gp
    lap_mult = on_half_spectrum(grid, ops.lap_mult)
    r -= -ops.coeffs[-1] * np.fft.irfftn(lap_mult * Fu, s=shape, axes=axes)
    Fr = np.fft.rfftn(r, axes=axes)
    Fr *= filt
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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("stack", [(), (2,)], ids=["single", "stacked"])
def test_band_pair_matches_rfftn(dim, n, stack):
    grid = Grid(dim, n, 2 * np.pi)
    c = grid.dealias_cutoff
    values = np.random.default_rng(dim * n).standard_normal((*stack, *grid.shape))
    axes = grid.fft_axes
    band = (..., *grid.band)

    B = grid.band_forward(values)
    assert B.shape == (*stack, *[2 * c + 1] * (dim - 1), c + 1)
    restricted = np.fft.rfftn(values, axes=axes)[band]
    extended = np.zeros((*stack, *grid.spectral_shape), dtype=complex)
    extended[band] = B
    inverse = grid.band_inverse(B)
    oracle = np.fft.irfftn(extended, s=grid.shape, axes=axes)
    assert inverse.shape == values.shape
    if dim == 1:
        assert np.array_equal(B, restricted)
        assert np.array_equal(inverse, oracle)
    else:
        assert rel_err(B, restricted) <= 1e-15
        assert rel_err(inverse, oracle) <= 1e-15


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
    B = grid.band_forward(f.values)
    blocks = [RealField(grid, grid.band_inverse(m * B)) for m in p.multipliers]
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
def test_pruned_besov_matches_full_band_blocks(grid):
    f = random_field(grid, seed=15)
    p = DyadicPartition(grid)
    assert any(crop is not None for crop in p.crops)
    B = grid.band_forward(f.values)
    cell = grid.spacing**grid.dim
    for alpha in (0.6, 2.1):
        full = max(
            2.0 ** (j * alpha) * np.abs(grid.band_inverse(m * B)).sum() * cell
            for j, m in zip(p.indices, p.multipliers)
        )
        assert besov_norm(f, alpha, p) == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 64])
def test_band_inverse_of_cropped_band(dim, n):
    # a band with a smaller cutoff K is the 2/3-rule band zero-padded
    # outside |k| <= K; the cutoff is read from the last axis
    grid = Grid(dim, n, 2 * np.pi)
    c = grid.dealias_cutoff
    rng = np.random.default_rng(dim * n)
    for keep in (0, 1, c - 1):
        shape = (2, *[2 * keep + 1] * (dim - 1), keep + 1)
        B = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        padded = np.zeros((2, *[2 * c + 1] * (dim - 1), c + 1), dtype=complex)
        padded[(slice(None), *fpme.norms._crop(grid, keep))] = B
        assert rel_err(grid.band_inverse(B), grid.band_inverse(padded)) <= 1e-15


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_record_reads_band_state(grid):
    # a state marched from u0 keeps u0's coefficients off the band, so the
    # record given its band state and u0's off-band power equals the record
    # that transforms the state's real field
    alpha = grid.dim / 2.0 + 1.1
    u0 = random_field(grid, seed=16)
    F0, tail = _start_band(u0, alpha)
    assert tail > 0
    F = F0 + 0.1 * grid.band_forward(random_field(grid, seed=17).values)
    u = _field(u0, F, F0, 0.0)
    recorder = RecorderConfig(alpha=alpha, partition=DyadicPartition(grid), coefficient_scale=1.0)
    prev = record(u0, 0.0, 0.0, recorder, None, (F0, tail))
    assert prev == record(u0, 0.0, 0.0, recorder)
    new = record(u, 0.1, 0.1, recorder, prev, (F, tail))
    old = record(u, 0.1, 0.1, recorder, prev)
    for name in ("h_alpha", "besov_alpha", "c_meas"):
        assert getattr(new, name) == pytest.approx(getattr(old, name), rel=1e-12)
    for name in ("t", "dt", "l2", "min_u", "mass"):
        assert getattr(new, name) == getattr(old, name)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_product_and_resample_match_full_spectrum(grid):
    mask = full_symbols(grid)[3]
    f = random_field(grid, seed=4)
    h = random_field(grid, seed=5)
    fd = full_multiply(f.values, mask)
    hd = full_multiply(h.values, mask)
    oracle = full_multiply(fd * hd, mask)

    def dealias(values):
        return grid.band_inverse(grid.band_forward(values))

    assert rel_err(dealias(dealias(f.values) * dealias(h.values)), oracle) <= TOL

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
    F0 = grid.band_forward(u0.values)
    F, oracle = F0, u0.values
    for _ in range(5):
        F = _rk4_step(F, dt, ops)
        oracle = real_space_rk4_step(oracle, dt, ops)
        u = u0.values + grid.band_inverse(F - F0)
        assert rel_err(u, oracle) <= 1e-14
    # the state moves by O(1e-2) or more, so this is no bound on u0 alone
    assert rel_err(u - u0.values, oracle - u0.values) <= TOL


def coefficient_samples(grid, u0, F0, samples):
    """A previous iterate from u0 (band F0) whose later samples are distinct
    coefficients, as band states with their max|v|."""
    coeffs = [coefficient(grid, seed=11 + i) for i in range(samples)]
    return _Samples(
        [F0] + [grid.band_forward(c.values) for c in coeffs],
        [float(np.max(np.abs(c.values))) for c in (u0, *coeffs)],
    )


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_iterate_h_alpha_matches_sobolev_norm(grid):
    config = PicardConfig(s=0.75, alpha=grid.dim / 2.0 + 1.1, samples=6)
    u0 = coefficient(grid, seed=10)
    F0, tail = _start_band(u0, config.alpha)
    prev = coefficient_samples(grid, u0, F0, config.samples)
    new, h_list, _, min_u = _advance_iterate(u0, tail, prev, config, 0.01, None)
    assert len(h_list) == len(new.states) == len(new.vmax) == config.samples + 1
    assert new.states[0] is F0 is not None
    fields = [_field(u0, F, F0, 0.0) for F in new.states]
    for field, h, vmax in zip(fields, h_list, new.vmax):
        assert h == pytest.approx(sobolev_norm(field, config.alpha), rel=TOL)
        assert vmax == float(np.max(np.abs(field.values)))
    assert min_u == min(float(np.min(f.values)) for f in fields)
    # each previous sample is dropped once it has been frozen and compared
    assert all(F is None for F in prev.states[:-1])


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_transform_counts(grid, monkeypatch):
    # dim + 1 band inverses and one band forward per right-hand side, no
    # transform of the state inside a step and none over the half-spectrum,
    # one band forward and one stacked band inverse per freeze, and one
    # forward per operator or Besov norm however many outputs it makes;
    # a Picard iterate freezes band states and measures its samples on the
    # band, so beyond its RK4 steps it makes one band inverse per freeze
    # and one per sample's real field, and no forward transform; a record
    # given the band state makes only its blocks' band inverses, and one
    # rfftn without it
    names = ("rfftn", "irfftn", "band_forward", "band_inverse")
    counts = dict.fromkeys(names, 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def expect(**nonzero):
        assert counts == {**dict.fromkeys(names, 0), **nonzero}
        counts.update(dict.fromkeys(names, 0))

    v = coefficient(grid, seed=12)
    kernel = MollifierKernel(grid, 1.0)
    F = grid.band_forward(random_field(grid, seed=13).values)
    counted(np.fft, "rfftn")
    counted(np.fft, "irfftn")
    counted(Grid, "band_forward")
    counted(Grid, "band_inverse")

    ops = make_coefficient_ops(v, 0.75, 1.0, kernel)
    expect(band_forward=1, band_inverse=1)
    assert ops.coeffs.shape == (grid.dim + 1, *grid.shape)
    _rk4_step(F, 1e-3, ops)
    expect(band_forward=4, band_inverse=4 * (grid.dim + 1))

    f = random_field(grid, seed=14)
    partition = DyadicPartition(grid)
    calls = [
        (lambda: frac_laplacian(f, 0.8), {"rfftn": 1, "irfftn": 1}),
        (lambda: inv_frac_laplacian(f, 0.7), {"rfftn": 1, "irfftn": 1}),
        (lambda: mollify(f, kernel), {"rfftn": 1, "irfftn": 1}),
        (lambda: gradient(f), {"rfftn": 1, "irfftn": grid.dim}),
        (lambda: besov_norm(f, 1.1, partition),
         {"band_forward": 1, "band_inverse": len(partition.multipliers)}),
    ]
    blocks = len(partition.multipliers)
    recorder = RecorderConfig(alpha=1.1, partition=partition, coefficient_scale=1.0)
    band = _start_band(f, 1.1)
    expect(rfftn=1)
    calls += [
        (lambda: record(f, 0.0, 0.0, recorder, None, band), {"band_inverse": blocks}),
        (lambda: record(f, 0.0, 0.0, recorder), {"rfftn": 1, "band_inverse": blocks}),
    ]
    for call, made in calls:
        call()
        expect(**made)

    config = PicardConfig(s=0.75, alpha=grid.dim / 2.0 + 1.1, samples=5)
    u0 = coefficient(grid, seed=10)
    F0, tail = _start_band(u0, config.alpha)
    expect(rfftn=1)
    prev = coefficient_samples(grid, u0, F0, config.samples)
    expect(band_forward=config.samples)
    # dt_seg is far below safety / rho_est, so each segment is one RK4 step
    # beside one freeze and one real field
    _advance_iterate(u0, tail, prev, config, 1e-4, None)
    expect(band_forward=config.samples * 4,
           band_inverse=config.samples * (4 * (grid.dim + 1) + 2))


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
    # every freeze on a grid reads the same cached band tables, as the
    # Picard loop's freezes share one mollifier kernel
    grid = GRIDS[1]
    v = coefficient(grid, seed=7)
    kernel = MollifierKernel(grid, epsilon) if epsilon > 0 else None
    a = make_coefficient_ops(v, 0.75, epsilon, kernel)
    b = make_coefficient_ops(RealField(grid, 2.0 * v.values), 0.75, epsilon, kernel)
    band = band_symbols(grid, -1.5)
    assert band is band_symbols(grid, -1.5)
    assert a.lap_mult is b.lap_mult is band_symbols(grid, 0.5).radial
    assert all(x is y is z for x, y, z in zip(a.grad_mults, b.grad_mults, band.grad))
    if epsilon == 0.0:
        assert a.filt == b.filt == 1.0
        spectral = (a.lap_mult, *a.grad_mults)
    else:
        assert a.filt is b.filt is kernel.band_hat
        spectral = (a.filt, a.lap_mult, *a.grad_mults)
    shape = grid.band_forward(v.values).shape
    for arr in spectral:
        assert arr.shape == shape
        assert arr.flags.writeable is False
    for arr in (band.radial, band.fold, band.sobolev):
        assert arr.flags.writeable is False
    sym = half_spectrum_symbols(grid, 0.5)
    for arr in (sym.radial, sym.fold, sym.sobolev, *sym.grad):
        assert arr.flags.writeable is False
    blocks = DyadicPartition(grid).multipliers
    assert all(x is y for x, y in zip(blocks, DyadicPartition(grid).multipliers))
    for arr in blocks:
        assert arr.shape == shape
        assert arr.flags.writeable is False
    crops = DyadicPartition(grid).crops
    assert crops is DyadicPartition(grid).crops
    for crop in filter(None, crops):
        assert all(rows.flags.writeable is False for rows in crop[:-1])


# ---------------------------------------------------------------------------
# one transform path


def test_package_makes_no_complex_fft_call(monkeypatch):
    # fftn/ifftn nowhere; fft/ifft only inside the band pair, where they run
    # along the signed axes of a band transform
    band_pair = {Grid.band_forward.__code__, Grid.band_inverse.__code__}
    calls = {"fft": 0, "ifft": 0}

    def forbidden(*args, **kwargs):
        raise AssertionError("complex FFT called")

    def band_only(name):
        real = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code not in band_pair:
                raise AssertionError(f"complex {name} called outside the band pair")
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, wrapper)

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, forbidden)
    for name in calls:
        band_only(name)

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
    # the 2-D band transforms above ran through the guard
    assert calls["fft"] > 0 and calls["ifft"] > 0
