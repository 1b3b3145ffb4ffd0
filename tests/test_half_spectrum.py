"""The rfftn half-spectrum and 2/3-rule band layouts against the full
complex-FFT formulas.

Every transform, operator, norm and the stepper run on real-to-complex
transforms with symbols from one cached table per grid; masked spectra
live on the band.  The oracles below compute the same quantities with
mean-normalized complex FFTs over the full spectrum, with symbols built
here from the signed integer modes.  The band pair is checked against
rfftn/irfftn, whose band helpers.cos_sin_band turns into the band's
cos/sin layout, against long double cos/sin sums and against single modes
in closed form, and the band-state stepper against RK4 with the stages
combined in real space on rfftn/irfftn.
"""

import math
import sys
import tracemalloc

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
from fpme import grid as grid_module
from fpme import linear
from fpme.linear import _field, _freeze, _rk4_step, make_coefficient_ops, rhs_with_ops
from fpme.norms import _chi, _start_band
from fpme.picard import _advance_iterate

from conftest import random_field
from helpers import (
    band_dft_oracle,
    band_idft_oracle,
    cos_sin_band,
    dft_forward_oracle,
    half_columns,
    radial_symbol_oracle,
    signed_band,
)

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
        np.max(np.abs(v_d)) * xi_max ** (2.0 - 2.0 * s)
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
    # i xi on the half-spectrum, cut to the band
    grad = half_spectrum_symbols(grid, 1.0).grad
    for gm, gp in zip(grad, ops.coeffs[:-1]):
        r += np.fft.irfftn(on_half_spectrum(grid, 1.0) * gm * Fu, s=shape, axes=axes) * gp
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


def pair_case(dim, n, stack):
    return pytest.param(dim, n, stack, id=f"{'stacked' if stack else 'single'}-{n}-{dim}")


@pytest.mark.parametrize(
    "dim, n, stack",
    [pair_case(d, n, st) for d in (1, 2, 3) for n in (8, 16, 32, 64) for st in ((), (2,))]
    # n = 128, the largest size of the accuracy tests
    + [pair_case(2, 128, ()), pair_case(2, 128, (2,)), pair_case(3, 128, ())],
)
def test_band_pair_matches_rfftn(dim, n, stack):
    # rfftn's band, turned into the cos/sin layout on the signed axes by the
    # matrices of helpers.cos_sin_band, and back for the inverse's oracle
    grid = Grid(dim, n, 2 * np.pi)
    c = grid.dealias_cutoff
    values = np.random.default_rng(dim * n).standard_normal((*stack, *grid.shape))
    axes = grid.fft_axes
    band = (..., *grid.band)

    B = grid.band_forward(values)
    assert B.shape == (*stack, *[2 * c + 1] * (dim - 1), c + 1)
    restricted = cos_sin_band(np.fft.rfftn(values, axes=axes)[band], dim)
    extended = np.zeros((*stack, *grid.spectral_shape), dtype=complex)
    extended[band] = signed_band(B, dim)
    inverse = grid.band_inverse(B)
    oracle = np.fft.irfftn(extended, s=grid.shape, axes=axes)
    assert inverse.shape == values.shape
    assert rel_err(B, restricted) <= 1e-15
    assert rel_err(inverse, oracle) <= 1e-15


@pytest.mark.parametrize(
    "dim, n", [(d, n) for d in (1, 2, 3) for n in (8, 16, 32)] + [(2, 64), (2, 128)]
)
def test_band_pair_matches_long_double_dft(dim, n):
    # a known answer for the matrix kernel at every dim: cos/sin and exp
    # sums in long double with exactly reduced angles; the inverse also on a
    # smaller band, a Besov crop's, of the fields whose FFT-order bands are
    # random, and differentiated along each axis
    grid = Grid(dim, n, 2 * np.pi)
    c = grid.dealias_cutoff
    rng = np.random.default_rng(10 * dim + n)
    values = rng.standard_normal(grid.shape)
    bands = []
    for K in (c, c // 2):
        shape = (*[2 * K + 1] * (dim - 1), K + 1)
        signed = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        bands.append(cos_sin_band(signed, dim))
    forward = band_dft_oracle(values, c)
    inverses = [band_idft_oracle(B, n) for B in bands]
    assert rel_err(grid.band_forward(values), forward) <= 1e-15
    for B, oracle in zip(bands, inverses):
        assert rel_err(grid.band_inverse(B), oracle) <= 1e-15
        for ax in range(dim):
            derivative = band_idft_oracle(B, n, deriv=ax, length=grid.side_length)
            assert rel_err(grid.band_inverse(B[None], (ax,))[0], derivative) <= 1e-15


def single_mode(grid, kinds, ks):
    """The product over the axes of cos(k x) or sin(k x), kinds[ax] naming
    which along axis ax, and its derivative along each axis, both by the
    closed forms, with each angle reduced exactly on the lattice."""
    n = grid.n_points
    index = np.meshgrid(*[np.arange(n)] * grid.dim, indexing="ij")
    waves = {"cos": (np.cos, lambda t: -np.sin(t)), "sin": (np.sin, np.cos)}

    def wave(ax, derivative):
        theta = (2.0 * np.pi / n) * ((ks[ax] * index[ax]) % n)
        return waves[kinds[ax]][derivative](theta)

    value = math.prod(wave(ax, False) for ax in range(grid.dim))
    scale = 2.0 * np.pi / grid.side_length
    grads = [
        scale * ks[ax] * math.prod(wave(i, i == ax) for i in range(grid.dim))
        for ax in range(grid.dim)
    ]
    return value, grads


def band_position(grid, kinds, ks):
    """The band index of the mode single_mode makes, and its coefficient:
    n/2 per axis of a nonzero k (n for cos at k = 0), times -1j for a sine
    on the last axis, whose coefficient is that of exp(-i k x)."""
    c, n = grid.dealias_cutoff, grid.n_points
    index, value = [], 1.0 + 0j
    for ax, (kind, k) in enumerate(zip(kinds, ks)):
        last = ax == grid.dim - 1
        index.append(k if kind == "cos" or last else 2 * c + 1 - k)
        value *= n if k == 0 else n / 2
        if kind == "sin" and last:
            value *= -1j
    return tuple(index), value


MODES = [
    ("cos",), ("sin",),
    ("cos", "cos"), ("sin", "cos"), ("cos", "sin"), ("sin", "sin"),
    ("cos", "sin", "cos"), ("sin", "cos", "sin"), ("sin", "sin", "sin"), ("cos", "cos", "cos"),
]


def wavenumbers(grid, zero):
    """Three choices of k per axis: 1 on every axis, the band's cutoff on
    the first and last, and k = 0 on the first if zero (else 3)."""
    c = grid.dealias_cutoff
    return [(1,) * grid.dim, (c, 2, c)[: grid.dim], (0 if zero else 3, c - 1, 1)[: grid.dim]]


# n = 16 and n = 128, the largest size of the accuracy tests (at 1-D and
# 2-D, to keep the run short)
MODE_CASES = [
    pytest.param(kinds, n, id=f"{'-'.join(kinds)}-{n}")
    for kinds in MODES for n in (16, 128) if n == 16 or len(kinds) <= 2
]


@pytest.mark.parametrize("kinds, n", MODE_CASES)
def test_single_mode_lands_on_one_band_position(kinds, n):
    # cos(k x) lands on the row of +k, sin(k x) on the row of -k of each
    # signed axis, with the closed form value, and every other position is
    # zero
    grid = Grid(len(kinds), n, 3.0)
    for ks in wavenumbers(grid, zero=kinds[0] == "cos"):
        value, _ = single_mode(grid, kinds, ks)
        B = grid.band_forward(value)
        index, coeff = band_position(grid, kinds, ks)
        expected = np.zeros_like(B)
        expected[index] = coeff
        assert np.max(np.abs(B - expected)) <= 1e-13 * abs(coeff)
        assert rel_err(grid.band_inverse(expected), value) <= 1e-14


@pytest.mark.parametrize("kinds, n", MODE_CASES)
def test_band_gradient_of_single_mode_is_band_of_its_derivative(kinds, n):
    # the band inverse of a single mode's band, differentiated along each
    # axis, is its closed-form derivative, and the band of that is the band
    # of the derivative; every derivative is a nonzero mode: no k = 0
    grid = Grid(len(kinds), n, 3.0)
    for ks in wavenumbers(grid, zero=False):
        value, derivatives = single_mode(grid, kinds, ks)
        B = grid.band_forward(value)
        for ax, d in enumerate(derivatives):
            out = grid.band_inverse(B[None], (ax,))[0]
            assert np.max(np.abs(out - d)) <= 1e-13 * np.max(np.abs(d))
            oracle = grid.band_forward(d)
            band = grid.band_forward(out)
            assert np.max(np.abs(band - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.mark.parametrize(
    "dim, n",
    [(2, 16), (2, 64), (3, 16), (3, 32), (2, 128), (1, 64), (3, 64), (1, 128), (1, 512)],
)
def test_band_pair_stack_equals_its_fields_bit_for_bit(dim, n):
    # also a stack with derivative rows, on the first and the last axis,
    # against each row inverted alone; at 1-D a stack of 100 lines, each
    # line its own product
    grid = Grid(dim, n, 2 * np.pi)
    rows = 100 if dim == 1 else 3
    values = np.random.default_rng(dim + n).standard_normal((rows, *grid.shape))
    B = grid.band_forward(values)
    inverse = grid.band_inverse(B)
    derivs = ((0, None, dim - 1) * rows)[:rows]
    differentiated = grid.band_inverse(B, derivs)
    for i in range(rows):
        assert grid.band_forward(values[i]).tobytes() == B[i].tobytes()
        assert grid.band_inverse(B[i]).tobytes() == inverse[i].tobytes()
        alone = grid.band_inverse(B[i : i + 1], derivs[i : i + 1])[0]
        assert alone.tobytes() == differentiated[i].tobytes()
    assert differentiated[1].tobytes() == inverse[1].tobytes()


_THREADS_SCRIPT = """
import sys, numpy as np
from fpme import FieldGenerator, Grid
from fpme.cli import main
from fpme.linear import _rhs_values, make_coefficient_ops
arrays = {}
for dim, n in ((1, 128), (1, 512), (2, 64), (3, 32), (3, 64)):
    g = Grid(dim, n, 2 * np.pi)
    v, u = (FieldGenerator("multi_bump", seed=seed, amplitude=0.5, width=1.2).generate(g)
            for seed in (1, 2))
    ops = make_coefficient_ops(v, 0.75, 0.0)
    F = g.band_forward(u.values)
    for name, arr in (("F", F), ("inverse", g.band_inverse(F)), ("coeffs", ops.coeffs),
                      ("rhs", _rhs_values(F, ops))):
        arrays[f"{dim}-{n}-{name}"] = arr
np.savez(sys.argv[1], **arrays)
sys.exit(main(["linear", "--config", sys.argv[2], *sys.argv[3:]]))
"""

# four RK4 steps of linear.cfg on the 3-D n = 64 grid
_LINEAR_64 = [
    f"--set={key}" for key in (
        "grid.dim=3", "grid.n=64", "initial.width=1.2", "coefficient.width=1.2",
        "solver.epsilon=0.4", "solver.t_end=0.004", "solver.dt_max=0.001",
        "output.snapshot_times=0.0, 0.004",
    )
]


def test_band_pair_does_not_depend_on_blas_threads(tmp_path):
    # the real matrix products, the freeze, a right-hand side and a 3-D
    # n = 64 linear run on one BLAS thread and on two, each in its own
    # interpreter.  At 1-D n = 128 and 512 (gemv, which OpenBLAS may split
    # at these sizes), up to 3-D n = 32 and at 2-D n = 64 the arrays are
    # the same bytes.  At 3-D n = 64 OpenBLAS splits some products:
    # the forward transform and the right-hand side then differ in a few
    # near-zero coefficients, within 1e-15 of the array's largest, and the
    # files the run writes are still the same bytes.
    import os
    import subprocess

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = os.path.join(root, "configs", "linear.cfg")
    out = tmp_path / "out"
    arrays = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.path.join(root, "src") + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        saved = tmp_path / f"arrays{threads}.npz"
        subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, saved, config, *_LINEAR_64,
                        f"--set=output.dir={out}"],
                       env=env, capture_output=True, text=True, check=True)
        out.rename(tmp_path / f"out{threads}")
        arrays.append(np.load(saved))
    one, two = arrays
    assert one.files == two.files
    for key in one.files:
        if key.startswith("3-64-"):
            assert np.max(np.abs(one[key] - two[key])) <= 1e-15 * np.max(np.abs(one[key]))
        else:
            assert one[key].tobytes() == two[key].tobytes()
    written = sorted(p.name for p in (tmp_path / "out1").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "out2").iterdir())
    assert "final.fpm1" in written
    for name in written:
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


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
        F = _rk4_step(F, dt, ops, ops, ops)
        oracle = real_space_rk4_step(oracle, dt, ops)
        u = u0.values + grid.band_inverse(F - F0)
        assert rel_err(u, oracle) <= 1e-14
    # the state moves by O(1e-2) or more, so this is no bound on u0 alone
    assert rel_err(u - u0.values, oracle - u0.values) <= TOL


def unstacked_rhs(F, ops):
    """The right-hand side with one band inverse per product, summed in
    coeffs order: each gradient term, then -v times the Laplacian term."""
    g = ops.grid
    Fu = F * ops.filt
    r = 0.0
    for ax, c in enumerate(ops.coeffs[:-1]):
        r = r + g.band_inverse(Fu[None], (ax,))[0] * c
    r += g.band_inverse(ops.lap_mult * Fu) * ops.coeffs[-1]
    Fr = g.band_forward(r)
    Fr *= ops.filt
    return Fr


@pytest.mark.parametrize(
    "grid",
    # the test grids and 2-D n = 128, the largest size at dim >= 2
    [*GRIDS, Grid(2, 128, 2 * np.pi)],
    ids=lambda g: f"dim{g.dim}" if g in GRIDS else f"dim{g.dim}-n{g.n_points}",
)
@pytest.mark.parametrize("fields", [0, 1, 2, None], ids=lambda f: f"fields{f}")
@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_stacked_rhs_is_the_unstacked_sum_bit_for_bit(grid, fields, epsilon, monkeypatch):
    # budgets of no field, one and two fields' real bytes (1, 1 and 2
    # arrays per stack, a short last stack at dim 2 and 3) and one stack
    stack_bytes = 1 << 30 if fields is None else fields * 8 * grid.size
    monkeypatch.setattr(grid_module, "_STACK_BYTES", stack_bytes)
    ops = make_coefficient_ops(coefficient(grid, seed=21), 0.75, epsilon)
    F = grid.band_forward(random_field(grid, seed=22).values)
    out = linear._rhs_values(F, ops)
    assert out.tobytes() == unstacked_rhs(F, ops).tobytes()


@pytest.mark.parametrize(
    "grid", [*GRIDS, Grid(3, 32, 2 * np.pi)], ids=lambda g: f"dim{g.dim}-n{g.n_points}"
)
def test_freeze_inverts_in_stacks_by_the_budget_bit_for_bit(grid, monkeypatch):
    # budgets of no field, one and two fields' real bytes, and one stack:
    # the freeze runs its plan's band inverse ceil((dim + 1) / k) times on
    # stacks of at most k arrays, and its coeffs are the same bytes
    # whatever the budget
    Fv = grid.band_forward(coefficient(grid, seed=25).values)
    sizes, coeffs = [], []
    real = linear._run

    def counted(steps, x, out=None):
        sizes.append(len(x))
        return real(steps, x, out)

    monkeypatch.setattr(linear, "_run", counted)
    for fields in (0, 1, 2, None):
        stack_bytes = 1 << 30 if fields is None else fields * 8 * grid.size
        monkeypatch.setattr(grid_module, "_STACK_BYTES", stack_bytes)
        sizes.clear()
        coeffs.append(_freeze(grid, Fv, 0.75, 0.0).coeffs.tobytes())
        k = grid.dim + 1 if fields is None else max(1, fields)
        assert sizes == [min(k, grid.dim + 1 - lo) for lo in range(0, grid.dim + 1, k)]
    assert all(c == coeffs[0] for c in coeffs)


def test_stacked_rhs_peak_not_above_unstacked():
    # at 3-D n = 32 a stack holds one array: each inverse is released
    # before the next is made, and each product is formed in place
    grid = Grid(3, 32, 2 * np.pi)
    assert grid_module._STACK_BYTES // (8 * grid.size) == 1
    ops = make_coefficient_ops(coefficient(grid, seed=23), 0.75, 0.0)
    F = grid.band_forward(random_field(grid, seed=24).values)

    def peak(rhs):
        rhs(F, ops)  # warm caches outside the trace
        tracemalloc.start()
        try:
            rhs(F, ops)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(linear._rhs_values) <= peak(unstacked_rhs)


@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_warm_rk4_step_peak_is_its_stage_bands_and_one_field(epsilon):
    # at 3-D n = 32 one stacked row is exactly the budget, so the plan keeps
    # every buffer of a right-hand side: a warmed step allocates its fresh
    # stage bands k1..k4 and t and, on top, less than one field
    grid = Grid(3, 32, 2 * np.pi)
    assert 8 * grid.size == grid_module._STACK_BYTES
    ops = make_coefficient_ops(coefficient(grid, seed=23), 0.75, epsilon)
    F = grid.band_forward(random_field(grid, seed=24).values)
    _rk4_step(F, 1e-4, ops, ops, ops)
    tracemalloc.start()
    try:
        _rk4_step(F, 1e-4, ops, ops, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * F.nbytes + 8 * grid.size


def _root(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 128), (3, 32), (3, 64)])
def test_plan_runs_every_stack_in_one_stacks_buffers(dim, n):
    # one stack at 1-D n = 64, two at 2-D n = 128 and four at 3-D n >= 32:
    # every later stack runs in views of the first stack's input and
    # intermediates, and in one last product the later ones share, as the
    # first's holds r; the forward runs in the first rows of the
    # intermediates, in reverse order, and returns a fresh array.  So the
    # plan keeps one stack's input and products plus, past one stack, one
    # more last product: its buffers are its writeable arrays (every matrix
    # is read-only), and their bytes are exactly that.
    grid = Grid(dim, n, 2 * np.pi)
    stacks, forward = linear._plan(grid, grid_module._STACK_BYTES)
    (*_, inp, products), *later = stacks
    assert len(stacks) == math.ceil((dim + 1) / grid_module._fields_per_stack(grid))
    inner, last = [y for *_, y in products[:-1]], products[-1][3]
    for *_, x, steps in later:
        assert np.shares_memory(x, inp)
        assert all(np.shares_memory(y, b) for (*_, y), b in zip(steps, inner))
        assert np.shares_memory(steps[-1][3], later[0][4][-1][3])
        assert not np.shares_memory(steps[-1][3], last)
    assert [y.shape for *_, y in forward[:-1]] == [b[0].shape for b in inner[::-1]]
    assert all(np.shares_memory(y, b) for (*_, y), b in zip(forward, inner[::-1]))
    assert type(forward[-1][3]) is tuple

    steps = [*forward, *(s for *_, products in stacks for s in products)]
    candidates = [x for *_, x, _ in stacks] + [a for s in steps for a in s]
    buffers = [a for a in candidates if isinstance(a, np.ndarray) and a.flags.writeable]
    kept = sum({id(b): b.nbytes for b in map(_root, buffers)}.values())
    one_stack = inp.nbytes + sum(y.nbytes for *_, y in products)
    assert kept == one_stack + (8 * len(later[0][2]) * grid.size if later else 0)


# the test grids, 2-D n = 128, whose right-hand side runs two stacks, and
# 3-D n = 64, whose right-hand side runs four stacks in one stack's buffers
ALIAS_GRIDS = [*GRIDS[:2], Grid(2, 128, 2 * np.pi), GRIDS[2], Grid(3, 64, 2 * np.pi)]


@pytest.mark.parametrize("grid", ALIAS_GRIDS, ids=lambda g: f"dim{g.dim}-n{g.n_points}")
@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_kept_arrays_are_not_the_plans_buffers(grid, epsilon):
    # every array a caller keeps stays as it was when the same calls run
    # again on other data, which overwrites every buffer of the plan
    def outputs(seed):
        ops = make_coefficient_ops(coefficient(grid, seed=seed), 0.75, epsilon)
        F = grid.band_forward(random_field(grid, seed=seed + 1).values)
        return [F, grid.band_inverse(F), ops.coeffs, _freeze(grid, F, 0.75, epsilon).coeffs,
                linear._rhs_values(F, ops), _rk4_step(F, 1e-4, ops, ops, ops)]

    kept = outputs(30)
    saved = [a.tobytes() for a in kept]
    outputs(32)
    assert [a.tobytes() for a in kept] == saved


@pytest.mark.parametrize("grid", ALIAS_GRIDS, ids=lambda g: f"dim{g.dim}-n{g.n_points}")
def test_solve_linear_repeats_after_a_solve_on_other_data(grid):
    def solve(seed):
        problem = LinearProblem(coefficient(grid, seed=seed), random_field(grid, seed=seed + 1),
                                0.75, 0.0, 2e-3)
        sol = solve_linear(problem, TimeStepPolicy(dt_max=5e-4), grid.dim / 2.0 + 1.1,
                           snapshot_times=(1e-3, 2e-3))
        return ([sol.final.values.tobytes(), repr(sol.records)]
                + [(t, f.values.tobytes()) for t, f in sol.snapshots])

    first = solve(40)
    solve(42)
    assert solve(40) == first


def coefficient_samples(grid, F0, samples):
    """A previous iterate from band F0 whose later samples are distinct
    coefficients, as band states."""
    coeffs = [coefficient(grid, seed=11 + i) for i in range(samples)]
    return [F0] + [grid.band_forward(c.values) for c in coeffs]


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_iterate_h_alpha_matches_sobolev_norm(grid):
    config = PicardConfig(s=0.75, alpha=grid.dim / 2.0 + 1.1, samples=6)
    u0 = coefficient(grid, seed=10)
    F0, tail = _start_band(u0, config.alpha)
    prev = coefficient_samples(grid, F0, config.samples)
    new, h_list, _, min_u = _advance_iterate(u0, tail, prev, config, 0.01)
    assert len(h_list) == len(new) == config.samples + 1
    assert new[0] is F0 is not None
    fields = [_field(u0, F, F0, 0.0) for F in new]
    for field, h in zip(fields, h_list):
        assert h == pytest.approx(sobolev_norm(field, config.alpha), rel=TOL)
    assert min_u == min(float(np.min(f.values)) for f in fields)
    # each previous sample is dropped once it has been frozen and compared
    assert all(F is None for F in prev[:-1])


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"dim{g.dim}")
def test_transform_counts(grid, monkeypatch):
    # dim + 1 band inverses, in stacks of k = _STACK_BYTES // (8 * size)
    # arrays (at least 1) per band_inverse call, and one band forward per
    # right-hand side, no transform of the state inside a step and none
    # over the half-spectrum, one band forward and one stacked band inverse
    # per freeze, and one forward per operator or Besov norm however many
    # outputs it makes; a Picard iterate freezes band states and measures
    # its samples on the band, so beyond its RK4 steps it makes one band
    # inverse per freeze and one per sample's real field, and no forward
    # transform; a record given the band state makes only the band
    # inverses of its Besov norm, and one rfftn and one band forward without
    # it, as _start_band makes.  A Besov norm inverts blocks until no block
    # left can reach the sup, so its count depends on the data: one block of
    # the noise field below, and every block of the zero field, whose bounds
    # are never below its sup of 0.
    # "inverted" counts the arrays the band inverses invert.  The band pair
    # of a right-hand side and a freeze runs on their plan, through
    # linear._run, and counts as Grid.band_forward and band_inverse calls.
    names = ("rfftn", "irfftn", "band_forward", "band_inverse", "inverted")
    counts = dict.fromkeys(names, 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "band_inverse":
                B = args[1]
                counts["inverted"] += math.prod(B.shape[: B.ndim - grid.dim])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def expect(**nonzero):
        assert counts == {**dict.fromkeys(names, 0), **nonzero}
        counts.update(dict.fromkeys(names, 0))

    v = coefficient(grid, seed=12)
    kernel = MollifierKernel(grid, 1.0)
    linear._band_hat(grid, 1.0)  # a freeze's filter, built once per grid and radius
    F = grid.band_forward(random_field(grid, seed=13).values)
    counted(np.fft, "rfftn")
    counted(np.fft, "irfftn")
    counted(Grid, "band_forward")
    counted(Grid, "band_inverse")
    run = linear._run

    def planned(steps, x, out=None):
        # a stack of (re, im) pairs, with its stack axis, is a band inverse
        inverse = x.ndim > grid.dim
        counts["band_inverse" if inverse else "band_forward"] += 1
        counts["inverted"] += len(x) if inverse else 0
        return run(steps, x, out)

    monkeypatch.setattr(linear, "_run", planned)

    def rhs_calls():
        k = max(1, grid_module._STACK_BYTES // (8 * grid.size))
        return math.ceil((grid.dim + 1) / k)

    assert rhs_calls() == 1  # every test grid fits in one stack
    ops = make_coefficient_ops(v, 0.75, 1.0)
    expect(band_forward=1, band_inverse=1, inverted=grid.dim + 1)
    assert ops.coeffs.shape == (grid.dim + 1, *grid.shape)
    # one array per call, then the default stacks
    for stack_bytes in (0, grid_module._STACK_BYTES):
        monkeypatch.setattr(grid_module, "_STACK_BYTES", stack_bytes)
        _rk4_step(F, 1e-3, ops, ops, ops)
        expect(band_forward=4, band_inverse=4 * rhs_calls(), inverted=4 * (grid.dim + 1))

    f = random_field(grid, seed=14)
    partition = DyadicPartition(grid)
    calls = [
        (lambda: frac_laplacian(f, 0.8), {"rfftn": 1, "irfftn": 1}),
        (lambda: inv_frac_laplacian(f, 0.7), {"rfftn": 1, "irfftn": 1}),
        (lambda: mollify(f, kernel), {"rfftn": 1, "irfftn": 1}),
        (lambda: gradient(f), {"rfftn": 1, "irfftn": grid.dim}),
    ]
    zero = RealField(grid, np.zeros(grid.shape))
    blocks = len(partition.multipliers)
    inverses = {"band_inverse": 1, "inverted": 1}
    calls += [
        (lambda: besov_norm(f, 1.1, partition), {"band_forward": 1, **inverses}),
        (lambda: besov_norm(zero, 1.1, partition),
         {"band_forward": 1, "band_inverse": blocks, "inverted": blocks}),
    ]
    recorder = RecorderConfig(alpha=1.1, partition=partition, coefficient_scale=1.0)
    band = _start_band(f, 1.1)
    expect(rfftn=1, band_forward=1)
    calls += [
        (lambda: record(f, 0.0, 0.0, recorder, None, band), inverses),
        (lambda: record(f, 0.0, 0.0, recorder), {"rfftn": 1, "band_forward": 1, **inverses}),
    ]
    for call, made in calls:
        call()
        expect(**made)

    config = PicardConfig(s=0.75, alpha=grid.dim / 2.0 + 1.1, samples=5)
    u0 = coefficient(grid, seed=10)
    F0, tail = _start_band(u0, config.alpha)
    expect(rfftn=1, band_forward=1)
    prev = coefficient_samples(grid, F0, config.samples)
    expect(band_forward=config.samples)
    # dt_seg is far below safety / rho_est, so each segment is one RK4 step
    # beside one freeze and one real field
    _advance_iterate(u0, tail, prev, config, 1e-4)
    expect(band_forward=config.samples * 4,
           band_inverse=config.samples * (4 * rhs_calls() + 2),
           inverted=config.samples * (4 * (grid.dim + 1) + grid.dim + 1 + 1))


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
    # every freeze on a grid reads the same cached band tables, the
    # mollifier's band symbol included
    grid = GRIDS[1]
    v = coefficient(grid, seed=7)
    a = make_coefficient_ops(v, 0.75, epsilon)
    b = make_coefficient_ops(RealField(grid, 2.0 * v.values), 0.75, epsilon)
    band = band_symbols(grid, -1.5)
    assert band is band_symbols(grid, -1.5)
    assert a.lap_mult is b.lap_mult is band_symbols(grid, 0.5).radial
    if epsilon == 0.0:
        assert a.filt == b.filt == 1.0
        spectral = (a.lap_mult,)
    else:
        assert a.filt is b.filt
        assert np.array_equal(a.filt, MollifierKernel(grid, epsilon).band_hat)
        spectral = (a.filt, a.lap_mult)
    shape = grid.band_forward(v.values).shape
    for arr in spectral:
        assert arr.shape == shape
        assert arr.flags.writeable is False
    # the gradients vary along one axis each and broadcast; the band
    # inverse's derivative matrices are built from them
    for arr in band.grad:
        assert arr.shape != shape and np.broadcast_shapes(arr.shape, shape) == shape
    for arr in (band.radial, band.fold, band.sobolev, *band.grad):
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


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint8)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_band_table_is_the_half_spectrum_table_cut_to_the_band(dim, n):
    # the oracle cuts the dense half-spectrum table to the band here; the
    # band table is built from the band's own frequencies.  On the band,
    # fold and sobolev carry a factor 2 at each signed-axis k != 0; the
    # gradient is i xi on every axis, as on the half-spectrum
    grid = Grid(dim, n, 2 * np.pi)
    band_shape = grid.band_forward(np.zeros(grid.shape)).shape
    signed = [np.abs(grid.k_signed[ix]) > 0 for ix in grid.band[:-1]]
    twice = np.broadcast_to(2.0 ** sum(signed, np.zeros(band_shape)), band_shape)
    for exponent in (-1.5, 0.0, 0.5, 1.0, 1.6, 2.6):
        full, band = half_spectrum_symbols(grid, exponent), band_symbols(grid, exponent)
        pairs = [
            (full.radial, band.radial, 1.0),
            (full.fold, band.fold, twice),
            (full.sobolev, band.sobolev, twice),
        ]
        # no factor on the gradients: 1.0 * (-0 - 1j) is 0 - 1j
        pairs += [(f, b, None) for f, b in zip(full.grad, band.grad)]
        for f, b, factor in pairs:
            cut = np.broadcast_to(f, grid.spectral_shape)[grid.band]
            if factor is not None:
                cut = cut * factor
            assert np.array_equal(bits(np.broadcast_to(b, band_shape)), bits(cut))
        assert band.radial.shape == band.sobolev.shape == band_shape


def test_band_table_is_small_and_caches_no_full_table():
    # radial, fold and sobolev are dense on the band at 3-D; together with
    # the gradients they take less than one dense half-spectrum array
    grid = Grid(3, 64, 2 * np.pi)
    before = half_spectrum_symbols.cache_info().currsize
    sym = band_symbols(grid, 0.123)
    assert half_spectrum_symbols.cache_info().currsize == before
    total = sum(a.nbytes for a in (sym.radial, sym.fold, sym.sobolev, *sym.grad))
    assert total < 8 * math.prod(grid.spectral_shape)


# ---------------------------------------------------------------------------
# one transform path


def test_package_makes_no_complex_fft_call(monkeypatch):
    # fft, ifft, fftn and ifftn nowhere, nor the 1-D rfft and irfft: the
    # band pair is real matrix products at every dim, on the 1-D and 2-D
    # n = 16 grids below as on 2-D n = 128.  rfftn's own passes use
    # numpy.fft._pocketfft's globals, which this leaves alone
    def forbidden(*args, **kwargs):
        raise AssertionError("complex or 1-D FFT called")

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, forbidden)

    grid = Grid(2, 16, 2 * np.pi)
    # modes up to k = 5, the band's cutoff at n = 16
    f = FieldGenerator("random_trig", seed=1, amplitude=1.0, width=2 * np.pi / 5).generate(grid)
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

    big = Grid(2, 128, 2 * np.pi)
    big.band_inverse(big.band_forward(random_field(big, seed=3).values))
