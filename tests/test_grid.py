"""Transform layer: normalization, round trips, dealiasing, resampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpme import Grid, GridMismatch, RealField
from fpme.grid import (
    SpectralField,
    forward_transform,
    inverse_transform,
    resample,
)

from conftest import random_field
from helpers import dft_forward_oracle, half_columns


class TestGridValidation:
    def test_bad_dim(self):
        with pytest.raises(ValueError):
            Grid(4, 64, 1.0)

    def test_not_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(1, 48, 1.0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            Grid(1, 4, 1.0)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Grid(1, 64, 0.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1, 8, np.inf), "side_length must be positive and finite, got inf"),
            ((1, 8, np.nan), "side_length must be positive and finite, got nan"),
            ((2.0, 64, 1.0), "dim must be an integer >= 1, got 2.0"),
            ((1, 64.0, 1.0), "n_points must be an integer >= 8, got 64.0"),
            ((True, 8, 1.0), "dim must be an integer >= 1, got True"),
        ],
        ids=["infinite-length", "nan-length", "float-dim", "float-n", "bool-dim"],
    )
    def test_non_finite_length_and_non_integer_sizes_rejected(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Grid(*args)

    @pytest.mark.parametrize(
        "dim, length, square",
        [(1, 1e-300, "the largest |xi|**2 = inf"), (2, 1e200, "side_length**2 = inf"),
         (3, 1e120, "side_length**3 = inf")],
    )
    def test_length_whose_tables_overflow_rejected(self, dim, length, square):
        # the symbol tables, the mollifier and the volume square or power L
        # or |xi|; 1e-300 overflowed the tables, and 1e120 at dim 3 raised
        # OverflowError from the volume
        with pytest.raises(ValueError) as err:
            Grid(dim, 64, length)
        message = str(err.value)
        assert message.startswith(f"side_length {length} is out of range: ")
        assert square in message and message.endswith(" must be finite")

    def test_derived_quantities(self):
        g = Grid(2, 16, 3.0)
        assert g.spacing == pytest.approx(3.0 / 16)
        assert g.shape == (16, 16)
        assert g.size == 256
        assert g.volume == pytest.approx(9.0)
        assert g.dealias_cutoff == 5  # floor(16/3)

    def test_field_shape_coercion(self):
        g = Grid(2, 8, 1.0)
        flat = np.arange(64, dtype=float)
        f = RealField(g, flat)
        assert f.values.shape == (8, 8)
        with pytest.raises(ValueError):
            RealField(g, np.arange(63, dtype=float))

    def test_nonfinite_rejected(self):
        g = Grid(1, 8, 1.0)
        bad = np.zeros(8)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            RealField(g, bad)


class TestTransformNormalization:
    """forward_transform must return mean-normalized coefficients on the
    half-spectrum: the zero mode is the plain average of the samples."""

    def test_zero_mode_is_mean(self, grid64):
        f = random_field(grid64, seed=5)
        F = forward_transform(f)
        assert F.coeffs.flat[0] == pytest.approx(np.mean(f.values), rel=1e-14)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (3, 8)])
    def test_matches_matrix_dft(self, dim, n):
        g = Grid(dim, n, 2.5)
        f = random_field(g, seed=dim * 10 + n)
        F = forward_transform(f)
        expected = half_columns(dft_forward_oracle(f.values))
        assert np.max(np.abs(F.coeffs - expected)) < 1e-13

    def test_single_mode_amplitude(self, grid64):
        x = grid64.axes()[0]
        F = forward_transform(RealField(grid64, np.cos(3 * x)))
        # cos splits into two half-amplitude exponentials; the half-spectrum
        # stores the +3 one, and -3 is its conjugate, which is not stored
        assert F.coeffs[3] == pytest.approx(0.5, abs=1e-14)
        assert np.max(np.abs(np.delete(F.coeffs, 3))) < 1e-14

    def test_parseval(self, grid2d):
        f = random_field(grid2d, seed=9)
        F = forward_transform(f)
        physical = np.sum(f.values**2) * grid2d.spacing**2
        # interior last-axis columns also stand for their conjugate mirrors
        fold = np.full(grid2d.n_points // 2 + 1, 2.0)
        fold[[0, -1]] = 1.0
        spectral = grid2d.volume * np.sum(fold * np.abs(F.coeffs) ** 2)
        assert physical == pytest.approx(spectral, rel=1e-13)

    def test_round_trip_many(self, grid64):
        for seed in range(100):
            f = random_field(grid64, seed=seed)
            back = inverse_transform(forward_transform(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-12

    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-6, 1e6))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed, scale):
        g = Grid(1, 16, 1.0)
        a = random_field(g, seed)
        b = random_field(g, seed + 1)
        lhs = forward_transform(RealField(g, scale * a.values + b.values)).coeffs
        rhs = scale * forward_transform(a).coeffs + forward_transform(b).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale + 1e-9

    def test_hermitian_accepted(self, grid64):
        # the -3 partner 0.5 + 0.25j is implied by the half layout
        coeffs = np.zeros(33, dtype=complex)
        coeffs[3] = 0.5 - 0.25j
        f = inverse_transform(SpectralField(grid64, coeffs))
        x = grid64.axes()[0]
        assert np.max(np.abs(f.values - (np.cos(3 * x) + 0.5 * np.sin(3 * x)))) < 1e-13


class TestDealias:
    def test_small_grid_cutoff(self):
        # N=8: floor(8/3)=2, so modes 0,1,2 survive and 3,4 are dropped; the
        # leading axis of a 2-D grid carries the negative frequencies too
        g = Grid(2, 8, 2 * np.pi)
        rows, cols = (ix.ravel() for ix in g.band)
        assert sorted(int(k) for k in g.k_signed[rows]) == [-2, -1, 0, 1, 2]
        assert cols.tolist() == [0, 1, 2]
        assert g.band_forward(np.zeros(g.shape)).shape == (5, 3)

    def test_projection_idempotent(self, grid2d):
        def project(values):
            return grid2d.band_inverse(grid2d.band_forward(values))

        once = project(random_field(grid2d, seed=3).values)
        assert np.max(np.abs(project(once) - once)) < 1e-13 * np.max(np.abs(once))

    def test_axiswise_not_radial(self):
        # the 2/3 rule clips each axis independently; a corner mode with
        # both indices at the cutoff survives even though its radius is
        # cutoff*sqrt(2)
        g = Grid(2, 16, 2 * np.pi)
        c = g.dealias_cutoff
        x, y = g.axes()
        corner = np.cos(c * x + c * y)
        assert np.max(np.abs(g.band_inverse(g.band_forward(corner)) - corner)) < 1e-13


class TestResample:
    def test_band_limited_exact(self):
        coarse = Grid(1, 32, 2 * np.pi)
        fine = Grid(1, 64, 2 * np.pi)
        x_c = coarse.axes()[0]
        x_f = fine.axes()[0]
        vals = np.cos(5 * x_c) + 0.3 * np.sin(11 * x_c)
        up = resample(RealField(coarse, vals), fine)
        expected = np.cos(5 * x_f) + 0.3 * np.sin(11 * x_f)
        assert np.max(np.abs(up.values - expected)) < 1e-12

    def test_round_trip_identity(self, grid2d):
        fine = Grid(2, 64, 2 * np.pi)
        f = random_field(grid2d, seed=14, k_max=grid2d.n_points // 2 - 1)
        back = resample(resample(f, fine), grid2d)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_mean_preserved(self, grid64):
        fine = Grid(1, 128, 2 * np.pi)
        f = random_field(grid64, seed=2)
        up = resample(f, fine)
        assert np.mean(up.values) == pytest.approx(np.mean(f.values), rel=1e-13)

    def test_same_size_keeps_the_values(self, grid64):
        f = random_field(grid64, seed=3)
        same = resample(f, Grid(1, 64, 2 * np.pi))
        assert same.grid == grid64
        assert np.array_equal(same.values, f.values)

    def test_incompatible_grids(self, grid64):
        other_len = Grid(1, 128, 1.0)
        with pytest.raises(GridMismatch):
            resample(random_field(grid64, seed=0), other_len)
        other_dim = Grid(2, 64, 2 * np.pi)
        with pytest.raises(GridMismatch):
            resample(random_field(grid64, seed=0), other_dim)
