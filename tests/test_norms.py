"""Norms and the Littlewood-Paley partition."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpme import (
    DyadicPartition,
    FieldGenerator,
    Grid,
    GridMismatch,
    RealField,
    besov_norm,
    frac_laplacian,
    homogeneous_seminorm,
    lp_norm,
    sobolev_norm,
)
from fpme.grid import (
    SpectralField,
    forward_transform,
    inverse_transform,
    resample,
)

from conftest import random_field
from helpers import half_columns, radial_symbol_oracle


def half_dealias_mask(grid):
    """The 2/3-rule mask from signed modes, on the half-spectrum."""
    keep = np.abs(grid.k_signed) <= grid.dealias_cutoff
    mask = keep
    for _ in range(grid.dim - 1):
        mask = np.multiply.outer(mask, keep)
    return half_columns(mask.astype(float))


def half_radius(grid):
    """|xi| in units of the fundamental wavenumber, on the half-spectrum."""
    return half_columns(radial_symbol_oracle(grid.dim, grid.n_points, 2 * np.pi, 1.0))


class TestLpNorm:
    def test_constant(self):
        g = Grid(1, 16, 1.0)
        f = RealField(g, np.full(16, 2.0))
        for p in (1, 2, 4, np.inf):
            assert lp_norm(f, p) == pytest.approx(2.0, rel=1e-14)

    def test_single_cell(self):
        g = Grid(2, 8, 1.0)
        vals = np.zeros((8, 8))
        vals[3, 5] = 7.0
        f = RealField(g, vals)
        assert lp_norm(f, 2) == pytest.approx(7.0 * g.spacing ** (2 / 2), rel=1e-14)
        assert lp_norm(f, 1) == pytest.approx(7.0 * g.spacing**2, rel=1e-14)
        assert lp_norm(f, np.inf) == 7.0

    def test_p_below_one_rejected(self, grid64):
        with pytest.raises(ValueError):
            lp_norm(random_field(grid64, 0), 0.5)

    def test_l2_matches_parseval(self, grid2d):
        f = random_field(grid2d, seed=41)
        c = forward_transform(f).coeffs
        # interior last-axis columns also stand for their conjugate mirrors
        fold = np.full(grid2d.n_points // 2 + 1, 2.0)
        fold[[0, -1]] = 1.0
        spectral = np.sqrt(grid2d.volume * np.sum(fold * np.abs(c) ** 2))
        assert lp_norm(f, 2) == pytest.approx(spectral, rel=1e-10)


@pytest.mark.parametrize(
    "norm",
    [
        sobolev_norm,
        homogeneous_seminorm,
        lambda f, alpha: besov_norm(f, alpha, DyadicPartition(f.grid)),
    ],
    ids=["sobolev", "homogeneous", "besov"],
)
def test_nan_exponent_rejected(grid64, norm):
    # NaN fails every comparison: unchecked, the Besov sup stayed at 0.0 and
    # the Sobolev norms came out NaN
    with pytest.raises(ValueError, match="alpha"):
        norm(random_field(grid64, 0), float("nan"))


class TestSobolevNorm:
    def test_alpha_zero_is_l2(self, grid64):
        f = random_field(grid64, seed=42)
        assert sobolev_norm(f, 0.0) == pytest.approx(lp_norm(f, 2), rel=1e-12)

    def test_one_mode_formula(self):
        L = 2 * np.pi
        g = Grid(1, 64, L)
        x = g.axes()[0]
        xi1 = 2 * np.pi / L
        f = RealField(g, np.cos(xi1 * x))
        expected = np.sqrt(L * (1 + xi1**2) / 2)
        assert sobolev_norm(f, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_matches_multiplier_route(self, grid2d):
        # independent route: apply (1+|xi|^2)^(alpha/2) spectrally, then L2
        alpha = 1.3
        f = random_field(grid2d, seed=43)
        F = forward_transform(f)
        xi_squared = half_columns(radial_symbol_oracle(2, 32, grid2d.side_length, 2.0))
        w = (1.0 + xi_squared) ** (alpha / 2.0)
        g_field = inverse_transform(SpectralField(grid2d, w * F.coeffs))
        assert sobolev_norm(f, alpha) == pytest.approx(lp_norm(g_field, 2), rel=1e-10)

    def test_negative_alpha_rejected(self, grid64):
        with pytest.raises(ValueError):
            sobolev_norm(random_field(grid64, 0), -0.5)

    @given(lo=st.floats(0.0, 2.0), gap=st.floats(0.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_alpha(self, lo, gap):
        g = Grid(1, 32, 2 * np.pi)
        f = random_field(g, seed=44)
        assert sobolev_norm(f, lo) <= sobolev_norm(f, lo + gap) * (1 + 1e-12)


class TestHomogeneousSeminorm:
    def test_constant_is_zero(self, grid64):
        f = RealField(grid64, np.full(64, 3.5))
        assert homogeneous_seminorm(f, 0.75) == 0.0

    def test_single_mode(self):
        g = Grid(1, 64, 2 * np.pi)
        x = g.axes()[0]
        f = RealField(g, 2.0 * np.cos(5 * x))
        # mean-zero single mode: seminorm = |xi|^s times its L2 norm
        expected = 5.0**0.6 * lp_norm(f, 2)
        assert homogeneous_seminorm(f, 0.6) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.7])
    def test_matches_frac_laplacian_route(self, grid64, alpha):
        f = random_field(grid64, seed=45)
        zero_mean = RealField(grid64, f.values - np.mean(f.values))
        direct = lp_norm(frac_laplacian(zero_mean, alpha), 2)
        assert homogeneous_seminorm(zero_mean, alpha) == pytest.approx(direct, rel=1e-10)

    def test_negative_alpha_allowed(self, grid64):
        f = random_field(grid64, seed=46)
        zero_mean = RealField(grid64, f.values - np.mean(f.values))
        assert homogeneous_seminorm(zero_mean, -0.5) > 0


def blocks_of(f, p):
    """The Littlewood-Paley blocks of f, all at once."""
    g = f.grid
    B = g.band_forward(f.values)
    return [RealField(g, g.band_inverse(m * B)) for m in p.multipliers]


def cropped_block_l1_norms(f, p):
    """The L1 norm of every block of f, each inverted over its crop and
    summed as besov_norm does, with no block skipped."""
    g = f.grid
    B = g.band_forward(f.values)
    cell = g.spacing**g.dim
    norms = []
    for m, crop in zip(p.multipliers, p.crops):
        block = g.band_inverse(m * B if crop is None else m[crop] * B[crop])
        norms.append(float(np.abs(block).sum() * cell))
    return norms


class TestDyadicPartition:
    def test_partition_of_unity_on_retained_modes(self):
        for dim, n in [(1, 64), (2, 32), (3, 16)]:
            g = Grid(dim, n, 2 * np.pi)
            p = DyadicPartition(g)
            total = sum(p.multipliers)
            assert np.max(np.abs(total - 1.0)) < 1e-12
            # the multipliers hold every retained mode and nothing beyond
            # the cutoff
            mask = half_dealias_mask(g)
            assert np.all(mask[g.band] == 1.0)
            assert total.size == np.sum(mask)

    def test_multipliers_within_unit_interval(self, grid2d):
        p = DyadicPartition(grid2d)
        for m in p.multipliers:
            assert np.min(m) >= 0.0
            assert np.max(m) <= 1.0 + 1e-12

    def test_annulus_support(self, grid64):
        p = DyadicPartition(grid64)
        r = half_radius(grid64)[grid64.band]
        for j, m in zip(p.indices, p.multipliers):
            if j == -1:
                assert np.max(np.abs(m[r > 1.0])) == 0.0
            else:
                outside = (r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1))
                assert np.max(np.abs(m[outside])) == 0.0

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16), (3, 64)])
    def test_crops_are_smallest_support_boxes(self, dim, n):
        # block j's crop is the box |k_i| <= K, in the band layout with
        # cutoff K, and the multiplier is zero outside it but not on its
        # boundary; a block that needs the whole band has no crop
        g = Grid(dim, n, 2 * np.pi)
        c = g.dealias_cutoff
        band_shape = (*[2 * c + 1] * (dim - 1), c + 1)
        modes = [np.broadcast_to(g.k_signed[ix], band_shape) for ix in g.band]
        k_inf = np.maximum.reduce([np.abs(k) for k in modes])
        p = DyadicPartition(g)
        keeps = []
        for m, crop in zip(p.multipliers, p.crops):
            keep = c if crop is None else m[crop].shape[-1] - 1
            keeps.append(keep)
            assert np.all(m[k_inf > keep] == 0.0)
            assert keep == 0 or np.any(m[k_inf == keep] != 0.0)
            if crop is not None:
                assert keep < c
                assert m[crop].shape == (*[2 * keep + 1] * (dim - 1), keep + 1)
                # rows 0..K, -K..-1 on each signed axis, columns 0..K
                expected = np.fft.fftfreq(2 * keep + 1, d=1.0 / (2 * keep + 1))
                for ax, k in enumerate(modes[:-1]):
                    rows = np.moveaxis(k[crop], ax, 0).reshape(2 * keep + 1, -1)
                    assert np.array_equal(rows[:, 0], expected)
                assert np.count_nonzero(k_inf <= keep) == m[crop].size
        if n == 64:
            assert keeps[:5] == [0, 1, 3, 7, 15] and set(keeps[5:]) == {c}

    def test_block_reconstruction(self, grid2d):
        f = random_field(grid2d, seed=47)
        p = DyadicPartition(grid2d)
        total = sum(b.values for b in blocks_of(f, p))
        mask = half_dealias_mask(grid2d)
        target = inverse_transform(SpectralField(grid2d, forward_transform(f).coeffs * mask)).values
        assert np.max(np.abs(total - target)) < 1e-10


class TestBesovNorm:
    def test_zero_field(self, grid64):
        p = DyadicPartition(grid64)
        f = RealField(grid64, np.zeros(64))
        assert besov_norm(f, 1.1, p) == 0.0

    def test_power_of_two_mode_lands_in_one_block(self, grid64):
        # radial index exactly 2^j0 is where chi(1)=1 and chi(2)=0 meet, so
        # the mode belongs to block j0 alone and the sup is exact
        p = DyadicPartition(grid64)
        x = grid64.axes()[0]
        alpha = 1.1
        for j0 in (2, 3, 4):
            f = RealField(grid64, 0.7 * np.cos(2**j0 * x))
            expected = 2.0 ** (j0 * alpha) * lp_norm(f, 1)
            assert besov_norm(f, alpha, p) == pytest.approx(expected, rel=1e-12)

    def test_generic_mode_is_its_largest_weighted_block(self, grid64):
        # block j of cos(kx) is m_j(k) cos(kx), so the norm is
        # max_j 2**(j alpha) m_j(k) ||cos kx||_1; at k = 3 and 6 two blocks
        # share the mode with m_j(k) = 1/2 each
        p = DyadicPartition(grid64)
        x = grid64.axes()[0]
        alpha = 1.1
        for k in (3, 6, 11):
            f = RealField(grid64, np.cos(k * x))
            weights = [2.0 ** (j * alpha) * m[k] for j, m in zip(p.indices, p.multipliers)]
            expected = max(weights) * lp_norm(f, 1)
            assert besov_norm(f, alpha, p) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_partition_of_another_grid_rejected(self, grid64):
        f = random_field(grid64, seed=48)
        for other in (Grid(1, 32, 2 * np.pi), Grid(1, 64, np.pi), Grid(2, 64, 2 * np.pi)):
            with pytest.raises(GridMismatch):
                besov_norm(f, 1.1, DyadicPartition(other))

    def test_max_picks_dominant_block(self, grid64):
        p = DyadicPartition(grid64)
        x = grid64.axes()[0]
        low = RealField(grid64, np.cos(4 * x))
        high = RealField(grid64, np.cos(16 * x))
        both = RealField(grid64, low.values + high.values)
        alpha = 1.5
        # blocks are disjoint for these two modes, so the sup of the sum is
        # the larger of the individual contributions
        expected = max(besov_norm(low, alpha, p), besov_norm(high, alpha, p))
        assert besov_norm(both, alpha, p) == pytest.approx(expected, rel=1e-12)

    def test_blocks_reduced_one_at_a_time(self):
        # holding every block at once would cost len(multipliers) fields;
        # one block, its band coefficients and the transform's padded
        # buffers stay under four
        grid = Grid(3, 64, 2 * np.pi)
        p = DyadicPartition(grid)
        f = random_field(grid, seed=8)
        blocks = blocks_of(f, p)
        expected = max(2.0 ** (j * 1.1) * lp_norm(b, 1) for j, b in zip(p.indices, blocks))
        tracemalloc.start()
        try:
            value = besov_norm(f, 1.1, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak <= 4 * f.values.nbytes


    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [16, 64])
    def test_skipped_blocks_leave_the_sup_bit_for_bit(self, dim, n):
        # a block is skipped only when its Parseval bound cannot reach the
        # sup, so the sup equals the max over every block exactly; the
        # constant is the Cauchy-Schwarz equality case of the bound
        grid = Grid(dim, n, 2 * np.pi)
        p = DyadicPartition(grid)
        L, c = grid.side_length, grid.dealias_cutoff
        j_top = int(np.log2(c))
        fields = [
            RealField(grid, np.zeros(grid.shape)),
            FieldGenerator("constant", amplitude=0.7).generate(grid),
            RealField(grid, 0.7 * np.cos(2**j_top * grid.axes()[0])),
            FieldGenerator("random_trig", seed=5, width=L / 2).generate(grid),
            FieldGenerator("random_trig", seed=6, width=L / c).generate(grid),
            FieldGenerator("multi_bump", seed=7, amplitude=0.5, width=2.5).generate(grid),
        ]
        for f in fields:
            norms = cropped_block_l1_norms(f, p)
            for alpha in (0.0, 0.6, 1.1, 2.1, 2.6):
                expected = max(2.0 ** (j * alpha) * v for j, v in zip(p.indices, norms))
                assert besov_norm(f, alpha, p) == expected

    def test_block_at_its_bound_is_not_skipped(self, grid64):
        # the constant's block -1 equals its bound; a cosine in block 3 with
        # a larger bound is inverted first and leaves a sup 1e-5 below it,
        # so block -1 must still be inverted
        p = DyadicPartition(grid64)
        alpha = 1.1
        wave = np.cos(8 * grid64.axes()[0])
        top = 2.0**-alpha * grid64.side_length
        a = (1 - 1e-5) * top / (2.0 ** (3 * alpha) * lp_norm(RealField(grid64, wave), 1))
        f = RealField(grid64, 1.0 + a * wave)
        norms = cropped_block_l1_norms(f, p)
        value = besov_norm(f, alpha, p)
        assert value == max(2.0 ** (j * alpha) * v for j, v in zip(p.indices, norms))
        assert value == 2.0**-alpha * norms[0] == pytest.approx(top, rel=1e-14)

    def test_smooth_bump_inverts_one_block(self, monkeypatch):
        # at 3-D n=64 the smooth bump's block 2 outweighs every other
        # block's Parseval bound, so of its 8 blocks only that one is
        # inverted
        grid = Grid(3, 64, 2 * np.pi)
        p = DyadicPartition(grid)
        f = FieldGenerator("multi_bump", seed=1, amplitude=0.5, width=0.8).generate(grid)
        inverted = []
        real = Grid.band_inverse

        def counted(self, B):
            inverted.append(B.shape[-1] - 1)
            return real(self, B)

        monkeypatch.setattr(Grid, "band_inverse", counted)
        value = besov_norm(f, 2.6, p)
        assert len(p.multipliers) == 8 and inverted == [7]
        monkeypatch.undo()
        norms = cropped_block_l1_norms(f, p)
        assert value == max(2.0 ** (j * 2.6) * v for j, v in zip(p.indices, norms))
        assert value == 2.0 ** (2 * 2.6) * norms[p.indices.index(2)]


class TestInequalityWitnesses:
    """Empirical finite-constant witnesses: the measured sup of a ratio
    must not drift when the lattice is refined, otherwise the discrete
    norms would not be consistent discretizations of the same functional.
    """

    def _ratio_max_product(self, grid_coarse, grid_fine, n_pairs=200):
        out = []
        for g in (grid_coarse, grid_fine):
            worst = 0.0
            for i in range(n_pairs):
                f = random_field(grid_coarse, seed=100 + i, k_max=grid_coarse.dealias_cutoff)
                h = random_field(grid_coarse, seed=900 + i, k_max=grid_coarse.dealias_cutoff)
                if g is not grid_coarse:
                    f = resample(f, g)
                    h = resample(h, g)
                prod = RealField(g, f.values * h.values)
                denom = homogeneous_seminorm(f, 0.75) * homogeneous_seminorm(h, 0.75)
                if denom == 0:
                    continue
                worst = max(worst, homogeneous_seminorm(prod, 0.5) / denom)
            out.append(worst)
        return out

    def test_product_estimate_stable_under_refinement(self):
        coarse = Grid(2, 32, 2 * np.pi)
        fine = Grid(2, 64, 2 * np.pi)
        worst_c, worst_f = self._ratio_max_product(coarse, fine)
        assert np.isfinite(worst_c) and worst_c > 0
        assert abs(worst_f - worst_c) <= 0.2 * max(worst_c, worst_f)

    def test_embedding_witness_stable_under_refinement(self):
        coarse = Grid(2, 32, 2 * np.pi)
        fine = Grid(2, 64, 2 * np.pi)
        alpha = 1.2  # > d/2 = 1
        ratios = []
        for g in (coarse, fine):
            worst = 0.0
            for i in range(50):
                f = random_field(coarse, seed=300 + i, k_max=coarse.dealias_cutoff)
                if g is not coarse:
                    f = resample(f, g)
                worst = max(worst, lp_norm(f, np.inf) / sobolev_norm(f, alpha))
            ratios.append(worst)
        assert abs(ratios[1] - ratios[0]) <= 0.2 * max(ratios)
