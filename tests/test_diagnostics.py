"""Inequality checks, the commutator probe, generators and records."""

import math

import numpy as np
import pytest

from fpme import (
    DegenerateDenominator,
    DiagnosticsRecord,
    DyadicPartition,
    FieldGenerator,
    Grid,
    GridMismatch,
    RealField,
    UnsupportedExponent,
    check_commutator,
    check_cordoba,
    check_pointwise_lp,
    lp_norm,
    run_property_suite,
    sobolev_norm,
)
from fpme.diagnostics import RecorderConfig, record
from fpme.grid import forward_transform, resample
from fpme.norms import _start_band

from conftest import random_field
from helpers import half_columns, radial_symbol_oracle


class TestCordoba:
    def test_sigma_zero_gap_is_square(self, grid64):
        f = random_field(grid64, seed=1, k_max=grid64.dealias_cutoff // 2)
        rep = check_cordoba(f, 0.0)
        assert rep.min_gap == pytest.approx(float(np.min(f.values**2)), abs=1e-12)
        assert rep.passed

    def test_constant_field(self, grid64):
        f = RealField(grid64, np.full(64, 1.7))
        rep = check_cordoba(f, 0.8)
        assert abs(rep.min_gap) < 1e-12
        assert rep.passed

    def test_tolerance_formula(self, grid64):
        f = random_field(grid64, seed=2, k_max=10)
        rep = check_cordoba(f, 0.8)
        assert rep.tol == pytest.approx(1e-9 * (1 + lp_norm(f, np.inf) ** 2), rel=1e-12)

    @pytest.mark.parametrize("s", [0.5, 0.8, 1.2, 2.0])
    def test_band_limited_fields_pass(self, grid64, s):
        for seed in range(20):
            f = random_field(grid64, seed=seed, k_max=grid64.dealias_cutoff // 2)
            assert check_cordoba(f, s).passed

    def test_sigma_out_of_range(self, grid64):
        from fpme import InvalidExponent

        with pytest.raises(InvalidExponent):
            check_cordoba(random_field(grid64, 0), 2.5)


class TestPointwiseLp:
    def test_p2_matches_cordoba(self, grid64):
        f = random_field(grid64, seed=3, k_max=grid64.dealias_cutoff // 2)
        a = check_pointwise_lp(f, 0.6, 2)
        b = check_cordoba(f, 0.6)
        assert a.min_gap == pytest.approx(b.min_gap, abs=1e-12)

    def test_p4_needs_quarter_band(self, grid64):
        # f^4 has modes up to 4 k_max, so k_max <= cutoff/4 keeps it exact
        for seed in range(10):
            f = random_field(grid64, seed=40 + seed, k_max=grid64.dealias_cutoff // 4)
            for sigma in (0.6, 1.0):
                assert check_pointwise_lp(f, sigma, 4).passed

    def test_odd_power_rejected(self, grid64):
        with pytest.raises(UnsupportedExponent):
            check_pointwise_lp(random_field(grid64, 0), 0.6, 3)


class TestCommutator:
    def test_single_mode_closed_form(self, grid64):
        # f = g = cos(mx): every norm in the ratio reduces to powers of m,
        # and the m-dependence cancels, leaving a pure function of alpha
        alpha = 2.1
        expected = math.sqrt(2.0) / 2.0 * math.sqrt(0.25 + (2.0**alpha - 1.0) ** 2 / 8.0)
        x = grid64.axes()[0]
        for m in (2, 4, 7):
            f = RealField(grid64, np.cos(m * x))
            ratio = check_commutator(f, f, alpha)
            assert ratio == pytest.approx(expected, rel=1e-10)

    def test_zero_field_degenerate(self, grid64):
        z = RealField(grid64, np.zeros(64))
        with pytest.raises(DegenerateDenominator):
            check_commutator(z, z, 2.1)

    def test_alpha_must_be_positive(self, grid64):
        from fpme import InvalidExponent

        f = random_field(grid64, 0, k_max=8)
        with pytest.raises(InvalidExponent):
            check_commutator(f, f, 0.0)

    def test_nyquist_content_closed_form(self):
        # f carries a Nyquist mode; gradient() drops it, so grad f = -sin x.
        # The dealiased product keeps (1 + cos x)(1 + 0.5 sin 2x) exactly.
        g = Grid(1, 16, 2 * np.pi)
        x = g.axes()[0]
        nyq = np.cos(np.pi * np.arange(16))
        alpha = 2.1
        f = RealField(g, 1.0 + 0.5 * nyq + np.cos(x))
        h = RealField(g, 1.0 + 0.5 * np.sin(2 * x))
        lam_prod = (
            np.cos(x) + 0.5 * 2**alpha * np.sin(2 * x)
            + 0.25 * (3**alpha * np.sin(3 * x) + np.sin(x))
        )
        numerator = lp_norm(RealField(g, lam_prod - f.values * 0.5 * 2**alpha * np.sin(2 * x)), 2)
        grad_f_inf = 1.0
        h_semi = 2 ** (alpha - 1) * 0.5 * np.sqrt(np.pi)
        f_semi = np.sqrt(np.pi + 8 ** (2 * alpha) * 0.25 * 2 * np.pi)
        expected = numerator / (grad_f_inf * h_semi + f_semi * 1.5)
        assert check_commutator(f, h, alpha) == pytest.approx(expected, rel=1e-12)

    def test_refinement_stable(self):
        coarse = Grid(2, 32, 2 * np.pi)
        fine = Grid(2, 64, 2 * np.pi)
        f = random_field(coarse, seed=5, k_max=coarse.dealias_cutoff // 2)
        h = random_field(coarse, seed=6, k_max=coarse.dealias_cutoff // 2)
        r_c = check_commutator(f, h, 2.1)
        r_f = check_commutator(resample(f, fine), resample(h, fine), 2.1)
        assert abs(r_f - r_c) <= 0.2 * max(r_c, r_f)


class TestFieldGenerator:
    def test_constant(self, grid64):
        f = FieldGenerator("constant", amplitude=0.7).generate(grid64)
        assert np.all(f.values == 0.7)

    def test_gaussian_bump_properties(self, grid64):
        f = FieldGenerator("gaussian_bump", seed=1, amplitude=0.5, width=0.8).generate(grid64)
        assert np.min(f.values) >= 0.0
        assert np.max(f.values) == pytest.approx(0.5, rel=1e-6)

    def test_multi_bump_nonnegative(self, grid64):
        f = FieldGenerator("multi_bump", seed=9, amplitude=0.5, width=0.9).generate(grid64)
        assert np.min(f.values) >= 0.0
        assert np.max(f.values) <= 0.5 * (1 + 1e-9) * 3

    def test_random_trig_band_limited(self, grid64):
        width = 2 * np.pi / 10
        f = FieldGenerator("random_trig", seed=3, amplitude=1.0, width=width).generate(grid64)
        assert lp_norm(f, np.inf) == pytest.approx(1.0, rel=1e-12)
        coeffs = forward_transform(f).coeffs
        r = half_columns(radial_symbol_oracle(1, 64, 2 * np.pi, 1.0))
        # the final sup normalization happens in physical space, so modes
        # beyond the band pick up round-off but nothing more
        assert np.max(np.abs(coeffs[r > 10])) < 1e-14

    def test_seed_reproducibility(self, grid64):
        gen = FieldGenerator("multi_bump", seed=4, amplitude=0.5, width=0.9)
        a = gen.generate(grid64)
        b = gen.generate(grid64)
        assert np.array_equal(a.values, b.values)
        c = FieldGenerator("multi_bump", seed=5, amplitude=0.5, width=0.9).generate(grid64)
        assert not np.array_equal(a.values, c.values)

    def test_unresolvable_width_rejected(self, grid64):
        with pytest.raises(ValueError):
            FieldGenerator("gaussian_bump", seed=1, width=0.1).generate(grid64)

    def test_random_trig_width_above_side_length_rejected(self, grid64):
        # modes run up to L/width, so a wider field has none but the mean;
        # it used to be clamped silently to the field of width L
        L = grid64.side_length
        FieldGenerator("random_trig", seed=1, width=L).generate(grid64)
        for width in (1.01 * L, 100.0):
            with pytest.raises(ValueError, match="^width"):
                FieldGenerator("random_trig", seed=1, width=width).generate(grid64)

    @pytest.mark.parametrize("dim, n, length", [(1, 64, 2 * np.pi), (2, 16, 2 * np.pi),
                                                (3, 32, 1.0), (1, 128, 10.0), (1, 8, 3.0)])
    def test_random_trig_width_below_cutoff_rejected(self, dim, n, length):
        # modes run up to L/width, so a narrower field than the band holds
        # used to be clamped silently to the field at the cutoff; the check
        # rejects exactly the widths with int(L / width) > cutoff, and the
        # message names the least admitted one
        grid = Grid(dim, n, length)
        c = grid.dealias_cutoff
        with pytest.raises(ValueError, match=r"^width .*least admitted width") as exc:
            FieldGenerator("random_trig", seed=1, width=length / 1000).check(grid)
        least = float(str(exc.value).rsplit(" ", 1)[1].rstrip(")"))
        assert int(length / least) == c
        FieldGenerator("random_trig", seed=1, width=least).generate(grid)
        with pytest.raises(ValueError, match="^width"):
            FieldGenerator("random_trig", seed=1, width=math.nextafter(least, 0.0)).check(grid)

    def test_unknown_kind_rejected(self, grid64):
        with pytest.raises(ValueError):
            FieldGenerator("perlin", seed=1).generate(grid64)


class TestRecord:
    def test_first_record_quotient_zero(self, grid64):
        f = random_field(grid64, seed=8)
        cfg = RecorderConfig(alpha=2.1, partition=DyadicPartition(grid64), coefficient_scale=1.0)
        r = record(f, 0.0, 0.0, cfg, None)
        assert r.c_meas == 0.0
        assert r.l2 == pytest.approx(lp_norm(f, 2))
        assert r.mass == pytest.approx(float(np.mean(f.values)) * grid64.volume)

    def test_quotient_formula(self, grid64):
        cfg = RecorderConfig(alpha=2.1, partition=DyadicPartition(grid64), coefficient_scale=2.0)
        a = random_field(grid64, seed=9)
        b = RealField(grid64, a.values * 1.5)
        r0 = record(a, 0.0, 0.0, cfg, None)
        r1 = record(b, 0.1, 0.1, cfg, r0)
        expected = math.log(sobolev_norm(b, 2.1) / sobolev_norm(a, 2.1)) / (0.1 * 2.0)
        assert r1.c_meas == pytest.approx(expected, rel=1e-12)

    def test_partition_of_another_grid_rejected(self, grid64):
        f = random_field(grid64, seed=10)
        band = _start_band(f, 2.1)
        for other in (Grid(1, 32, 2 * np.pi), Grid(1, 64, np.pi)):
            partition = DyadicPartition(other)
            cfg = RecorderConfig(alpha=2.1, partition=partition, coefficient_scale=1.0)
            with pytest.raises(GridMismatch):
                record(f, 0.0, 0.0, cfg)
            with pytest.raises(GridMismatch):
                record(f, 0.0, 0.0, cfg, None, band)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DiagnosticsRecord(
                t=0.0, dt=0.0, l2=np.nan, h_alpha=1.0, besov_alpha=1.0,
                min_u=0.0, mass=1.0, c_meas=0.0,
            )


class TestPropertySuite:
    def test_small_run_all_pass(self, grid64):
        rows, ok = run_property_suite(grid64, seed=0, count=5)
        assert ok
        assert all(r[3] for r in rows)
        names = {r[0] for r in rows}
        assert any(n.startswith("cordoba") for n in names)
        assert any(n.startswith("pointwise") for n in names)
        assert any("mollifier" in n for n in names)
        assert any("commutator" in n for n in names)

    def test_rows_compose_across_counts(self, grid64):
        rows_small, _ = run_property_suite(grid64, seed=0, count=4)
        rows_large, _ = run_property_suite(grid64, seed=0, count=8)
        for row in rows_small:
            assert row in rows_large
