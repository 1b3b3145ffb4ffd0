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
    lp_norm,
    run_property_suite,
    sobolev_norm,
)
from fpme import diagnostics
from fpme import grid as grid_module
from fpme.diagnostics import RecorderConfig, record
from fpme.fracops import MollifierKernel, frac_laplacian, mollify
from fpme.grid import band_symbols, forward_transform
from fpme.norms import _start_band

from conftest import random_field
from helpers import (
    check_cordoba, check_pointwise_lp, half_columns, radial_symbol_oracle, resample
)


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

    def test_fields_on_different_grids_rejected(self, grid64):
        f = random_field(grid64, 0, k_max=8)
        g = random_field(Grid(1, 32, 2 * np.pi), 0, k_max=8)
        with pytest.raises(GridMismatch):
            check_commutator(f, g, 2.1)

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

    @pytest.mark.parametrize(
        "seed, count, name",
        [(-1, 5, "seed"), (1.5, 5, "seed"), (0, 0, "count"), (0, -3, "count"), (0, 2.5, "count")],
    )
    def test_bad_seed_or_count_rejected(self, grid64, seed, count, name):
        # count 0 or -3 used to return the operator rows alone and pass;
        # seed -1 failed inside numpy's generator, 1.5 and 2.5 in range()
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= "):
            run_property_suite(grid64, seed=seed, count=count)

    def test_rows_compose_across_counts(self, grid64):
        rows_small, _ = run_property_suite(grid64, seed=0, count=4)
        rows_large, _ = run_property_suite(grid64, seed=0, count=8)
        for row in rows_small:
            assert row in rows_large


# The suite's rows as the checks make them one field at a time: each
# random_trig field made alone, each gap over the public operators.


def field_alone(grid, seed, k_max):
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    r = band_symbols(grid, 1.0).radial / (2.0 * np.pi / grid.side_length)
    f = RealField(grid, grid.band_inverse(grid.band_forward(noise) * ((r <= k_max) / (1.0 + r))))
    peak = float(np.max(np.abs(f.values)))
    return f if peak == 0.0 else RealField(grid, f.values * (1.0 / peak))


def gap_alone(f, sigma, p):
    g = f.grid
    first = p * f.values ** (p - 1) * frac_laplacian(f, sigma).values
    B = g.band_forward(f.values**p)
    if sigma != 0:
        B *= band_symbols(g, sigma).radial
    min_gap = float(np.min(first - g.band_inverse(B)))
    return min_gap, min_gap >= -1e-9 * (1.0 + lp_norm(f, np.inf) ** 2)


def suite_alone(grid, seed, count):
    half = max(1, grid.dealias_cutoff // 2)
    quarter = max(1, grid.dealias_cutoff // 4)
    rows = []
    for s in (0.5, 0.8, 1.2, 2.0):
        for i in range(count):
            f = field_alone(grid, seed + i, half)
            rows.append((f"cordoba_s{s}", seed + i, *gap_alone(f, s, 2)))
    for sigma in (0.6, 1.0):
        for p in (2, 4):
            for i in range(count):
                f = field_alone(grid, seed + 1000 + i, quarter)
                name = f"pointwise_p{p}_sigma{sigma}"
                rows.append((name, seed + 1000 + i, *gap_alone(f, sigma, p)))
    kernel = MollifierKernel(grid, max(0.05 * grid.side_length, 2.5 * grid.spacing))
    n_operator = max(4, count // 4)
    for i in range(n_operator):
        f = field_alone(grid, seed + 2000 + i, half)
        lam_moll = frac_laplacian(mollify(f, kernel), 0.7)
        moll_lam = mollify(frac_laplacian(f, 0.7), kernel)
        resid = float(np.max(np.abs(lam_moll.values - moll_lam.values)))
        resid /= 1.0 + lp_norm(lam_moll, np.inf)
        rows.append(("mollifier_commute", seed + 2000 + i, resid, resid <= 1e-11))
    for i in range(n_operator):
        f = field_alone(grid, seed + 3000 + i, quarter)
        g = field_alone(grid, seed + 4000 + i, quarter)
        ratio = check_commutator(f, g, 2.1)
        rows.append(("commutator_alpha2.1", seed + 3000 + i, ratio, math.isfinite(ratio)))
    return rows


class TestStackedSuite:
    # 3-D n = 64 stacks as 3-D n = 32 does, one field per stack by default,
    # at four times the cost
    @pytest.mark.parametrize("dim, n", [(1, 16), (1, 32), (1, 64), (2, 16), (2, 32), (2, 64),
                                        (3, 16), (3, 32)])
    def test_rows_equal_the_checks_of_each_field_alone(self, dim, n, monkeypatch):
        # budgets of one field per stack, the default, and every field at once
        grid = Grid(dim, n, 2 * np.pi)
        count = 3 if dim < 3 else 2
        expected = suite_alone(grid, 5, count)
        for stack_bytes in (0, grid_module._STACK_BYTES, 1 << 30):
            monkeypatch.setattr(grid_module, "_STACK_BYTES", stack_bytes)
            rows, ok = run_property_suite(grid, seed=5, count=count)
            assert rows == expected
            assert ok == all(r[3] for r in expected)

    @pytest.mark.parametrize("grid, count, stack", [(Grid(1, 64, 2 * np.pi), 100, 100),
                                                    (Grid(3, 32, 2 * np.pi), 2, 1)])
    def test_fields_made_once_in_stacks_by_the_byte_budget(self, grid, count, stack, monkeypatch):
        # all the fields of a suite at 1-D n = 64, one per call at 3-D n = 32
        made, gaps = [], []
        make, gap = diagnostics._trig_fields, diagnostics._gap_field

        def made_fields(g, seeds, *args):
            values = make(g, seeds, *args)
            made.append(values.shape[0])
            return values

        def stacked_gap(g, values, *args):
            gaps.append(values.shape)
            return gap(g, values, *args)

        monkeypatch.setattr(diagnostics, "_trig_fields", made_fields)
        monkeypatch.setattr(diagnostics, "_gap_field", stacked_gap)
        rows, _ = run_property_suite(grid, seed=0, count=count)
        n_operator = max(4, count // 4)
        assert len(rows) == 8 * count + 2 * n_operator
        # each field of each suite is made once
        assert sum(made) == 2 * count + 3 * n_operator
        assert max(made) == stack
        # each Cordoba s and L^p (sigma, p) checks each stack once
        assert gaps == [(stack, *grid.shape)] * (8 * count // stack)

    def test_suite_passes_mode_counts_not_widths(self, monkeypatch):
        # at L = 3 the width L / 341 admits int(L / width) = 340 modes; the
        # Cordoba fields keep every mode up to k_half = 341 and none above
        grid = Grid(1, 2048, 3.0)
        k_half = grid.dealias_cutoff // 2
        assert k_half == 341 and int(3.0 / (3.0 / k_half)) == 340
        made = []
        make = diagnostics._trig_fields

        def made_fields(g, seeds, *args):
            made.append((list(seeds), make(g, seeds, *args)))
            return made[-1][1]

        monkeypatch.setattr(diagnostics, "_trig_fields", made_fields)
        run_property_suite(grid, seed=0, count=2)
        seeds, cordoba = made[0]
        assert seeds == [0, 1]
        power = np.abs(np.fft.rfft(cordoba, axis=-1)) ** 2
        peak = power.max(axis=-1)
        assert np.all(power[:, k_half] > 1e-8 * peak)
        assert np.all(power[:, k_half + 1 :].max(axis=-1) < 1e-24 * peak)

    def test_stack_reports_are_each_fields_own(self, grid64):
        # fields of different peaks: each tol follows its own field's max|f|
        values = diagnostics._trig_fields(grid64, [1, 2, 3], 10) * np.array([[0.5], [1.0], [3.0]])
        reports = diagnostics._gap_reports(grid64, values, 0.8, 4)
        assert reports == [check_pointwise_lp(RealField(grid64, v), 0.8, 4) for v in values]
        assert len({r.tol for r in reports}) == 3

    def test_generator_field_is_its_stack_row(self, grid2d):
        width = grid2d.side_length / 5
        values = diagnostics._trig_fields(grid2d, [7, 8, 9], 5, 0.5)
        for i, seed in enumerate((7, 8, 9)):
            f = FieldGenerator("random_trig", seed=seed, amplitude=0.5, width=width)
            assert np.array_equal(f.generate(grid2d).values, values[i])
