"""Pointwise inequality checks, commutator probes, trajectory records.

Tolerances scale with the field magnitude.  The inequality checks require
band-limited inputs: aliasing is the one discrete effect that can fake a
violation, so test fields keep their nonlinearities below the 2/3 cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, InvalidExponent, UnsupportedExponent
from .fracops import MollifierKernel, frac_laplacian, gradient, mollify
from .grid import (
    Grid, RealField, apply_symbols, band_symbols, half_spectrum_symbols, require_same_grid
)
from .norms import (
    DyadicPartition, _besov_of_band, _norm_of_rfft, _start_band, homogeneous_seminorm, lp_norm
)
# Records call neither; bench/tracer.py wraps both names at this module
# (ROADMAP item 1 retargets it).
from .norms import besov_norm, sobolev_norm  # noqa: F401

__all__ = [
    "DiagnosticsRecord",
    "RecorderConfig",
    "record",
    "growth_quotient",
    "FieldGenerator",
    "InequalityReport",
    "check_cordoba",
    "check_pointwise_lp",
    "check_commutator",
    "run_property_suite",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    dt: float
    l2: float
    h_alpha: float
    besov_alpha: float
    min_u: float
    mass: float
    c_meas: float

    def __post_init__(self):
        for name in ("t", "dt", "l2", "h_alpha", "besov_alpha", "min_u", "mass", "c_meas"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite diagnostics entry {name}")


@dataclass(frozen=True, eq=False)
class RecorderConfig:
    """What a trajectory record measures.

    coefficient_scale is the sup of the H^alpha norm of the frozen
    coefficient over the run; it normalizes the instantaneous Gronwall
    quotient c_meas.  weight, set here once, is the read-only H^alpha
    weight of band coefficients on the partition's grid.
    """

    alpha: float
    partition: DyadicPartition
    coefficient_scale: float

    def __post_init__(self):
        g = self.partition.grid
        weight = half_spectrum_symbols(g, self.alpha).sobolev[g.band]
        weight.setflags(write=False)
        object.__setattr__(self, "weight", weight)


def growth_quotient(h0: float, h1: float, dt: float, scale: float) -> float:
    """Finite-difference Gronwall quotient log(h1/h0) / (dt * scale) of a
    norm going from h0 to h1 over dt; zero when any argument is not
    positive."""
    if h0 > 0 and h1 > 0 and dt > 0 and scale > 0:
        return math.log(h1 / h0) / (dt * scale)
    return 0.0


def record(
    u: RealField,
    t: float,
    dt: float,
    config: RecorderConfig,
    prev: DiagnosticsRecord | None = None,
    band: tuple[np.ndarray, float] | None = None,
) -> DiagnosticsRecord:
    """Measure one trajectory sample.

    band is (F, tail) as a solver holds it: F the band of u's unnormalized
    rfftn and tail the H^alpha weighted power of u's coefficients off the
    band (see norms._start_band).  Without it one rfftn of u makes both.
    h_alpha and besov_alpha are read from F and tail, so a record with band
    makes no forward transform, and one band inverse per Littlewood-Paley
    block.  c_meas is the growth_quotient of the H^alpha norm since prev,
    zero for the first record.  Raises GridMismatch when config.partition
    is on another grid than u.
    """
    g = u.grid
    F, tail = _start_band(u, config.alpha) if band is None else band
    besov = _besov_of_band(g, F, config.alpha, config.partition)
    h = _norm_of_rfft(g, F, config.weight, tail)
    c_meas = 0.0
    if prev is not None:
        c_meas = growth_quotient(prev.h_alpha, h, t - prev.t, config.coefficient_scale)
    return DiagnosticsRecord(
        t=float(t),
        dt=float(dt),
        l2=lp_norm(u, 2),
        h_alpha=h,
        besov_alpha=besov,
        min_u=float(np.min(u.values)),
        mass=float(np.mean(u.values) * g.volume),
        c_meas=c_meas,
    )


# ---------------------------------------------------------------------------
# test field generation


@dataclass(frozen=True)
class FieldGenerator:
    """Reproducible band-limited test fields.

    kind is one of KINDS.
    width is a physical length: for bumps the Gaussian radius, for
    random_trig the shortest admitted wavelength (modes up to L/width).
    Bump kinds and constants with amplitude >= 0 are pointwise nonnegative.
    """

    kind: str
    seed: int = 0
    amplitude: float = 1.0
    width: float = 1.0

    KINDS = ("gaussian_bump", "multi_bump", "random_trig", "constant")

    def check(self, grid: Grid) -> None:
        """Raise ValueError for an unknown kind, a negative seed, or a bump
        too narrow to be band-limited on grid."""
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.kind not in ("gaussian_bump", "multi_bump"):
            return
        w_min = 11.4 * grid.side_length / (2.0 * np.pi * grid.dealias_cutoff)
        if self.width < w_min:
            raise ValueError(
                f"width {self.width} too narrow to stay band-limited on this grid "
                f"(needs >= {w_min:.4g})"
            )

    def generate(self, grid: Grid) -> RealField:
        self.check(grid)
        if self.kind == "constant":
            return RealField(grid, np.full(grid.shape, self.amplitude))
        if self.kind == "gaussian_bump":
            return self._bump_sum(grid, [(0.5, 1.0, self.amplitude)])
        if self.kind == "multi_bump":
            rng = np.random.default_rng(self.seed)
            n_bumps = int(rng.integers(2, 4))
            spots = [
                (float(rng.uniform()), float(1.0 + 0.4 * rng.uniform()),
                 float(self.amplitude * (0.5 + 0.5 * rng.uniform())))
                for _ in range(n_bumps)
            ]
            return self._bump_sum(grid, spots)
        return self._random_trig(grid)

    def _bump_sum(self, grid: Grid, spots) -> RealField:
        L = grid.side_length
        x = np.arange(grid.n_points) * grid.spacing
        total = np.zeros(grid.shape)
        for frac, w_fac, amp in spots:
            w = self.width * w_fac
            prof = np.zeros(grid.n_points)
            for m in (-1, 0, 1):
                d = x - frac * L + m * L
                prof += np.exp(-(d / w) ** 2)
            field = prof
            for _ in range(grid.dim - 1):
                field = np.multiply.outer(field, prof)
            total += amp * field
        return RealField(grid, total)

    def _random_trig(self, grid: Grid) -> RealField:
        rng = np.random.default_rng(self.seed)
        noise = rng.standard_normal(grid.shape)
        # k_max <= dealias_cutoff, so the spectrum is zero off the band
        r = band_symbols(grid, 1.0).radial / (2.0 * np.pi / grid.side_length)
        k_max = max(1, min(grid.dealias_cutoff, int(grid.side_length / self.width)))
        B = grid.band_forward(noise) * ((r <= k_max) / (1.0 + r))
        f = RealField(grid, grid.band_inverse(B))
        peak = float(np.max(np.abs(f.values)))
        if peak == 0.0:
            return f
        return RealField(grid, f.values * (self.amplitude / peak))


# ---------------------------------------------------------------------------
# pointwise inequalities


@dataclass(frozen=True)
class InequalityReport:
    min_gap: float
    tol: float
    passed: bool


def _gap_field(f: RealField, sigma: float, p: int) -> RealField:
    lam_f = frac_laplacian(f, sigma)
    power = f.values ** (p - 1)
    first = p * power * lam_f.values
    g = f.grid
    B = g.band_forward(f.values**p)
    # sigma = 0 is the identity: keep the zero mode, which radial drops
    if sigma != 0:
        B *= band_symbols(g, sigma).radial
    return RealField(g, first - g.band_inverse(B))


def check_cordoba(f: RealField, s: float) -> InequalityReport:
    """Pointwise gap 2 f Lambda^s f - Lambda^s(f^2) >= 0, 0 <= s <= 2.

    f must be band-limited so that f^2 survives dealiasing unchanged.
    """
    return check_pointwise_lp(f, s, 2)


def check_pointwise_lp(f: RealField, sigma: float, p: int) -> InequalityReport:
    """L^p variant: p f^(p-1) Lambda^sigma f - Lambda^sigma(f^p) >= 0, p in {2, 4}."""
    if p not in (2, 4):
        raise UnsupportedExponent(f"only even p in {{2, 4}} supported, got {p}")
    if not (0.0 <= sigma <= 2.0):
        raise InvalidExponent(f"pointwise check needs sigma in [0, 2], got {sigma}")
    gap = _gap_field(f, sigma, p)
    min_gap = float(np.min(gap.values))
    tol = 1e-9 * (1.0 + lp_norm(f, np.inf) ** 2)
    return InequalityReport(min_gap=min_gap, tol=tol, passed=min_gap >= -tol)


def check_commutator(f: RealField, g: RealField, alpha: float) -> float:
    """Ratio of the commutator norm to its product-rule bound.

    numerator:   || Lambda^alpha(f g) - f Lambda^alpha g ||_L2
    denominator: ||grad f||_inf ||g||_{H'^(alpha-1)} + ||f||_{H'^alpha} ||g||_inf
    """
    if not (alpha > 0):
        raise InvalidExponent(f"commutator check needs alpha > 0, got {alpha}")
    require_same_grid(f, g)
    grid = f.grid
    lam_prod = grid.band_inverse(
        band_symbols(grid, alpha).radial * grid.band_forward(f.values * g.values)
    )
    lam_g = next(apply_symbols(g, half_spectrum_symbols(grid, alpha).radial))
    diff = RealField(grid, lam_prod - f.values * lam_g.values)
    numerator = lp_norm(diff, 2)

    grad_f_inf = float(np.sqrt(np.max(sum(c.values**2 for c in gradient(f)))))
    denominator = grad_f_inf * homogeneous_seminorm(g, alpha - 1.0) + (
        homogeneous_seminorm(f, alpha) * lp_norm(g, np.inf)
    )
    if denominator < 1e-14:
        raise DegenerateDenominator(
            f"commutator bound denominator {denominator:.3e} below 1e-14"
        )
    return numerator / denominator


# ---------------------------------------------------------------------------
# batch suite (used by the properties CLI mode)


def run_property_suite(grid: Grid, seed: int = 0, count: int = 100):
    """Run the inequality and operator checks over generated field suites.

    Returns (rows, all_passed) where each row is
    (check name, field seed, statistic, passed).
    """
    L = grid.side_length
    rows = []

    def trig(seed_i: int, k_limit: int) -> RealField:
        width = L / max(1, k_limit)
        gen = FieldGenerator("random_trig", seed=seed_i, amplitude=1.0, width=width)
        return gen.generate(grid)

    k_half = max(1, grid.dealias_cutoff // 2)
    k_quarter = max(1, grid.dealias_cutoff // 4)

    for s in (0.5, 0.8, 1.2, 2.0):
        for i in range(count):
            rep = check_cordoba(trig(seed + i, k_half), s)
            rows.append((f"cordoba_s{s}", seed + i, rep.min_gap, rep.passed))

    for sigma in (0.6, 1.0):
        for p in (2, 4):
            for i in range(count):
                rep = check_pointwise_lp(trig(seed + 1000 + i, k_quarter), sigma, p)
                rows.append(
                    (f"pointwise_p{p}_sigma{sigma}", seed + 1000 + i, rep.min_gap, rep.passed)
                )

    eps = max(0.05 * L, 2.5 * grid.spacing)
    kernel = MollifierKernel(grid, eps)
    n_operator = max(4, count // 4)

    for i in range(n_operator):
        f = trig(seed + 2000 + i, k_half)
        lam_moll = frac_laplacian(mollify(f, kernel), 0.7)
        moll_lam = mollify(frac_laplacian(f, 0.7), kernel)
        scale = 1.0 + lp_norm(lam_moll, np.inf)
        resid = float(np.max(np.abs(lam_moll.values - moll_lam.values))) / scale
        rows.append(("mollifier_commute", seed + 2000 + i, resid, resid <= 1e-11))

    for i in range(n_operator):
        f = trig(seed + 3000 + i, k_quarter)
        g = trig(seed + 4000 + i, k_quarter)
        ratio = check_commutator(f, g, 2.1)
        rows.append(("commutator_alpha2.1", seed + 3000 + i, ratio, math.isfinite(ratio)))

    return rows, all(r[3] for r in rows)
