"""Pointwise inequality checks, commutator probes, trajectory records.

Tolerances scale with the field magnitude.  The inequality checks require
band-limited inputs: aliasing is the one discrete effect that can fake a
violation, so test fields keep their nonlinearities below the 2/3 cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, GridMismatch, InvalidExponent, UnsupportedExponent
from .fracops import MollifierKernel, frac_laplacian, gradient, mollify
from .grid import (
    Grid,
    RealField,
    _check_integer,
    _fields_per_stack,
    _multiply_symbols,
    apply_symbols,
    band_symbols,
    half_spectrum_symbols,
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
    quotient c_meas.  The H^alpha weight of band coefficients is the cached
    band_symbols(grid, alpha).sobolev, the table Picard's norms read.
    """

    alpha: float
    partition: DyadicPartition
    coefficient_scale: float


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
    band (see norms._start_band).  Without it one rfftn and one band
    forward of u make them.
    h_alpha and besov_alpha are read from F and tail, so a record with band
    makes no forward transform, and one band inverse per Littlewood-Paley
    block whose Parseval bound can reach the Besov sup (see
    norms._besov_of_band).  c_meas is the growth_quotient of the H^alpha
    norm since prev, zero for the first record.  Raises GridMismatch when
    config.partition is on another grid than u.
    """
    g = u.grid
    F, tail = _start_band(u, config.alpha) if band is None else band
    besov = _besov_of_band(g, F, config.alpha, config.partition)
    h = _norm_of_rfft(g, F, band_symbols(g, config.alpha).sobolev, tail)
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
        """Raise ValueError for an unknown kind, a seed that is not an
        integer >= 0, a width that is not finite and positive, a random_trig
        width above the side length, where no mode but the mean fits, or so
        narrow that its modes up to L/width pass the band's cutoff, or a
        bump too narrow to be band-limited on grid."""
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        _check_integer("seed", self.seed, 0)
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"width must be finite and positive, got {self.width}")
        if self.kind == "random_trig" and self.width > grid.side_length:
            raise ValueError(
                f"width {self.width} exceeds the side length {grid.side_length:.4g}"
            )
        if self.kind == "random_trig" and int(grid.side_length / self.width) > grid.dealias_cutoff:
            raise ValueError(
                f"width {self.width} admits modes above the cutoff {grid.dealias_cutoff} "
                f"of this grid (least admitted width {_least_trig_width(grid)!r})"
            )
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
        """The one field of _trig_fields at this seed, with the modes up to
        L/width; check keeps that count within [1, dealias_cutoff]."""
        k_max = int(grid.side_length / self.width)
        return RealField(grid, _trig_fields(grid, [self.seed], k_max, self.amplitude)[0])


def _trig_fields(grid: Grid, seeds, k_max: int, amplitude: float = 1.0) -> np.ndarray:
    """random_trig fields on grid, one per seed, stacked on a leading axis:
    the seed's white noise kept on |k| <= k_max, a mode count in
    [1, dealias_cutoff], weighted 1 / (1 + |k|) and scaled by
    amplitude / max|f|; a field with no power left stays zero.  A stack
    equals its fields made one at a time bit for bit."""
    noise = np.stack([np.random.default_rng(seed).standard_normal(grid.shape) for seed in seeds])
    r = band_symbols(grid, 1.0).radial / (2.0 * np.pi / grid.side_length)
    values = grid.band_inverse(grid.band_forward(noise) * ((r <= k_max) / (1.0 + r)))
    peak = np.max(np.abs(values), axis=grid.fft_axes, keepdims=True)
    values *= np.divide(amplitude, peak, out=np.ones_like(peak), where=peak != 0.0)
    return values


def _least_trig_width(grid: Grid) -> float:
    """The least float width whose random_trig modes, up to L/width, stay
    within the band's cutoff."""
    L, c = grid.side_length, grid.dealias_cutoff
    w = L / (c + 1)
    while int(L / w) <= c:
        w = math.nextafter(w, 0.0)
    while int(L / w) > c:
        w = math.nextafter(w, math.inf)
    return w


# pointwise inequalities


@dataclass(frozen=True)
class InequalityReport:
    min_gap: float
    tol: float
    passed: bool


def _gap_field(g: Grid, values: np.ndarray, sigma: float, p: int) -> np.ndarray:
    """p f^(p-1) Lambda^sigma f - Lambda^sigma(f^p) for each field f of
    values, which may carry leading stack axes; f^p is dealiased on the
    band.  A stack equals its fields computed one at a time bit for bit."""
    lam_f = values
    B = g.band_forward(values**p)
    # sigma = 0 is the identity: keep the zero mode, which radial drops
    if sigma != 0:
        lam_f = _multiply_symbols(g, values, half_spectrum_symbols(g, sigma).radial)[0]
        B *= band_symbols(g, sigma).radial
    return p * values ** (p - 1) * lam_f - g.band_inverse(B)


def _gap_reports(g: Grid, values: np.ndarray, sigma: float, p: int) -> list[InequalityReport]:
    """The pointwise L^p gap p f^(p-1) Lambda^sigma f - Lambda^sigma(f^p) >= 0,
    p in {2, 4}, of each field f of the stack values, shape (k, *g.shape),
    from one stacked gap: min_gap is the gap's min and tol
    1e-9 * (1 + max|f|^2)."""
    if p not in (2, 4):
        raise UnsupportedExponent(f"only even p in {{2, 4}} supported, got {p}")
    if not (0.0 <= sigma <= 2.0):
        raise InvalidExponent(f"pointwise check needs sigma in [0, 2], got {sigma}")
    mins = np.min(_gap_field(g, values, sigma, p), axis=g.fft_axes).tolist()
    peaks = np.max(np.abs(values), axis=g.fft_axes).tolist()
    reports = []
    for min_gap, peak in zip(mins, peaks):
        tol = 1e-9 * (1.0 + peak**2)
        reports.append(InequalityReport(min_gap=min_gap, tol=tol, passed=min_gap >= -tol))
    return reports


def check_commutator(f: RealField, g: RealField, alpha: float) -> float:
    """Ratio of the commutator norm to its product-rule bound.

    numerator:   || Lambda^alpha(f g) - f Lambda^alpha g ||_L2
    denominator: ||grad f||_inf ||g||_{H'^(alpha-1)} + ||f||_{H'^alpha} ||g||_inf
    """
    if not (alpha > 0):
        raise InvalidExponent(f"commutator check needs alpha > 0, got {alpha}")
    grid = f.grid
    if g.grid != grid:
        raise GridMismatch(f"fields live on different grids: {g.grid} vs {grid}")
    lam_prod = grid.band_inverse(
        band_symbols(grid, alpha).radial * grid.band_forward(f.values * g.values)
    )
    lam_g = apply_symbols(g, half_spectrum_symbols(grid, alpha).radial)[0]
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


# batch suite (used by the properties CLI mode)


# the exponent of the suite's commutator check, whose norm weights the
# properties mode checks before any output
_COMMUTATOR_ALPHA = 2.1


def _check_suite(seed: int, count: int, prefix: str = "") -> None:
    """The property suite's argument rules; prefix qualifies the names."""
    _check_integer(f"{prefix}seed", seed, 0)
    _check_integer(f"{prefix}count", count, 1)


def run_property_suite(grid: Grid, seed: int = 0, count: int = 100):
    """Run the inequality and operator checks over generated field suites.

    Each random_trig field is generated once, in stacks of as many fields
    as grid._STACK_BYTES holds (a whole suite at 1-D n = 64, one field from
    3-D n = 32 on).  Each Cordoba s and L^p (sigma, p) checks a stack with
    one stacked gap; the operator checks take its fields one at a time.
    Every row equals the check of its field alone bit for bit.

    Returns (rows, all_passed) where each row is
    (check name, field seed, statistic, passed).  Raises ValueError, before
    any work, unless seed is an integer >= 0 and count one >= 1.
    """
    _check_suite(seed, count)
    L = grid.side_length
    k_half = max(1, grid.dealias_cutoff // 2)
    k_quarter = max(1, grid.dealias_cutoff // 4)
    per_stack = _fields_per_stack(grid)

    def chunks(first: int, n: int):
        for lo in range(first, first + n, per_stack):
            yield range(lo, min(lo + per_stack, first + n))

    def fields(first: int, n: int, k_max: int):
        # a stack is dropped once its fields are made
        for seeds in chunks(first, n):
            yield from [RealField(grid, v) for v in _trig_fields(grid, seeds, k_max)]

    def suite_reports(first: int, k_max: int, checks) -> list[list[InequalityReport]]:
        # each check's reports over the suite; the last stack dies on return
        reports = [[] for _ in checks]
        for seeds in chunks(first, count):
            values = _trig_fields(grid, seeds, k_max)
            for out, (_, sigma, p) in zip(reports, checks):
                out += _gap_reports(grid, values, sigma, p)
        return reports

    gap_suites = (
        (seed, k_half, [(f"cordoba_s{s}", s, 2) for s in (0.5, 0.8, 1.2, 2.0)]),
        (seed + 1000, k_quarter, [
            (f"pointwise_p{p}_sigma{sigma}", sigma, p) for sigma in (0.6, 1.0) for p in (2, 4)
        ]),
    )
    rows = []
    for first, k_max, checks in gap_suites:
        for (name, _, _), reps in zip(checks, suite_reports(first, k_max, checks)):
            rows += [(name, first + i, rep.min_gap, rep.passed) for i, rep in enumerate(reps)]

    eps = max(0.05 * L, 2.5 * grid.spacing)
    kernel = MollifierKernel(grid, eps)
    n_operator = max(4, count // 4)

    for i, f in enumerate(fields(seed + 2000, n_operator, k_half)):
        lam_moll = frac_laplacian(mollify(f, kernel), 0.7)
        moll_lam = mollify(frac_laplacian(f, 0.7), kernel)
        scale = 1.0 + lp_norm(lam_moll, np.inf)
        resid = float(np.max(np.abs(lam_moll.values - moll_lam.values))) / scale
        rows.append(("mollifier_commute", seed + 2000 + i, resid, resid <= 1e-11))

    # not zip: its cached result tuple can keep the previous pair alive
    firsts = fields(seed + 3000, n_operator, k_quarter)
    seconds = fields(seed + 4000, n_operator, k_quarter)
    for i in range(n_operator):
        f, g = next(firsts), next(seconds)
        ratio = check_commutator(f, g, _COMMUTATOR_ALPHA)
        rows.append((f"commutator_alpha{_COMMUTATOR_ALPHA}", seed + 3000 + i, ratio,
                     math.isfinite(ratio)))

    return rows, all(r[3] for r in rows)
