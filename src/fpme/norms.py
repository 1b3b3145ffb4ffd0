"""Lebesgue, Sobolev and Besov norms on the lattice."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import GridMismatch
from .grid import Grid, RealField, band_symbols, half_spectrum_symbols

__all__ = [
    "lp_norm",
    "sobolev_norm",
    "homogeneous_seminorm",
    "DyadicPartition",
    "besov_norm",
]


def lp_norm(f: RealField, p: float) -> float:
    """Discrete L^p norm; p = inf gives max|f|."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if not (p >= 1):
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    g = f.grid
    return float((np.sum(np.abs(f.values) ** p) * g.spacing**g.dim) ** (1.0 / p))


def sobolev_norm(f: RealField, alpha: float) -> float:
    """Inhomogeneous H^alpha norm, Parseval-consistent with lp_norm(., 2)."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    g = f.grid
    weight = half_spectrum_symbols(g, alpha).sobolev
    return _norm_of_rfft(g, np.fft.rfftn(f.values, axes=g.fft_axes), weight)


def _norm_of_rfft(g: Grid, c: np.ndarray, weight: np.ndarray, tail: float = 0.0) -> float:
    """Norm of the field whose unnormalized rfftn is c, for a squared symbol
    times fold given as weight on c's modes; tail is the weighted sum over
    the modes c leaves out."""
    power = np.sum(weight * (c.real**2 + c.imag**2))
    return float(np.sqrt(g.volume * (tail + power))) / g.size


def homogeneous_seminorm(f: RealField, alpha: float) -> float:
    """Homogeneous seminorm |xi|^alpha on nonzero modes, any real alpha."""
    g = f.grid
    sym = half_spectrum_symbols(g, 2.0 * alpha)
    return _norm_of_rfft(g, np.fft.rfftn(f.values, axes=g.fft_axes), sym.radial * sym.fold)


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    neg = t < 1
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


def _chi(r: np.ndarray) -> np.ndarray:
    """Radial cutoff: 1 on [0, 1], 0 on [2, inf), smooth in between."""
    return _smooth_step(2.0 - r)


@dataclass(frozen=True, eq=False)
class DyadicPartition:
    """Littlewood-Paley partition of the retained frequency lattice.

    Block j lives on the annulus (2**(j-1), 2**(j+1)) in units of the
    fundamental wavenumber 2*pi/L; block -1 covers |xi| <= one fundamental.
    Multipliers live on the 2/3-rule band (see :mod:`fpme.grid`), which is
    the dealiasing cut, and the top index is chosen so the blocks sum to
    one on every retained mode.

    crops holds, per block, the index into the band of the smallest box
    |k_i| <= K outside which the multiplier is zero, in the band layout with
    cutoff K, or None when that box is the whole band.  The multipliers and
    crops are built once per grid and shared, read-only, by every partition
    on it.
    """

    grid: Grid

    def __post_init__(self):
        js, mults, crops = _dyadic_multipliers(self.grid)
        object.__setattr__(self, "j_min", -1)
        object.__setattr__(self, "j_max", js[-1])
        object.__setattr__(self, "indices", js)
        object.__setattr__(self, "multipliers", mults)
        object.__setattr__(self, "crops", crops)


@lru_cache(maxsize=8)
def _dyadic_multipliers(
    g: Grid,
) -> tuple[tuple[int, ...], tuple[np.ndarray, ...], tuple[tuple | None, ...]]:
    r = band_symbols(g, 1.0).radial / (2.0 * np.pi / g.side_length)
    r_top = g.dealias_cutoff * math.sqrt(g.dim)
    j_max = math.ceil(math.log2(r_top))
    mults = [_chi(2.0 * r)]
    js = [-1]
    for j in range(0, j_max + 1):
        mults.append(_chi(r / 2.0**j) - _chi(r / 2.0 ** (j - 1)))
        js.append(j)
    for m in mults:
        m.setflags(write=False)
    # largest |k_i| of each band mode
    k_inf = reduce(np.maximum, (np.abs(g.k_signed[ix]) for ix in g.band))
    crops = tuple(_crop(g, int(np.max(k_inf[m != 0], initial=0))) for m in mults)
    return tuple(js), tuple(mults), crops


def _crop(g: Grid, keep: int) -> tuple | None:
    """Index of the modes with |k| <= keep in a band array, None if that is
    the whole band."""
    c = g.dealias_cutoff
    if keep >= c:
        return None
    rows = np.r_[0 : keep + 1, 2 * c + 1 - keep : 2 * c + 1]
    rows.setflags(write=False)
    return (*np.ix_(*[rows] * (g.dim - 1)), slice(0, keep + 1))


def _start_band(u: RealField, alpha: float) -> tuple[np.ndarray, float]:
    """The band of u's unnormalized rfftn, and the H^alpha weighted power of
    its coefficients off the band, which every state marched from u keeps;
    one rfftn makes both."""
    g = u.grid
    c = np.fft.rfftn(u.values, axes=g.fft_axes)
    off_band = half_spectrum_symbols(g, alpha).sobolev * (c.real**2 + c.imag**2)
    off_band[g.band] = 0.0
    return c[g.band], float(np.sum(off_band))


def _besov_of_band(g: Grid, F: np.ndarray, alpha: float, partition: DyadicPartition) -> float:
    """B^alpha_{1,inf} norm of the field whose band coefficients are F.

    Each block is inverted over its crop alone, and the blocks are reduced
    as they are made, so one is held at a time; each L1 norm is the plain
    sum lp_norm(., 1) computes.
    """
    if partition.grid != g:
        raise GridMismatch(f"partition grid {partition.grid} does not match field grid {g}")
    cell = g.spacing**g.dim
    sup = 0.0
    for j, m, crop in zip(partition.indices, partition.multipliers, partition.crops):
        block = g.band_inverse(m * F if crop is None else m[crop] * F[crop])
        sup = max(sup, 2.0 ** (j * alpha) * float(np.abs(block, out=block).sum() * cell))
    return sup


def besov_norm(f: RealField, alpha: float, partition: DyadicPartition) -> float:
    """B^alpha_{1,inf} norm: sup_j 2**(j alpha) * L1 norm of block j.

    One band transform of f serves every block, and each block is inverted
    over its support only (see _besov_of_band).  Raises GridMismatch when
    partition is on another grid.
    """
    return _besov_of_band(f.grid, f.grid.band_forward(f.values), alpha, partition)
