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
    if not (alpha >= 0):
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
    if math.isnan(alpha):
        raise ValueError(f"alpha must be a number, got {alpha}")
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
    cutoff K, or None when that box is the whole band.  The multipliers are
    the read-only rows of one stack, whose Parseval bounds _besov_of_band
    reduces in one pass; the stack and the crops are built once per grid and
    shared by every partition on it.
    """

    grid: Grid

    def __post_init__(self):
        js, stack, rows, crops = _dyadic_multipliers(self.grid)
        object.__setattr__(self, "indices", js)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "multipliers", rows)
        object.__setattr__(self, "crops", crops)


def _block_indices(g: Grid) -> range:
    """The partition's block indices, -1 up to the least j with 2**j at or
    past the band's corner, cutoff * sqrt(dim) fundamentals."""
    return range(-1, math.ceil(math.log2(g.dealias_cutoff * math.sqrt(g.dim))) + 1)


@lru_cache(maxsize=8)
def _dyadic_multipliers(
    g: Grid,
) -> tuple[tuple[int, ...], np.ndarray, tuple[np.ndarray, ...], tuple[tuple | None, ...]]:
    r = band_symbols(g, 1.0).radial / (2.0 * np.pi / g.side_length)
    js = _block_indices(g)
    stack = np.stack(
        [_chi(2.0 * r)] + [_chi(r / 2.0**j) - _chi(r / 2.0 ** (j - 1)) for j in js[1:]]
    )
    stack.setflags(write=False)
    # largest |k_i| of each band mode
    k_inf = reduce(np.maximum, (np.abs(g.k_signed[ix]) for ix in g.band))
    crops = tuple(_crop(g, int(np.max(k_inf[m != 0], initial=0))) for m in stack)
    return tuple(js), stack, tuple(stack), crops


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
    """The band of u's unnormalized rfftn, in the band layout, and the
    H^alpha weighted power of its coefficients off the band, which every
    state marched from u keeps: one band forward makes the first, one
    rfftn the second."""
    g = u.grid
    c = np.fft.rfftn(u.values, axes=g.fft_axes)
    off_band = half_spectrum_symbols(g, alpha).sobolev * (c.real**2 + c.imag**2)
    off_band[g.band] = 0.0
    return g.band_forward(u.values), float(np.sum(off_band))


# Relative widening of each block's Parseval bound before it is compared
# with the sup: the computed L1 norm of a block can exceed its bound by a few
# ulp of FFT and summation roundoff (2 ulp seen on a constant block).
_BOUND_MARGIN = 1e-6


def _besov_of_band(g: Grid, F: np.ndarray, alpha: float, partition: DyadicPartition) -> float:
    """B^alpha_{1,inf} norm of the field whose band coefficients are F.

    Block j's weighted L1 norm is at most its Parseval bound
    2**(j alpha) * volume * sqrt(power_j) / size, with power_j the sum of
    fold * m_j**2 * |F|**2 over the band (Cauchy-Schwarz over the lattice,
    then discrete Parseval), made for all blocks by one einsum over the
    multiplier stack.  The blocks are inverted in decreasing order of bound,
    each over its crop alone and reduced as it is made, so one is held at a
    time, and the loop stops at the first block whose bound,
    widened by _BOUND_MARGIN, is below the sup so far: no block left can
    reach it, so the sup is the max over all blocks bit for bit.  Each L1
    norm is the plain sum lp_norm(., 1) computes.
    """
    if partition.grid != g:
        raise GridMismatch(f"partition grid {partition.grid} does not match field grid {g}")
    cell = g.spacing**g.dim
    power = band_symbols(g, alpha).fold * (F.real**2 + F.imag**2)
    ms = partition._stack.reshape(len(partition.indices), -1)
    powers = np.einsum("jk,jk,k->j", ms, ms, power.reshape(-1))
    bounds = [
        2.0 ** (j * alpha) * g.volume * math.sqrt(p) / g.size
        for j, p in zip(partition.indices, powers)
    ]
    sup = 0.0
    for i in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if bounds[i] * (1.0 + _BOUND_MARGIN) < sup:
            break
        m, crop = partition.multipliers[i], partition.crops[i]
        block = g.band_inverse(m * F if crop is None else m[crop] * F[crop])
        weight = 2.0 ** (partition.indices[i] * alpha)
        sup = max(sup, weight * float(np.abs(block, out=block).sum() * cell))
    return sup


def besov_norm(f: RealField, alpha: float, partition: DyadicPartition) -> float:
    """B^alpha_{1,inf} norm: sup_j 2**(j alpha) * L1 norm of block j, from
    one band transform of f (_besov_of_band).  Raises GridMismatch when
    partition is on another grid, ValueError when alpha is NaN.
    """
    if math.isnan(alpha):
        raise ValueError(f"alpha must be a number, got {alpha}")
    return _besov_of_band(f.grid, f.grid.band_forward(f.values), alpha, partition)
