"""Lebesgue, Sobolev and Besov norms on the lattice."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    RealField,
    SpectralField,
    forward_transform,
    half_spectrum_symbols,
    inverse_transform,
)

__all__ = [
    "lp_norm",
    "sobolev_norm",
    "homogeneous_seminorm",
    "DyadicPartition",
    "dyadic_blocks",
    "besov_norm",
]


def lp_norm(f: RealField, p: float) -> float:
    """Discrete L^p norm; p = inf gives max|f|."""
    if p == np.inf or p == math.inf:
        return float(np.max(np.abs(f.values)))
    if not (p >= 1):
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    g = f.grid
    return float((np.sum(np.abs(f.values) ** p) * g.spacing**g.dim) ** (1.0 / p))


def _half_power(f: RealField) -> np.ndarray:
    """|rfftn(f)|**2, the unnormalized half-spectrum power."""
    c = np.fft.rfftn(f.values, axes=f.grid.fft_axes)
    return c.real**2 + c.imag**2


def sobolev_norm(f: RealField, alpha: float) -> float:
    """Inhomogeneous H^alpha norm, Parseval-consistent with lp_norm(., 2)."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    g = f.grid
    weight = half_spectrum_symbols(g, alpha).sobolev
    return float(np.sqrt(g.volume * np.sum(weight * _half_power(f)))) / g.size


def homogeneous_seminorm(f: RealField, alpha: float) -> float:
    """Homogeneous seminorm |xi|^alpha on nonzero modes, any real alpha."""
    g = f.grid
    sym = half_spectrum_symbols(g, 2.0 * alpha)
    total = np.sum(sym.radial * sym.fold * _half_power(f))
    return float(np.sqrt(g.volume * total)) / g.size


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
    Multipliers are cut at the dealiasing mask, and the top index is chosen
    so the blocks sum to one on every retained mode.
    """

    grid: Grid

    def __post_init__(self):
        g = self.grid
        r = g.xi_magnitude / (2.0 * np.pi / g.side_length)
        r_top = g.dealias_cutoff * math.sqrt(g.dim)
        j_max = max(0, math.ceil(math.log2(r_top))) if r_top >= 1 else 0
        mask = g.dealias_mask
        mults = [_chi(2.0 * r) * mask]
        js = [-1]
        for j in range(0, j_max + 1):
            mults.append((_chi(r / 2.0**j) - _chi(r / 2.0 ** (j - 1))) * mask)
            js.append(j)
        for m in mults:
            m.setflags(write=False)
        object.__setattr__(self, "j_min", -1)
        object.__setattr__(self, "j_max", j_max)
        object.__setattr__(self, "indices", tuple(js))
        object.__setattr__(self, "multipliers", tuple(mults))


def dyadic_blocks(f: RealField, partition: DyadicPartition) -> list[RealField]:
    """Frequency-localized pieces of f; they sum to the dealiased field."""
    F = forward_transform(f)
    return [
        inverse_transform(SpectralField(f.grid, m * F.coeffs))
        for m in partition.multipliers
    ]


def besov_norm(f: RealField, alpha: float, partition: DyadicPartition) -> float:
    """B^alpha_{1,inf} norm: sup_j 2**(j alpha) * L1 norm of block j."""
    blocks = dyadic_blocks(f, partition)
    return max(
        2.0 ** (j * alpha) * lp_norm(b, 1)
        for j, b in zip(partition.indices, blocks)
    )
