"""Fractional Laplacians, gradients and the smooth mollifier.

Every operator here is an exact Fourier multiplier on the periodic lattice,
so compositions commute to machine precision and adjointness relations are
inherited from the symmetry of the symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidExponent, UnresolvedKernel
from .grid import Grid, RealField, apply_symbols, half_spectrum_symbols

__all__ = [
    "frac_laplacian",
    "gradient",
    "MollifierKernel",
    "mollify",
]


def frac_laplacian(f: RealField, sigma: float) -> RealField:
    """Apply the fractional Laplacian of order sigma in [0, 2].

    The symbol is |xi|**sigma; sigma = 0 is the identity and for sigma > 0
    the mean is annihilated.
    """
    if not (0.0 <= sigma <= 2.0):
        raise InvalidExponent(f"fractional Laplacian order must be in [0, 2], got {sigma}")
    if sigma == 0.0:
        return f
    return apply_symbols(f, half_spectrum_symbols(f.grid, sigma).radial)[0]


def gradient(f: RealField) -> list[RealField]:
    """Spectral gradient, one component per axis.  Each component has zero mean.

    The Nyquist plane is zeroed along the differentiation axis: the odd
    symbol i*xi has no Hermitian-symmetric value there, and the standard
    convention (drop it) is also the one that keeps d/dx of a real sample
    real."""
    return apply_symbols(f, *half_spectrum_symbols(f.grid, 1.0).grad)


@dataclass(frozen=True, eq=False)
class MollifierKernel:
    """Periodized standard mollifier at radius epsilon, sampled on a grid.

    kernel_hat is the convolution symbol, on the half-spectrum, of the
    nonnegative samples renormalized so that their discrete integral is one
    (kept only while it is made): real because the kernel is even, with
    kernel_hat(0) = 1 exactly.  band_hat is kernel_hat on the 2/3-rule band.
    Convolving with this kernel is therefore a convex combination of
    samples: it preserves the mean and nonnegativity.
    """

    grid: Grid
    epsilon: float

    def __post_init__(self):
        g, eps = self.grid, self.epsilon
        if not (eps > 0):
            raise ValueError(f"epsilon must be positive, got {eps}")
        if eps < 2.0 * g.spacing:
            raise UnresolvedKernel(
                f"epsilon {eps} under-resolved: needs at least two cells, "
                f"spacing is {g.spacing:.6g}"
            )
        if eps >= g.side_length / 2.0:
            raise ValueError(
                f"kernel radius {eps} does not fit in half the period {g.side_length / 2}"
            )
        offs = g.signed_offsets()
        r_sq = sum(o**2 for o in offs) / (eps * eps)
        vals = np.zeros(g.shape)
        inside = r_sq < 1.0
        vals[inside] = np.exp(-1.0 / (1.0 - r_sq[inside]))
        # Discrete renormalization: the sampled kernel integrates to one bit-exactly.
        vals /= np.sum(vals) * g.spacing**g.dim

        # Its own array, made before the transform: the .real view would keep
        # the complex transform alive, and a copy made after it made 3-D
        # n = 64 solves fault in 6 MB every other call once linear._kernel
        # cached the kernel (glibc's heap thresholds).
        hat = np.empty(g.spectral_shape)
        hat[...] = (np.fft.rfftn(vals, axes=g.fft_axes) * g.spacing**g.dim).real
        hat.flat[0] = 1.0
        hat.setflags(write=False)
        object.__setattr__(self, "kernel_hat", hat)
        band_hat = hat[g.band]
        band_hat.setflags(write=False)
        object.__setattr__(self, "band_hat", band_hat)


def mollify(f: RealField, kernel: MollifierKernel) -> RealField:
    """Convolve with the periodized mollifier (spectral multiplication)."""
    if f.grid != kernel.grid:
        raise GridMismatch(f"kernel grid {kernel.grid} does not match field grid {f.grid}")
    return apply_symbols(f, kernel.kernel_hat)[0]
