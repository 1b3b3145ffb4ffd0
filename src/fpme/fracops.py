"""Fractional Laplacians, gradients and the smooth mollifier.

Every operator here is an exact Fourier multiplier on the periodic lattice,
so compositions commute to machine precision and adjointness relations are
inherited from the symmetry of the symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidExponent, UnresolvedKernel
from .grid import (
    Grid,
    RealField,
    SpectralField,
    forward_transform,
    half_spectrum_symbols,
    inverse_transform,
)

__all__ = [
    "frac_laplacian",
    "inv_frac_laplacian",
    "gradient",
    "MollifierKernel",
    "mollify",
    "apply_radial_power",
]


def apply_radial_power(F: SpectralField, power: float) -> SpectralField:
    """Multiply coefficients by |xi|**power, zero mode mapped to zero.

    No range restriction; callers that expose a contract (frac_laplacian,
    inv_frac_laplacian) validate their own exponents.  power = 0 keeps the
    zero mode (identity).
    """
    if power == 0:
        return F
    half = half_spectrum_symbols(F.grid, power).radial
    # A radial symbol is even, so column n - j of the full layout repeats
    # half-spectrum column j.
    mult = np.concatenate([half, half[..., -2:0:-1]], axis=-1)
    return SpectralField(F.grid, F.coeffs * mult)


def frac_laplacian(f: RealField, sigma: float) -> RealField:
    """Apply the fractional Laplacian of order sigma in [0, 2].

    The symbol is |xi|**sigma; sigma = 0 is the identity and for sigma > 0
    the mean is annihilated.
    """
    if not (0.0 <= sigma <= 2.0):
        raise InvalidExponent(f"fractional Laplacian order must be in [0, 2], got {sigma}")
    if sigma == 0.0:
        return f
    return inverse_transform(apply_radial_power(forward_transform(f), sigma))


def inv_frac_laplacian(f: RealField, s: float) -> RealField:
    """Riesz-type inverse with symbol |xi|**(-2 s) on nonzero modes.

    The zero mode is dropped (mean-zero convention for the potential).
    """
    if not (0.0 < s < 1.0):
        raise InvalidExponent(f"inverse fractional Laplacian needs s in (0, 1), got {s}")
    F = forward_transform(f)
    coeffs = apply_radial_power(F, -2.0 * s).coeffs.copy()
    coeffs.flat[0] = 0.0
    return inverse_transform(SpectralField(f.grid, coeffs))


def gradient(f: RealField) -> list[RealField]:
    """Spectral gradient, one component per axis.  Each component has zero mean.

    The Nyquist plane is zeroed along the differentiation axis: the odd
    symbol i*xi has no Hermitian-symmetric value there, and the standard
    convention (drop it) is also the one that keeps d/dx of a real sample
    real."""
    g = f.grid
    F = forward_transform(f)
    out = []
    for ax in range(g.dim):
        mult = 1j * g.xi[ax]
        sl = [slice(None)] * g.dim
        sl[ax] = g.n_points // 2
        mult = mult.copy()
        mult[tuple(sl)] = 0.0
        out.append(inverse_transform(SpectralField(g, mult * F.coeffs)))
    return out


@dataclass(frozen=True, eq=False)
class MollifierKernel:
    """Periodized standard mollifier at radius epsilon, sampled on a grid.

    kernel_values hold the nonnegative samples, renormalized so the discrete
    integral is one; kernel_hat is the matching convolution symbol with
    kernel_hat(0) = 1 exactly.  Convolving with this kernel is therefore a
    convex combination of samples: it preserves the mean and nonnegativity.
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
        vals.setflags(write=False)
        object.__setattr__(self, "kernel_values", vals)

        hat = (np.fft.fftn(vals) * g.spacing**g.dim).real
        hat.flat[0] = 1.0
        hat.setflags(write=False)
        object.__setattr__(self, "kernel_hat", hat)

    def apply_spectral(self, F: SpectralField) -> SpectralField:
        if F.grid != self.grid:
            raise GridMismatch(
                f"kernel grid {self.grid} does not match field grid {F.grid}"
            )
        return SpectralField(F.grid, F.coeffs * self.kernel_hat)


def mollify(f: RealField, kernel: MollifierKernel) -> RealField:
    """Convolve with the periodized mollifier (spectral multiplication)."""
    return inverse_transform(kernel.apply_spectral(forward_transform(f)))
