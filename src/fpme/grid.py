"""Periodic grid, spectral transforms and dealiasing.

All fields live on the torus ``[0, L)^dim`` sampled on a uniform lattice of
``n_points`` cells per axis.  Transforms use the mean-value normalization:
the zero coefficient of a transformed field equals its grid mean, so that

    sum(f**2) * spacing**dim == volume * sum(|coeff|**2)

holds exactly (discrete Parseval identity).

The stepper and the Sobolev norms work on numpy's unnormalized ``rfftn``
half-spectrum instead, with symbols from :func:`half_spectrum_symbols`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatch, NonHermitianInput

__all__ = [
    "Grid",
    "RealField",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "dealias",
    "dealiased_product",
    "resample",
    "HalfSpectrumSymbols",
    "half_spectrum_symbols",
]

# Imaginary residue larger than this (relative to the field scale) means the
# spectral data was not the transform of a real field.
_HERMITIAN_TOL = 1e-8


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice.

    Parameters
    ----------
    dim:
        Spatial dimension, 1, 2 or 3.  The continuum results this code
        probes assume dim >= 2; dim = 1 is supported as a fast desk check
        but sits outside those hypotheses.
    n_points:
        Samples per axis.  Power of two, at least 8.
    side_length:
        Torus period L > 0 (same on every axis).
    """

    dim: int
    n_points: int
    side_length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not _is_power_of_two(self.n_points) or self.n_points < 8:
            raise ValueError(
                f"n_points must be a power of two >= 8, got {self.n_points}"
            )
        if not (self.side_length > 0):
            raise ValueError(f"side_length must be positive, got {self.side_length}")
        object.__setattr__(self, "spacing", self.side_length / self.n_points)
        object.__setattr__(self, "shape", (self.n_points,) * self.dim)
        object.__setattr__(self, "size", self.n_points**self.dim)
        object.__setattr__(self, "volume", self.side_length**self.dim)
        # Trailing axes: real-to-complex transforms of a field run over these.
        object.__setattr__(self, "fft_axes", tuple(range(-self.dim, 0)))

        n, L = self.n_points, self.side_length
        # Signed integer frequencies in [-N/2, N/2), FFT layout.
        k_signed = np.fft.fftfreq(n, d=1.0 / n)
        object.__setattr__(self, "k_signed", k_signed)
        xi_axis = (2.0 * np.pi / L) * k_signed
        mesh = np.meshgrid(*([xi_axis] * self.dim), indexing="ij", sparse=False)
        object.__setattr__(self, "xi", tuple(mesh))
        k_sq = sum(m**2 for m in mesh)
        object.__setattr__(self, "xi_squared", k_sq)
        object.__setattr__(self, "xi_magnitude", np.sqrt(k_sq))

        # 2/3-rule mask: keep |k| <= N/3 on every axis.
        cutoff = n // 3
        keep_axis = np.abs(k_signed) <= cutoff
        mask = keep_axis
        for _ in range(self.dim - 1):
            mask = np.multiply.outer(mask, keep_axis)
        object.__setattr__(self, "dealias_mask", mask.astype(float))
        object.__setattr__(self, "dealias_cutoff", cutoff)
        # Largest retained |xi| after dealiasing (corner of the kept cube).
        xi_max = (2.0 * np.pi / L) * cutoff * np.sqrt(self.dim)
        object.__setattr__(self, "xi_max_retained", xi_max)

    def axes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of the lattice, meshgrid ij layout."""
        x = np.arange(self.n_points) * self.spacing
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def signed_offsets(self) -> tuple[np.ndarray, ...]:
        """Minimal-image displacements from the origin, exact negatives pairwise."""
        off = self.k_signed * self.spacing
        return tuple(np.meshgrid(*([off] * self.dim), indexing="ij"))


@dataclass(frozen=True, eq=False)
class HalfSpectrumSymbols:
    """Fourier symbols of one grid over the ``rfftn`` half-spectrum.

    The last axis holds the ``n_points // 2 + 1`` nonnegative frequencies,
    the other axes the full signed range.  Dense arrays have that shape and
    the others broadcast to it.  Every array is read-only: one table is shared
    by all callers, threads included.

    mask:    the 2/3-rule dealias mask.
    radial:  ``|xi|**exponent``, zero mode mapped to 0.
    fold:    2 on the interior last-axis columns, 1 on the zero and Nyquist
             columns.  An interior column also stands for its conjugate
             mirror, so ``sum(fold * w * |rfftn(f)|**2)`` is the full-spectrum
             sum for any radial ``w``.
    sobolev: ``(1 + |xi|**2)**exponent * fold``.
    grad:    ``1j * xi`` along each axis with the Nyquist plane dropped.
    """

    mask: np.ndarray
    radial: np.ndarray
    fold: np.ndarray
    sobolev: np.ndarray
    grad: tuple[np.ndarray, ...]


@lru_cache(maxsize=32)
def half_spectrum_symbols(grid: Grid, exponent: float) -> HalfSpectrumSymbols:
    """The symbol table of ``grid`` at ``exponent``, built once per key."""
    n, d = grid.n_points, grid.dim
    # |xi| is even in every coordinate, so the first n//2+1 columns of the
    # full layout (its column n//2 is frequency -n/2) match rfftn's 0..n/2.
    half = (Ellipsis, slice(0, n // 2 + 1))
    mag = grid.xi_magnitude[half]
    radial = np.zeros_like(mag)
    nz = mag > 0
    radial[nz] = mag[nz] ** exponent
    fold = np.full(n // 2 + 1, 2.0)
    fold[[0, -1]] = 1.0
    sobolev = (1.0 + grid.xi_squared[half]) ** exponent * fold
    # The odd symbol has no Hermitian-symmetric value on the Nyquist plane.
    xi_axis = (2.0 * np.pi / grid.side_length) * grid.k_signed
    xi_axis[n // 2] = 0.0
    grad = []
    for ax in range(d):
        k = xi_axis if ax < d - 1 else xi_axis[: n // 2 + 1]
        shape = [1] * d
        shape[ax] = k.size
        grad.append((1j * k).reshape(shape))
    mask = np.ascontiguousarray(grid.dealias_mask[half])
    for arr in (mask, radial, fold, sobolev, *grad):
        arr.setflags(write=False)
    return HalfSpectrumSymbols(mask, radial, fold, sobolev, tuple(grad))


def _as_shaped(grid: Grid, values: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape == grid.shape:
        return arr
    if arr.ndim == 1 and arr.size == grid.size:
        return arr.reshape(grid.shape)
    raise ValueError(
        f"{name} must have shape {grid.shape} or length {grid.size}, got {arr.shape}"
    )


@dataclass(frozen=True, eq=False)
class RealField:
    """Real samples on a grid, row-major over the axes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = _as_shaped(self.grid, self.values, "values").astype(float, copy=False)
        if not np.all(np.isfinite(arr)):
            raise ValueError("RealField values must be finite")
        arr = arr.copy() if not arr.flags.owndata else arr
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex coefficients indexed by the signed-frequency lattice."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_shaped(self.grid, self.coeffs, "coeffs").astype(complex, copy=False)
        arr = arr.copy() if not arr.flags.owndata else arr
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


def require_same_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatch(f"fields live on different grids: {f.grid} vs {grid}")
    return grid


def forward_transform(f: RealField) -> SpectralField:
    """DFT with mean normalization: coefficient at 0 equals mean(f)."""
    coeffs = np.fft.fftn(f.values) / f.grid.size
    return SpectralField(f.grid, coeffs)


def inverse_transform(F: SpectralField) -> RealField:
    """Inverse of :func:`forward_transform`.

    The reconstruction of Hermitian-symmetric data is real up to roundoff;
    the imaginary residue is checked and discarded.  A residue above
    ``1e-8`` relative to the field scale signals an operator bug upstream
    and raises :class:`NonHermitianInput`.
    """
    w = np.fft.ifftn(F.coeffs) * F.grid.size
    real = w.real
    resid = float(np.max(np.abs(w.imag))) if w.size else 0.0
    scale = max(1.0, float(np.max(np.abs(real))) if real.size else 0.0)
    if resid > _HERMITIAN_TOL * scale:
        raise NonHermitianInput(
            f"imaginary residue {resid:.3e} exceeds {_HERMITIAN_TOL:.0e} * {scale:.3e}"
        )
    return RealField(F.grid, real)


def dealias(F: SpectralField) -> SpectralField:
    """Zero every coefficient with signed frequency above N/3 on any axis."""
    return SpectralField(F.grid, F.coeffs * F.grid.dealias_mask)


def dealiased_product(f: RealField, g: RealField) -> RealField:
    """Alias-free pointwise product.

    Both factors are projected below the 2/3-rule cutoff, multiplied on the
    lattice, and the product is projected again.  Retained frequencies never
    wrap past the period, so the result is the exact Galerkin truncation of
    the product of the two projected trig polynomials.
    """
    require_same_grid(f, g)
    fd = inverse_transform(dealias(forward_transform(f)))
    gd = inverse_transform(dealias(forward_transform(g)))
    prod = RealField(f.grid, fd.values * gd.values)
    return inverse_transform(dealias(forward_transform(prod)))


def resample(f: RealField, target: Grid) -> RealField:
    """Trigonometric re-interpolation of ``f`` onto a finer or coarser grid.

    Grids must share dim and side_length.  Modes beyond the smaller Nyquist
    range are dropped; for band-limited fields this is exact.
    """
    src = f.grid
    if (src.dim, src.side_length) != (target.dim, target.side_length):
        raise GridMismatch("resample requires equal dim and side_length")
    if src.n_points == target.n_points:
        return RealField(target, f.values)
    F = forward_transform(f).coeffs
    keep = min(src.n_points, target.n_points) // 2 - 1
    out = np.zeros(target.shape, dtype=complex)
    sel_src = [np.abs(src.k_signed) <= keep] * src.dim
    sel_tgt = [np.abs(target.k_signed) <= keep] * target.dim
    out[np.ix_(*sel_tgt)] = F[np.ix_(*sel_src)]
    return inverse_transform(SpectralField(target, out))
