"""Periodic grid, spectral transforms and symbol tables.

All fields live on the torus ``[0, L)^dim`` sampled on a uniform lattice of
``n_points`` cells per axis.  Spectral data use one layout everywhere, the
``rfftn`` half-spectrum of shape ``(*shape[:-1], n_points // 2 + 1)``: the
last axis holds the nonnegative frequencies ``0..n/2``, the other axes the
full signed range in FFT order.  The negative last-axis frequencies are the
complex conjugates of the stored ones and are not kept.  Every symbol comes
from :func:`half_spectrum_symbols`.

Products are dealiased by Orszag's 2/3 rule, which keeps the modes with
``|k| <= dealias_cutoff`` on every axis.  A spectrum that is zero off those
modes is stored on the *band* alone, shape
``(2c + 1, ..., 2c + 1, c + 1)`` with ``c = dealias_cutoff``: the signed
axes keep rows ``0..c`` and ``-c..-1`` in FFT order, the last axis columns
``0..c``.  Band symbols come from :func:`band_symbols`.  The same layout
with a smaller ``c`` holds a spectrum that is zero off a smaller box, such
as a low Littlewood-Paley block cropped to its support.

Three conventions share that layout:

* :meth:`Grid.band_forward` and :meth:`Grid.band_inverse` are the
  transform pair of masked spectra.  They compute ``rfftn`` restricted to
  the band and ``irfftn`` of the zero-extended band, unnormalized, and
  transform no row the band drops (a pruned FFT); the inverse also takes a
  smaller box.  The RK4 state, the samples of a Picard trajectory, the
  frozen coefficients, the Littlewood-Paley blocks, and the dealiased
  products and random_trig fields of the diagnostics all live on the band,
  and a diagnostics record reads the state the solver holds there.
* :func:`apply_symbols` is the real-to-real multiplier path of the
  unmasked operators.  It uses numpy's unnormalized ``rfftn`` and its
  ``irfftn`` inverse, as do the Sobolev norms.
* :func:`forward_transform` and :func:`inverse_transform` use the
  mean-value normalization: the zero coefficient equals the grid mean, so
  with ``fold`` from :class:`HalfSpectrumSymbols`

      sum(f**2) * spacing**dim == volume * sum(fold * |coeff|**2)

  holds exactly (discrete Parseval identity).  :func:`resample` works on
  these coefficients.

Scaling by ``1/size`` is exact on power-of-two grids, so both conventions
give the same real fields bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatch

__all__ = [
    "Grid",
    "RealField",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "apply_symbols",
    "resample",
    "HalfSpectrumSymbols",
    "half_spectrum_symbols",
    "band_symbols",
]


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
        object.__setattr__(self, "spectral_shape", (*self.shape[:-1], n // 2 + 1))
        # Signed integer frequencies in [-N/2, N/2), FFT layout.
        object.__setattr__(self, "k_signed", np.fft.fftfreq(n, d=1.0 / n))
        # 2/3 rule: keep |k| <= N/3 on every axis.
        cutoff = n // 3
        object.__setattr__(self, "dealias_cutoff", cutoff)
        # np.ix_ index of the band in the half-spectrum.
        object.__setattr__(self, "band", _band(self, cutoff))
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

    def band_forward(self, values: np.ndarray) -> np.ndarray:
        """Unnormalized ``rfftn`` of ``values`` restricted to the band.

        ``values`` may carry leading stack axes.  The axes run in
        ``rfftn``'s order: ``rfft`` on the last axis, then ``fft`` along each
        signed axis, and each axis drops its rows off the band before the
        next transforms them.  The complex ``fft`` runs in place
        (``out=``, numpy >= 2.0).
        """
        B = np.fft.rfft(values, axis=-1)[..., : self.dealias_cutoff + 1].copy()
        for ax in range(-2, -self.dim - 1, -1):
            np.fft.fft(B, axis=ax, out=B)
            B = np.take(B, self.band[ax].ravel(), axis=ax)
        return B

    def band_inverse(self, B: np.ndarray) -> np.ndarray:
        """``irfftn`` of the band coefficients ``B`` zero-extended to the
        half-spectrum, as a real array with the leading stack axes of ``B``.

        ``B`` may hold a smaller band than the 2/3 rule's, the modes with
        ``|k| <= K`` in the same layout; its cutoff ``K`` is read from its
        last axis, ``B.shape[-1] - 1``.  Each signed axis is zero-padded to
        ``n_points`` and inverted in ``irfftn``'s order, before the axes
        after it are padded; ``irfft`` pads the last axis itself.  Each
        ``ifft`` runs in place on its padded array (``out=``, numpy >= 2.0).
        """
        n, c = self.n_points, B.shape[-1] - 1
        for ax in range(-self.dim, -1):
            padded = np.zeros((*B.shape[:ax], n, *B.shape[ax + 1 :]), dtype=complex)
            after = (slice(None),) * (-ax - 1)
            padded[(..., slice(0, c + 1), *after)] = B[(..., slice(0, c + 1), *after)]
            padded[(..., slice(n - c, n), *after)] = B[(..., slice(c + 1, 2 * c + 1), *after)]
            B = np.fft.ifft(padded, axis=ax, out=padded)
        return np.fft.irfft(B, n=n, axis=-1)


@dataclass(frozen=True, eq=False)
class HalfSpectrumSymbols:
    """Fourier symbols of one grid over the ``rfftn`` half-spectrum.

    Dense arrays have shape ``grid.spectral_shape`` and the others broadcast
    to it; in the tables of :func:`band_symbols` every array is dense on the
    band.  Every array is read-only: one table is shared by all callers,
    threads included.

    radial:  ``|xi|**exponent``, zero mode mapped to 0.
    fold:    2 on the interior last-axis columns, 1 on the zero and Nyquist
             columns.  An interior column also stands for its conjugate
             mirror, so ``sum(fold * w * |rfftn(f)|**2)`` is the full-spectrum
             sum for any radial ``w``.
    sobolev: ``(1 + |xi|**2)**exponent * fold``.
    grad:    ``1j * xi`` along each axis with the Nyquist plane dropped.
    """

    radial: np.ndarray
    fold: np.ndarray
    sobolev: np.ndarray
    grad: tuple[np.ndarray, ...]


@lru_cache(maxsize=32)
def half_spectrum_symbols(grid: Grid, exponent: float) -> HalfSpectrumSymbols:
    """The symbol table of ``grid`` at ``exponent``, built once per key."""
    n, d = grid.n_points, grid.dim
    scale = 2.0 * np.pi / grid.side_length
    xi, grad = [], []
    for ax in range(d):
        k = grid.k_signed if ax < d - 1 else np.fft.rfftfreq(n, d=1.0 / n)
        shape = [1] * d
        shape[ax] = k.size
        xi.append((scale * k).reshape(shape))
        # The odd symbol has no Hermitian-symmetric value on the Nyquist plane.
        odd = scale * k
        odd[n // 2] = 0.0
        grad.append((1j * odd).reshape(shape))
    xi_squared = sum(x**2 for x in xi)
    mag = np.sqrt(xi_squared)
    radial = np.zeros_like(mag)
    nz = mag > 0
    radial[nz] = mag[nz] ** exponent
    fold = np.full(n // 2 + 1, 2.0)
    fold[[0, -1]] = 1.0
    sobolev = (1.0 + xi_squared) ** exponent * fold
    for arr in (radial, fold, sobolev, *grad):
        arr.setflags(write=False)
    return HalfSpectrumSymbols(radial, fold, sobolev, tuple(grad))


@lru_cache(maxsize=32)
def band_symbols(grid: Grid, exponent: float) -> HalfSpectrumSymbols:
    """The table of :func:`half_spectrum_symbols` cut to the band, built once
    per key; the multipliers of :meth:`Grid.band_forward` coefficients."""

    def cut(arr: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(arr, grid.spectral_shape)[grid.band]
        out.setflags(write=False)
        return out

    full = half_spectrum_symbols(grid, exponent)
    return HalfSpectrumSymbols(
        cut(full.radial), cut(full.fold), cut(full.sobolev), tuple(map(cut, full.grad))
    )


def _as_shaped(shape: tuple[int, ...], values: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape == shape:
        return arr
    if arr.ndim == 1 and arr.size == np.prod(shape):
        return arr.reshape(shape)
    raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy() if not arr.flags.owndata else arr
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RealField:
    """Real samples on a grid, row-major over the axes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = _as_shaped(self.grid.shape, self.values, "values").astype(float, copy=False)
        if not np.all(np.isfinite(arr)):
            raise ValueError("RealField values must be finite")
        object.__setattr__(self, "values", _frozen(arr))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Mean-normalized coefficients on the half-spectrum, shape ``grid.spectral_shape``."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_shaped(self.grid.spectral_shape, self.coeffs, "coeffs")
        object.__setattr__(self, "coeffs", _frozen(arr.astype(complex, copy=False)))


def require_same_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatch(f"fields live on different grids: {f.grid} vs {grid}")
    return grid


def forward_transform(f: RealField) -> SpectralField:
    """Half-spectrum DFT with mean normalization: coefficient at 0 equals mean(f)."""
    g = f.grid
    return SpectralField(g, np.fft.rfftn(f.values, axes=g.fft_axes, norm="forward"))


def inverse_transform(F: SpectralField) -> RealField:
    """Inverse of :func:`forward_transform`; the result is real by construction."""
    g = F.grid
    return RealField(g, np.fft.irfftn(F.coeffs, s=g.shape, axes=g.fft_axes, norm="forward"))


def apply_symbols(f: RealField, *symbols: np.ndarray) -> Iterator[RealField]:
    """Fourier multipliers of one field: ``irfftn(m * rfftn(f))`` for each m.

    Each ``m`` is a half-spectrum multiplier that broadcasts to
    ``grid.spectral_shape``.  One unnormalized ``rfftn`` of ``f`` serves all
    of them, and the fields are yielded one at a time, so a caller that
    reduces as it goes holds one of them at once.
    """
    g = f.grid
    c = np.fft.rfftn(f.values, axes=g.fft_axes)
    for m in symbols:
        yield RealField(g, np.fft.irfftn(m * c, s=g.shape, axes=g.fft_axes))


def _band(grid: Grid, keep: int):
    """Index of the half-spectrum modes with |k| <= keep on every axis."""
    sel = np.abs(grid.k_signed) <= keep
    return np.ix_(*[sel] * (grid.dim - 1), sel[: grid.n_points // 2 + 1])


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
    keep = min(src.n_points, target.n_points) // 2 - 1
    out = np.zeros(target.spectral_shape, dtype=complex)
    out[_band(target, keep)] = forward_transform(f).coeffs[_band(src, keep)]
    return inverse_transform(SpectralField(target, out))
