"""Periodic grid, the band transform pair and symbol tables.

Fields live on the torus ``[0, L)^dim``, sampled on ``n_points`` cells per
axis (:class:`Grid`, :class:`RealField`).  Spectra use the ``rfftn``
half-spectrum, shape ``(*shape[:-1], n_points // 2 + 1)``, or, once
Orszag's 2/3 rule zeroes them off ``|k| <= dealias_cutoff``, the band
alone.  Three conventions share these layouts:

* :meth:`Grid.band_forward` and :meth:`Grid.band_inverse`, the band's
  unnormalized transform pair, which the solvers, norms and diagnostics
  run on: the layout is in band_forward's docstring, the kernel in
  :func:`_band_matrices`, :func:`_inverse_matrices`, :func:`_products` and
  :func:`_run`;
* :func:`apply_symbols`, the multipliers of the unmasked operators, on
  numpy's unnormalized ``rfftn`` and ``irfftn``;
* :func:`forward_transform` and :func:`inverse_transform`, mean-normalized,
  with :class:`SpectralField`.

Scaling by ``1/size`` is exact on power-of-two grids, so the conventions
give the same real fields bit for bit.  :func:`half_spectrum_symbols` and
:func:`band_symbols` build their tables with one builder, :func:`_symbols`.
A stacked transform takes the fields :func:`_fields_per_stack` allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

__all__ = [
    "Grid",
    "RealField",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "apply_symbols",
    "HalfSpectrumSymbols",
    "half_spectrum_symbols",
    "band_symbols",
]


# Real bytes of one stacked transform's fields: a stack pays one call's
# overhead for all of them but keeps them alive at once.
_STACK_BYTES = 256 * 1024

# pi to long double precision, for the twiddles of the band pair's matrices
_PI = np.longdouble("3.14159265358979323846264338327950288")


def _check_integer(name: str, value, least: int) -> None:
    """The rule of every seed, sample count and iteration cap; a bool is not
    an integer here."""
    if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
        Torus period L, finite and > 0 (same on every axis), such that
        L**2, L**dim and the largest squared wavenumber dim (pi n / L)**2
        are finite.
    """

    dim: int
    n_points: int
    side_length: float

    def __post_init__(self):
        _check_integer("dim", self.dim, 1)
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        _check_integer("n_points", self.n_points, 8)
        if self.n_points & (self.n_points - 1):
            raise ValueError(f"n_points must be a power of two >= 8, got {self.n_points}")
        n, L = self.n_points, self.side_length
        if not (0 < L < np.inf):
            raise ValueError(f"side_length must be positive and finite, got {L}")
        # The mollifier squares offsets up to L, the volume is L**dim, and the
        # symbol tables square |xi| up to the half spectrum's corner.
        with np.errstate(over="ignore"):
            xi_top = np.pi * n / np.float64(L)
            powers = (L * L, np.float64(L) ** self.dim, self.dim * xi_top * xi_top)
        if not np.isfinite(powers).all():
            raise ValueError(
                f"side_length {L} is out of range: side_length**2 = {powers[0]:.3g}, "
                f"side_length**{self.dim} = {powers[1]:.3g} and the largest |xi|**2 "
                f"= {powers[2]:.3g} must be finite"
            )
        object.__setattr__(self, "spacing", self.side_length / self.n_points)
        object.__setattr__(self, "shape", (self.n_points,) * self.dim)
        object.__setattr__(self, "size", self.n_points**self.dim)
        object.__setattr__(self, "volume", self.side_length**self.dim)
        # Trailing axes: real-to-complex transforms of a field run over these.
        object.__setattr__(self, "fft_axes", tuple(range(-self.dim, 0)))

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
        # Largest |xi|**2 of the half spectrum, which the symbol tables reach.
        object.__setattr__(self, "xi_squared_max", float(powers[2]))

    def axes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of the lattice, meshgrid ij layout."""
        x = np.arange(self.n_points) * self.spacing
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def signed_offsets(self) -> tuple[np.ndarray, ...]:
        """Minimal-image displacements from the origin, exact negatives pairwise."""
        off = self.k_signed * self.spacing
        return tuple(np.meshgrid(*([off] * self.dim), indexing="ij"))

    def band_forward(self, values: np.ndarray) -> np.ndarray:
        """Unnormalized ``rfftn`` of ``values``, which may carry leading stack
        axes, restricted to the band ``|k| <= c = dealias_cutoff`` on every
        axis, as a fresh array of shape ``(..., 2c + 1, ..., 2c + 1, c + 1)``.

        The last axis keeps the ``rfft`` columns ``0..c``.  Each other,
        signed, axis holds cosine and sine coefficients: the FFT-order row of
        ``+k`` holds ``C_k = sum_x f cos(kx)`` and that of ``-k`` holds
        ``S_k = sum_x f sin(kx)``, so with ``B`` the ``rfftn`` coefficients
        ``C_k = (B_k + B_-k) / 2``, ``S_k = i (B_k - B_-k) / 2`` and
        ``B_+-k = C_k -+ i S_k``.  An even symbol multiplies the band as it
        would ``B``; a derivative along a signed axis swaps the rows of each
        ``|k|``, so :meth:`band_inverse` takes it inside its products.  The
        axes run in ``rfftn``'s order, the last first, each one real product
        over the band rows alone (:func:`_products`), so each axis drops its
        rows off the band before the next transforms them.
        """
        x = np.ascontiguousarray(values, dtype=float)
        return _run(_fresh(self, x.shape), x).view(complex)

    def band_inverse(self, B: np.ndarray, derivs=None) -> np.ndarray:
        """``irfftn`` of the band coefficients ``B`` zero-extended to the
        half-spectrum, as a fresh real array with the leading stack axes of
        ``B``.

        ``B`` may hold a smaller band than the 2/3 rule's, the modes with
        ``|k| <= K``; ``K`` is read from its last axis.  ``derivs``, if
        given, names for each row of ``B``'s one stack axis the axis
        (0-based) to differentiate its field along, or None.  The axes run
        in ``irfftn``'s order, the last axis at the end, as real products
        (:func:`_products`) with the matrices of :func:`_inverse_matrices`,
        which fold in the ``1/n`` per axis and give a differentiated row its
        axis's derivative matrix.
        """
        x = np.ascontiguousarray(B, dtype=complex).view(float)
        return _run(_fresh(self, x.shape, tuple(derivs or ())), x)


@lru_cache(maxsize=32)
def _band_matrices(n: int, c: int, signed: bool) -> tuple[np.ndarray | None, ...]:
    """The real matrices ``fwd, inv, real_fwd, real_inv`` of the band pair
    on ``n`` points over the band ``|k| <= c``, built once per key and
    read-only; ``fwd`` and ``inv`` are None unless ``signed``, as a 1-D
    band has no signed axis.

    Signed axes: ``fwd`` is ``(2c + 1, n)`` with the rows ``cos theta`` at
    the FFT-order positions of ``+k``, ``k = 0..c``, and ``sin theta`` at
    those of ``-k``; ``inv`` is its transpose times ``w / n``, ``w = 1`` at
    k = 0 and 2 elsewhere, since ``B_k exp(ikx) + B_-k exp(-ikx)`` is
    ``2 (C_k cos + S_k sin)``.  Both act on the ``(re, im)`` pairs of the
    coefficients.  Last axis: ``real_fwd`` is ``(n, 2(c + 1))`` with
    interleaved columns ``cos`` and ``-sin``, so a real line times it is
    the ``(re, im)`` pairs of its ``rfft`` columns ``0..c``; ``real_inv``
    is ``(2(c + 1), n)`` with rows ``w cos / n`` and ``-w sin / n`` (the
    conjugate mirror), so the pairs times it are ``irfft`` of the
    zero-extended columns (the band has no Nyquist column).  Each angle is
    reduced exactly, ``2 pi ((x k) mod n) / n``, and read from a table of
    the ``n`` angles of one period, whose cosines and sines are taken in
    long double before they are rounded: unreduced angles put the pair
    several ulp further from ``rfftn``.
    """
    x = np.arange(n)
    k = np.arange(c + 1)
    theta = (2 * _PI / n) * x
    m = np.outer(k, x) % n
    cos, sin = np.cos(theta).astype(float)[m], np.sin(theta).astype(float)[m]
    w = np.where(k == 0, 1.0, 2.0)[:, None] / n
    fwd = inv = None
    if signed:
        fwd = _frozen(np.concatenate([cos, sin[:0:-1]]))
        inv = _frozen(np.ascontiguousarray((fwd * np.concatenate([w, w[:0:-1]])).T))
    real_fwd = np.empty((n, 2 * (c + 1)))
    real_fwd[:, 0::2] = cos.T
    real_fwd[:, 1::2] = -sin.T
    real_inv = np.empty((2 * (c + 1), n))
    real_inv[0::2] = w * cos
    real_inv[1::2] = -w * sin
    return fwd, inv, _frozen(real_fwd), _frozen(real_inv)


def _products(grid: Grid, x, derivs: tuple | None = None, keep: int = 0, bufs=()) -> list[tuple]:
    """The products ``(a, b, out, y)``, for ``np.matmul(a, b, out=out)``,
    of :meth:`Grid.band_forward` on ``x`` or, given ``derivs``, of
    :meth:`Grid.band_inverse` on the ``(re, im)`` pairs ``x``, ``y`` being
    each in the transform layout: a signed axis's ``W`` on the left over
    the lines of that axis, the last axis's on the right, at 1-D with a
    unit line axis (each line one gemv, alone or in a stack).  ``x``, if
    an array, and the first ``keep`` products are buffers bound into the
    steps, which each :func:`_run` overwrites, product ``i`` running in
    ``bufs[i]`` if given and else in a new one; the rest are shapes, made
    fresh by each run, ``x`` then being given to it.  No product is complex,
    and each line is its own, so a stack equals its fields one at a time
    bit for bit."""
    shape, steps = getattr(x, "shape", x), []
    if derivs is None:
        fwd, _, real_fwd, _ = _band_matrices(grid.n_points, grid.dealias_cutoff, grid.dim > 1)
        mats, axes = (real_fwd, *[fwd] * (grid.dim - 1)), range(-1, -grid.dim - 1, -1)
    else:
        mats = _inverse_matrices(grid, shape[-1] // 2 - 1, derivs)
        axes = (*range(-grid.dim, -1), -1)
    unit = (1,) * (grid.dim == 1)
    for i, (W, ax) in enumerate(zip(mats, axes)):
        if ax == -1:
            new = (*shape[:-1], W.shape[-1])
            a, o = (*shape[:-1], *unit, shape[-1]), (*new[:-1], *unit, new[-1])
        else:
            new = (*shape[:ax], W.shape[-2], *shape[ax + 1 :])
            a, o = (*shape[:ax], shape[ax], -1), (*shape[:ax], W.shape[-2], -1)
        a = a if type(x) is tuple else x.reshape(a)
        x = bufs[i] if i < len(bufs) else np.zeros(new) if i < keep else new
        o = o if type(x) is tuple else x.reshape(o)
        steps.append((a, W, o, x) if ax == -1 else (W, a, o, x))
        shape = new
    return steps


# the band pair's unbound products, built once per grid, shape and derivs
_fresh = lru_cache(maxsize=64)(_products)


def _run(steps: list[tuple], x: np.ndarray | None = None, out: np.ndarray | None = None):
    """Run the products of :func:`_products` and return the last, ``x``
    being the input if they hold none; ``out``, if given, takes the last
    in place of its buffer, in the transform layout."""
    if out is not None:
        *steps, (a, b, o, y) = steps
        steps.append((a, b, out.reshape(getattr(o, "shape", o)), out))
    for a, b, o, y in steps:
        if type(a) is tuple:
            a = x.reshape(a)
        elif type(b) is tuple:
            b = x.reshape(b)
        x = np.matmul(a, b, out=None if type(o) is tuple else o)
    return x.reshape(y) if type(y) is tuple else y


@lru_cache(maxsize=64)
def _inverse_matrices(grid: Grid, c: int, derivs: tuple) -> tuple[np.ndarray, ...]:
    """What :meth:`Grid.band_inverse` applies to a stack over the band
    ``|k| <= c`` whose row ``i`` is differentiated along axis ``derivs[i]``
    or not (None), built once per key and read-only: one matrix per axis,
    in its order, the plain one if no row is differentiated along that
    axis and else one per row, stacked on an axis that broadcasts over the
    product's lines.  As ``cos(kx)' = -xi sin(kx)`` and ``sin(kx)' = xi
    cos(kx)``, a signed axis's derivative matrix has column ``mirror(p)``,
    ``mirror`` swapping the rows of ``+k`` and ``-k``, equal to column
    ``p`` of ``inv`` times ``xi_p`` (negative at ``-k``), and column 0
    zero.  On the last axis, the only one at dim 1, ``1j * xi_k`` maps
    ``(re, im)`` to ``(-xi_k im, xi_k re)``: row ``2k`` is ``xi_k`` times
    row ``2k + 1`` of ``real_inv``, and row ``2k + 1`` is ``-xi_k`` times
    row ``2k``.
    """
    _, inv, _, real_inv = _band_matrices(grid.n_points, c, grid.dim > 1)
    xi = band_symbols(grid, 1.0).grad[-1].imag.ravel()[: c + 1]
    inv_d = None
    if grid.dim > 1:
        inv_d = np.zeros_like(inv)
        inv_d[:, :0:-1] = inv[:, 1:] * np.concatenate([xi[1:], -xi[:0:-1]])
    real_inv_d = np.empty_like(real_inv)
    real_inv_d[0::2] = xi[:, None] * real_inv[1::2]
    real_inv_d[1::2] = -xi[:, None] * real_inv[0::2]
    d, mats = grid.dim, []
    plain, derivative = (*[inv] * (d - 1), real_inv), (*[inv_d] * (d - 1), real_inv_d)
    for ax, W, W_d in zip(range(d), plain, derivative):
        if ax in derivs:
            # the lines of the last axis's product carry d - 2 leading axes
            shape = (len(derivs), *[1] * min(ax, d - 2), *W.shape)
            W = np.stack([W_d if a == ax else W for a in derivs]).reshape(shape)
            W.setflags(write=False)
        mats.append(W)
    return tuple(mats)


@dataclass(frozen=True, eq=False)
class HalfSpectrumSymbols:
    """Fourier symbols of one grid over the ``rfftn`` half-spectrum, or over
    the band in the tables of :func:`band_symbols`.

    ``radial`` and ``sobolev`` are dense, of shape ``grid.spectral_shape``
    or of the band's shape; ``fold`` is dense on the band at dim >= 2 and
    otherwise broadcasts along the last axis; each of ``grad`` broadcasts
    along its own axis.  Every array is read-only: one table is shared by
    all callers.

    radial:  ``|xi|**exponent``, zero mode mapped to 0.
    fold:    on the half-spectrum, 2 on the interior last-axis columns and 1
             on the zero and Nyquist columns: an interior column also stands
             for its conjugate mirror, so ``sum(fold * w * |rfftn(f)|**2)``
             is the full-spectrum sum for any radial ``w``.  On the band
             also a factor 2 at each signed-axis ``k != 0``, since
             ``|B_k|**2 + |B_-k|**2 = 2 (|C_k|**2 + |S_k|**2)``, so the same
             sum holds for band coefficients.
    sobolev: ``(1 + |xi|**2)**exponent * fold``.
    grad:    ``1j * xi`` along each axis, the Nyquist plane dropped.  On
             the band it multiplies the last axis alone; the band inverse
             differentiates (:func:`_inverse_matrices`).
    """

    radial: np.ndarray
    fold: np.ndarray
    sobolev: np.ndarray
    grad: tuple[np.ndarray, ...]


def _symbols(
    grid: Grid, exponent: float, ks: tuple[np.ndarray, ...], band: bool
) -> HalfSpectrumSymbols:
    """The symbol table of ``grid`` at ``exponent`` on the modes whose integer
    frequencies along each axis are ``ks``, in the band layout if ``band``."""
    n, d = grid.n_points, grid.dim
    scale = 2.0 * np.pi / grid.side_length
    xi, grad = [], []
    fold = np.where((ks[-1] == 0) | (ks[-1] == n // 2), 1.0, 2.0)
    for ax, k in enumerate(ks):
        shape = [1] * d
        shape[ax] = k.size
        sk = scale * k
        xi.append(sk.reshape(shape))
        # The odd symbol has no Hermitian-symmetric value on the Nyquist plane.
        odd = np.where(np.abs(k) == n // 2, 0.0, sk)
        grad.append((1j * odd).reshape(shape))
        if band and ax < d - 1:
            fold = fold * np.where(k == 0, 1.0, 2.0).reshape(shape)
    xi_squared = sum(x**2 for x in xi)
    mag = np.sqrt(xi_squared)
    radial = np.zeros_like(mag)
    nz = mag > 0
    radial[nz] = mag[nz] ** exponent
    sobolev = (1.0 + xi_squared) ** exponent * fold
    for arr in (radial, fold, sobolev, *grad):
        arr.setflags(write=False)
    return HalfSpectrumSymbols(radial, fold, sobolev, tuple(grad))


@lru_cache(maxsize=32)
def half_spectrum_symbols(grid: Grid, exponent: float) -> HalfSpectrumSymbols:
    """The symbol table of ``grid`` at ``exponent``, built once per key."""
    last = np.fft.rfftfreq(grid.n_points, d=1.0 / grid.n_points)
    return _symbols(grid, exponent, (*[grid.k_signed] * (grid.dim - 1), last), band=False)


@lru_cache(maxsize=32)
def band_symbols(grid: Grid, exponent: float) -> HalfSpectrumSymbols:
    """The symbol table of ``grid`` at ``exponent`` on the band, built once
    per key; the multipliers of :meth:`Grid.band_forward` coefficients."""
    ks = tuple(grid.k_signed[ix.ravel()] for ix in grid.band)
    return _symbols(grid, exponent, ks, band=True)


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


def forward_transform(f: RealField) -> SpectralField:
    """Half-spectrum DFT with mean normalization: coefficient at 0 equals
    mean(f), and ``sum(f**2) * spacing**dim == volume * sum(fold *
    |coeff|**2)`` with ``fold`` of :func:`half_spectrum_symbols`."""
    g = f.grid
    return SpectralField(g, np.fft.rfftn(f.values, axes=g.fft_axes, norm="forward"))


def inverse_transform(F: SpectralField) -> RealField:
    """Inverse of :func:`forward_transform`; the result is real by construction."""
    g = F.grid
    return RealField(g, np.fft.irfftn(F.coeffs, s=g.shape, axes=g.fft_axes, norm="forward"))


def apply_symbols(f: RealField, *symbols: np.ndarray) -> list[RealField]:
    """Fourier multipliers of one field: ``irfftn(m * rfftn(f))`` for each m.

    Each ``m`` is a half-spectrum multiplier that broadcasts to
    ``grid.spectral_shape``.  One unnormalized ``rfftn`` of ``f`` serves all
    of them; the fields are returned in the order of ``symbols``.
    """
    return [RealField(f.grid, v) for v in _multiply_symbols(f.grid, f.values, *symbols)]


def _multiply_symbols(grid: Grid, values: np.ndarray, *symbols: np.ndarray) -> list[np.ndarray]:
    """:func:`apply_symbols` on arrays, which may carry leading stack axes;
    a stack equals its fields transformed one at a time bit for bit."""
    c = np.fft.rfftn(values, axes=grid.fft_axes)
    return [np.fft.irfftn(m * c, s=grid.shape, axes=grid.fft_axes) for m in symbols]


def _fields_per_stack(grid: Grid) -> int:
    """How many fields of ``grid`` one stacked transform takes: as many as
    fit in ``_STACK_BYTES`` of real output, and at least one."""
    return max(1, _STACK_BYTES // (8 * grid.size))


def _band(grid: Grid, keep: int):
    """Index of the half-spectrum modes with |k| <= keep on every axis."""
    sel = np.abs(grid.k_signed) <= keep
    return np.ix_(*[sel] * (grid.dim - 1), sel[: grid.n_points // 2 + 1])
