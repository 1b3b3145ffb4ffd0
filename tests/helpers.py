"""Slow reference implementations the tests trust instead of the package,
and the operators and probes only the tests call.

Every oracle here is written directly from the defining formulas (matrix
DFT, explicit convolution sums, the mollifier's samples) so a bug in the
fast FFT-based code cannot hide in its own oracle.  The one exception is
nonlinear_march, the reference Picard is measured against: it reuses the
package's frozen right-hand side, but it is another algorithm, with no
segments and no fixed point.  The last section holds inv_frac_laplacian,
the single-field pointwise checks and uniqueness_probe, built on the
package's public API and its property suite's stacked gap.
"""

from dataclasses import replace

import numpy as np

from fpme import (
    Grid,
    GridMismatch,
    InvalidExponent,
    PicardConfig,
    RealField,
    lp_norm,
    run_picard,
    sobolev_norm,
)
from fpme.diagnostics import InequalityReport, _gap_reports
from fpme.grid import (
    SpectralField,
    _band,
    apply_symbols,
    band_symbols,
    forward_transform,
    half_spectrum_symbols,
    inverse_transform,
)
from fpme.linear import _freeze, _rhs_values
from fpme.norms import _norm_of_rfft


def dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / n


def dft_forward_oracle(values: np.ndarray) -> np.ndarray:
    """Mean-normalized DFT by explicit matrix application, axis by axis."""
    out = values.astype(complex)
    for ax in range(values.ndim):
        w = dft_matrix(values.shape[ax])
        out = np.moveaxis(np.tensordot(w, np.moveaxis(out, ax, 0), axes=1), 0, ax)
    return out


def _angles(n: int, k: np.ndarray) -> np.ndarray:
    """2 pi ((k x) mod n) / n in long double, k by x = 0..n-1: the angle is
    reduced exactly before it is rounded."""
    return (8 * np.arctan(np.longdouble(1)) / n) * (np.outer(k, np.arange(n)) % n)


def _cos_sin_rows(n: int, c: int, derivative: bool = False) -> np.ndarray:
    """The (2c + 1, n) long double rows of a signed axis of the band layout:
    cos(k x) at the FFT-order position of +k, k = 0..c, and sin(k x) at
    that of -k; with derivative, their derivatives in x, -k sin(k x) and
    k cos(k x)."""
    rows = np.empty((2 * c + 1, n), dtype=np.longdouble)
    for pos in range(2 * c + 1):
        k = pos if pos <= c else pos - (2 * c + 1)
        theta = _angles(n, np.array([abs(k)]))[0]
        if derivative:
            rows[pos] = -k * np.sin(theta) if k >= 0 else -k * np.cos(theta)
        else:
            rows[pos] = np.cos(theta) if k >= 0 else np.sin(theta)
    return rows


def _dft_along(W: np.ndarray, F: np.ndarray, ax: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(W, np.moveaxis(F, ax, 0), axes=1), 0, ax)


def band_dft_oracle(values: np.ndarray, c: int) -> np.ndarray:
    """Unnormalized rfftn of real `values` on the band |k| <= c, in the
    band layout, by long double sums: exp(-i k x) sums on the last axis,
    then the cos(k x) and sin(k x) sums of each signed axis."""
    n, F = values.shape[-1], values.astype(np.longdouble)
    theta = _angles(n, np.arange(c + 1))
    F = _dft_along(np.cos(theta) - 1j * np.sin(theta), F, -1)
    for ax in range(-2, -values.ndim - 1, -1):
        F = _dft_along(_cos_sin_rows(n, c), F, ax)
    return F


def band_idft_oracle(B: np.ndarray, n: int, deriv=None, length=None) -> np.ndarray:
    """irfftn of the band `B` (cutoff B.shape[-1] - 1) zero-extended to n
    points per axis, by long double sums: on each signed axis
    (C_0 + 2 sum_k (C_k cos(k x) + S_k sin(k x))) / n, then the real part of
    the last axis' exp(i k x) sum with each interior column counted twice
    for its conjugate mirror.  With deriv, the derivative along axis deriv
    (0-based) on the torus of side length: that axis sums the derivatives
    of its waves, times 2 pi / length."""
    c, F = B.shape[-1] - 1, B.astype(np.clongdouble)
    scale = 8 * np.arctan(np.longdouble(1)) / length if deriv is not None else 1
    twice = np.where(np.arange(2 * c + 1) == 0, 1, 2)[:, None] / n
    for ax in range(B.ndim - 1):
        rows = _cos_sin_rows(n, c, derivative=ax == deriv)
        F = _dft_along((twice * rows * (scale if ax == deriv else 1)).T, F, ax)
    k = np.arange(c + 1)
    theta = _angles(n, k)
    last = (np.cos(theta) + 1j * np.sin(theta)) * (np.where(k == 0, 1, 2)[:, None] / n)
    if deriv == B.ndim - 1:
        last = last * (1j * scale * k[:, None])
    return np.tensordot(F, last, axes=([-1], [0])).real


def cos_sin_band(B: np.ndarray, dim: int) -> np.ndarray:
    """The band `B` of a grid of `dim` axes, in FFT order on its signed
    axes, in the band layout: C_k = (B_k + B_-k) / 2 at the position of +k
    and S_k = i (B_k - B_-k) / 2 at that of -k, as one matrix per axis."""
    return _signed_map(B, dim, inverse=False)


def signed_band(B: np.ndarray, dim: int) -> np.ndarray:
    """The inverse of cos_sin_band: B_+-k = C_k -+ i S_k."""
    return _signed_map(B, dim, inverse=True)


def _signed_map(B: np.ndarray, dim: int, inverse: bool) -> np.ndarray:
    for ax in range(B.ndim - dim, B.ndim - 1):
        size = B.shape[ax]
        c = (size - 1) // 2
        T = np.zeros((size, size), dtype=complex)
        T[0, 0] = 1.0
        for k in range(1, c + 1):
            plus, minus = k, size - k
            if inverse:
                T[plus, plus], T[plus, minus] = 1.0, -1j
                T[minus, plus], T[minus, minus] = 1.0, 1j
            else:
                T[plus, plus], T[plus, minus] = 0.5, 0.5
                T[minus, plus], T[minus, minus] = 0.5j, -0.5j
        B = _dft_along(T, B, ax)
    return B


def half_columns(full: np.ndarray) -> np.ndarray:
    """Last-axis columns 0..n/2 of a full-layout array: the rfftn layout.

    Column n/2 of the full layout is frequency -n/2; it is the stored +n/2
    for every even symbol and for the transform of real data."""
    return full[..., : full.shape[-1] // 2 + 1]


def circular_convolution_oracle(a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
    """Spectrum of the pointwise product a*b in 1d, done as the O(N^2)
    wrap-around convolution sum of mean-normalized coefficients."""
    n = a_hat.shape[0]
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for j in range(n):
            out[k] += a_hat[j] * b_hat[(k - j) % n]
    return out


def signed_mode(k: int, n: int) -> int:
    return k - n if k > n // 2 else k


def radial_symbol_oracle(dim: int, n: int, length: float, power: float) -> np.ndarray:
    """|xi|^power on the unshifted DFT layout, built from first principles
    (signed integer modes scaled by 2 pi / L); zero mode set to zero."""
    modes = np.array([signed_mode(k, n) for k in range(n)], dtype=float)
    axes = np.meshgrid(*([modes] * dim), indexing="ij")
    mags = np.sqrt(sum(a * a for a in axes)) * (2.0 * np.pi / length)
    out = np.zeros_like(mags)
    nz = mags > 0
    out[nz] = mags[nz] ** power
    return out


def nonlinear_march(u0, s: float, t_end: float, steps: int, F=None) -> np.ndarray:
    """Band state at t_end of du/dt = div(u grad (-Lap)^(-s) u) from u0,
    marched by RK4 in `steps` equal steps, each stage freezing v = u; or, if
    F is given, from the band state F of a field marched from u0.

    Like every state of the package's solvers, u keeps u0's coefficients off
    the band, and the right-hand side reads only the band."""
    g = u0.grid

    def rhs(F):
        return _rhs_values(F, _freeze(g, F, s, 0.0))

    if F is None:
        F = g.band_forward(u0.values)
    h = t_end / steps
    for _ in range(steps):
        k1 = rhs(F)
        k2 = rhs(F + (0.5 * h) * k1)
        k3 = rhs(F + (0.5 * h) * k2)
        k4 = rhs(F + h * k3)
        F = F + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return F


def band_distance(g, F: np.ndarray, G: np.ndarray, order: float) -> float:
    """H^order distance of two fields that agree off the band, from their
    band states F and G."""
    return _norm_of_rfft(g, F - G, band_symbols(g, order).sobolev)


def hilbert_flux_solution(g, t: float, e: tuple[int, ...]) -> np.ndarray:
    """Values on g at time t of the solution of du/dt = div(u grad (-Lap)^(-1/2) u)
    from u0 = 1 + cos(theta) / 2, theta = (2 pi / L) e.x for the integer
    vector e.

    On such a plane wave -Lap is (2 pi |e| / L)^2 (-d^2/dtheta^2), so u is
    U(theta, tau), tau = 2 pi |e| t / L, with U the solution of
    U_tau + (U HU)_theta = 0 and H the Hilbert transform.  G = HU + i U
    solves G_tau + G G_theta = 0 from G0(z) = i (1 + exp(-i z) / 2), so
    U = Im G0(zeta) with zeta + tau G0(zeta) = theta, solved by Newton from
    zeta = theta."""
    k = 2 * np.pi / g.side_length
    theta = k * sum(ei * x for ei, x in zip(e, g.axes()))
    tau = k * np.linalg.norm(e) * t
    zeta = theta.astype(complex)
    for _ in range(60):
        w = 0.5 * np.exp(-1j * zeta)
        zeta -= (zeta + tau * 1j * (1 + w) - theta) / (1 + tau * w)
    return 1 + (0.5 * np.exp(-1j * zeta)).real


def mollifier_samples(g, epsilon: float) -> np.ndarray:
    """The samples of MollifierKernel(g, epsilon): the standard mollifier
    exp(-1 / (1 - |x|^2 / epsilon^2)) at the signed lattice offsets,
    renormalized so that their discrete integral is one."""
    r_sq = sum(o**2 for o in g.signed_offsets()) / (epsilon * epsilon)
    vals = np.zeros(g.shape)
    inside = r_sq < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - r_sq[inside]))
    vals /= np.sum(vals) * g.spacing**g.dim
    return vals


# ---------------------------------------------------------------------------
# operators and probes only the tests call


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


def inv_frac_laplacian(f: RealField, s: float) -> RealField:
    """Riesz-type inverse with symbol |xi|**(-2 s) on nonzero modes.

    The zero mode is dropped (mean-zero convention for the potential).
    """
    if not (0.0 < s < 1.0):
        raise InvalidExponent(f"inverse fractional Laplacian needs s in (0, 1), got {s}")
    return apply_symbols(f, half_spectrum_symbols(f.grid, -2.0 * s).radial)[0]


def check_cordoba(f: RealField, s: float) -> InequalityReport:
    """Pointwise gap 2 f Lambda^s f - Lambda^s(f^2) >= 0, 0 <= s <= 2.

    f must be band-limited so that f^2 survives dealiasing unchanged.
    """
    return check_pointwise_lp(f, s, 2)


def check_pointwise_lp(f: RealField, sigma: float, p: int) -> InequalityReport:
    """L^p variant: p f^(p-1) Lambda^sigma f - Lambda^sigma(f^p) >= 0, p in {2, 4}.

    min_gap is the gap's min and tol 1e-9 * (1 + max|f|^2), from the
    property suite's stacked check on a stack of this one field.
    """
    return _gap_reports(f.grid, f.values[np.newaxis], sigma, p)[0]


def uniqueness_probe(u0: RealField, config: PicardConfig, delta_seed: RealField) -> float:
    """Growth ratio sup_t ||u_pert(t) - u(t)||_L2 / ||delta_seed||_L2.

    Both runs share the base run's window and Gronwall constant so their
    sample grids coincide.  A zero perturbation returns 1 by convention.
    Raises GridMismatch when delta_seed is on another grid than u0.
    """
    if delta_seed.grid != u0.grid:
        raise GridMismatch(f"delta_seed grid {delta_seed.grid} does not match u0 grid {u0.grid}")
    seed_l2 = lp_norm(delta_seed, 2)
    seed_halpha = sobolev_norm(delta_seed, config.alpha)
    limit = 1e-6 * (1.0 + sobolev_norm(u0, config.alpha))
    if seed_halpha > limit:
        raise ValueError(
            f"delta_seed too large: H^alpha norm {seed_halpha:.3e} exceeds {limit:.3e}"
        )
    if seed_l2 == 0.0:
        return 1.0
    base = run_picard(u0, config)
    cfg = replace(config, t0_override=base.horizon, c_gronwall=base.c_gronwall)
    pert = run_picard(
        RealField(u0.grid, u0.values + delta_seed.values), cfg
    )
    ratio = max(
        lp_norm(RealField(u0.grid, a.values - b.values), 2)
        for a, b in zip(pert.trajectory, base.trajectory)
    )
    return ratio / seed_l2
