"""Linear degenerate diffusion-transport solver with a frozen coefficient.

The evolution is

    du/dt = grad(J_eps u) . grad((-Delta)^-s v)  -  v (-Delta)^(1-s) (J_eps u)

with v held fixed in time and J_eps an optional mollification (epsilon = 0
drops it).  With v >= 0 the two terms combine into a divergence, so the
right-hand side has zero mean and the discrete L2 norm cannot grow beyond
time-stepping error.  Every product is dealiased on both factors and on the
result, which keeps those identities exact on the lattice.

The right-hand side is zero off the 2/3-rule band, so the RK4 state is the
band F of u's unnormalized ``rfftn`` (see :mod:`fpme.grid`), and the stages
combine band coefficients.  One right-hand side is
``filt * band_forward(sum_i c_i * band_inverse(M_i(filt * F)))``, the M_i
being the Laplacian symbol and the derivative along each axis
(grid._band_gradient, which on a signed axis swaps the cosine and sine
rows): dim + 1 inverse transforms and one forward transform, none of them
over a row off the band.  The dim + 1 inverses, and the dim + 1 of a
coefficient freeze, run in stacks of at most 256 KiB of real output per
band_inverse call, the budget grid._STACK_BYTES that the property suite of
fpme.diagnostics stacks its fields by too: one rule for every grid, one
call at 1-D, at 2-D n <= 64 and at 3-D n = 16, one call per array from 3-D
n = 32 on.  Both solvers step through _march, which
lands exactly on each stop time: solve_linear marches through the snapshot
times to t_end, and a Picard segment is one march.  _field returns the
state to real space once per step or segment, as
``u = u_start + band_inverse(F - F_start)``, so u keeps u_start's
coefficients off the band, and a state the right-hand side does not move
stays equal to u_start bit for bit.  A diagnostics record reads F and
u_start's off-band H^alpha power, which every state keeps, so it makes no
forward transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRecord, RecorderConfig, record
from .errors import BlowUp, GridMismatch
from .fracops import MollifierKernel
from .grid import (
    Grid, RealField, _band_gradient, _check_integer, _fields_per_stack, band_symbols
)
from .norms import DyadicPartition, _start_band, sobolev_norm

__all__ = [
    "LinearProblem",
    "TimeStepPolicy",
    "CoefficientOps",
    "make_coefficient_ops",
    "rhs_with_ops",
    "LinearSolution",
    "solve_linear",
]

_BLOWUP_LIMIT = 1e12


def _check_nonnegative(name: str, f: RealField) -> None:
    """The sign rule of a frozen coefficient, with a floor for roundoff."""
    low = float(np.min(f.values))
    if low < -1e-12:
        raise ValueError(f"{name} must be nonnegative, min is {low:.3e}")


# The parameter rules both solvers share; PicardConfig and parse_config call
# these rather than restate them.


def _check_order(s: float) -> None:
    if not (0.5 <= s < 1.0):
        raise ValueError(f"s must lie in [1/2, 1), got {s}")


def _check_radius(name: str, epsilon: float) -> None:
    if not (epsilon >= 0):
        raise ValueError(f"{name} must be >= 0, got {epsilon}")


def _check_safety(safety: float) -> None:
    if not (0.0 < safety <= 1.0):
        raise ValueError(f"safety must be in (0, 1], got {safety}")


def _check_positive(name: str, value: float) -> None:
    if not (value > 0):
        raise ValueError(f"{name} must be positive, got {value}")


def _check_snapshot_times(times, t_end: float) -> None:
    finite = all(math.isfinite(ts) and 0.0 <= ts <= t_end for ts in times)
    if not finite or len(set(times)) < len(times):
        raise ValueError(f"snapshot times must be distinct, finite and lie in "
                         f"[0, t_end = {t_end}], got {tuple(times)}")


@dataclass(frozen=True, eq=False)
class LinearProblem:
    """Frozen-coefficient problem data.

    Parameters
    ----------
    v:
        Transported-density coefficient.  Must be nonnegative, since it
        multiplies the dissipative term, up to a roundoff floor.
    u0:
        Initial state on the same grid.
    s:
        Inverse-Laplacian order, in [1/2, 1).
    epsilon:
        Mollification radius; 0 disables mollification.
    t_end:
        Final time, positive.
    """

    v: RealField
    u0: RealField
    s: float
    epsilon: float
    t_end: float

    def __post_init__(self):
        if self.v.grid != self.u0.grid:
            raise GridMismatch("v and u0 must share a grid")
        _check_order(self.s)
        _check_nonnegative("coefficient v", self.v)
        _check_radius("epsilon", self.epsilon)
        _check_positive("t_end", self.t_end)

    @property
    def grid(self) -> Grid:
        return self.v.grid


@dataclass(frozen=True)
class TimeStepPolicy:
    """Explicit RK4 step control.

    The step is safety / rho_est with
    rho_est = ||v||_inf xi_max^(2-2s) + ||grad p_v||_inf xi_max,
    capped at dt_max.  xi_max is the largest retained wavenumber magnitude.
    """

    dt_max: float
    safety: float = 0.5

    def __post_init__(self):
        _check_safety(self.safety)
        _check_positive("dt_max", self.dt_max)

    def step_size(self, rho_est: float) -> float:
        if rho_est <= 0:
            return self.dt_max
        return min(self.dt_max, self.safety / rho_est)


@dataclass(frozen=True, eq=False)
class CoefficientOps:
    """Everything derived from (v, s, epsilon) that the stepper reuses.

    Spectral arrays live on the 2/3-rule band, which is the dealias mask.
    filt is the mollifier kernel's read-only band_hat when epsilon > 0 and
    1.0 otherwise; grad_mults and lap_mult come read-only from the grid's
    cached band tables, shared by every freeze: lap_mult is dense on the
    band, and grad_mults is the table's grad, which grid._band_gradient
    applies.  coeffs stacks the dealiased real fields that multiply them,
    shape (dim + 1, *grid.shape): the components of grad p_v, then -v.  A
    freeze inverts these, and a right-hand side its dim + 1 multiplier
    products, in stacks of at most 256 KiB, one band_inverse call per
    stack.
    """

    grid: Grid
    filt: np.ndarray | float
    coeffs: np.ndarray
    grad_mults: tuple[np.ndarray, ...]
    lap_mult: np.ndarray
    rho_est: float


def make_coefficient_ops(
    v: RealField, s: float, epsilon: float, kernel: MollifierKernel | None = None
) -> CoefficientOps:
    g = v.grid
    vmax = float(np.max(np.abs(v.values)))
    return _freeze(g, g.band_forward(v.values), vmax, s, epsilon, kernel)


def _freeze(
    g: Grid,
    Fv: np.ndarray,
    vmax: float,
    s: float,
    epsilon: float,
    kernel: MollifierKernel | None = None,
) -> CoefficientOps:
    """The ops of the coefficient whose band coefficients are Fv and whose
    real samples have max|v| = vmax; no transform of v is made.  The dim + 1
    arrays of coeffs are inverted in stacks of at most _fields_per_stack,
    one band_inverse call per stack, into coeffs."""
    sym = band_symbols(g, -2.0 * s)
    filt = 1.0
    if epsilon > 0:
        filt = (kernel or MollifierKernel(g, epsilon)).band_hat

    Fp = Fv * sym.radial
    coeffs = np.empty((g.dim + 1, *g.shape))
    k = _fields_per_stack(g)
    for lo in range(0, g.dim + 1, k):
        rows = range(lo, min(lo + k, g.dim + 1))
        stack = np.empty((len(rows), *Fv.shape), dtype=complex)
        for out, i in zip(stack, rows):
            if i < g.dim:
                _band_gradient(sym.grad, Fp, i, out)
            else:
                np.negative(Fv, out=out)
        coeffs[rows.start : rows.stop] = g.band_inverse(stack)

    # sqrt is monotone and correctly rounded: the sqrt of the max is the
    # max of the sqrts, without a square-root array
    grad_p_max = math.sqrt(float(np.max(sum(gp**2 for gp in coeffs[:-1]))))
    xi_max = g.xi_max_retained
    rho_est = float(vmax * xi_max ** (2.0 - 2.0 * s) + grad_p_max * xi_max)
    return CoefficientOps(
        grid=g,
        filt=filt,
        coeffs=coeffs,
        grad_mults=sym.grad,
        lap_mult=band_symbols(g, 2.0 - 2.0 * s).radial,
        rho_est=rho_est,
    )


def _products(ops: CoefficientOps, Fu: np.ndarray, rows: range) -> np.ndarray:
    """Rows ``rows`` of the products of Fu a right-hand side inverts, stacked:
    row 0 is lap_mult * Fu, row 1 + ax the derivative of Fu along axis ax."""
    stack = np.empty((len(rows), *Fu.shape), dtype=complex)
    for out, i in zip(stack, rows):
        if i == 0:
            np.multiply(ops.lap_mult, Fu, out=out)
        else:
            _band_gradient(ops.grad_mults, Fu, i - 1, out)
    return stack


def _rhs_values(F: np.ndarray, ops: CoefficientOps) -> np.ndarray:
    """Right-hand side on the band coefficients F of the state.

    The products are summed in a fixed order, -v times the Laplacian term
    first, then each gradient term, whatever the stacking; r is a fresh
    array, and each stack and its inverse are dropped before the next."""
    g = ops.grid
    Fu = F * ops.filt
    k = _fields_per_stack(g)
    r = None
    for lo in range(0, g.dim + 1, k):
        # the stack is band_inverse's alone, which drops it after its first
        # pass; P is indexed, so no loop variable keeps a view of it alive
        P = g.band_inverse(_products(ops, Fu, range(lo, min(lo + k, g.dim + 1))))
        for j in range(len(P)):
            # product j pairs with coeffs row lo + j - 1: -v (row -1), then grad p
            c = ops.coeffs[lo + j - 1]
            if r is None:
                r = P[j] * c
            else:
                r += np.multiply(P[j], c, out=P[j])
        del P
    Fr = g.band_forward(r)
    Fr *= ops.filt
    return Fr


def rhs_with_ops(u: RealField, ops: CoefficientOps) -> RealField:
    """Right-hand side of the frozen-coefficient equation at state u."""
    g = ops.grid
    if u.grid != g:
        raise GridMismatch("state grid does not match coefficient grid")
    return RealField(g, g.band_inverse(_rhs_values(g.band_forward(u.values), ops)))


def _rk4_step(F: np.ndarray, dt: float, ops: CoefficientOps) -> np.ndarray:
    """One RK4 step of the band state F; F itself is not modified."""
    k1 = _rhs_values(F, ops)
    k2 = _rhs_values(F + (0.5 * dt) * k1, ops)
    k3 = _rhs_values(F + (0.5 * dt) * k2, ops)
    k4 = _rhs_values(F + dt * k3, ops)
    return F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(F: np.ndarray, ops: CoefficientOps, dt_cap: float, stops):
    """RK4 steps of F from t = 0, at most dt_cap each, landing exactly on each
    of the nondecreasing stop times in turn, a step that ends within
    1e-14 * stops[-1] of its stop being stretched onto it; yields
    (F, t, dt, landed), the last with t == stops[-1]."""
    t, i = 0.0, 0
    tiny = 1e-14 * stops[-1]
    while t < stops[-1]:
        target = stops[i]
        dt = min(dt_cap, target - t)
        landed = dt >= target - t - tiny
        F = _rk4_step(F, dt, ops)
        t = target if landed else t + dt
        i += landed
        yield F, t, dt, landed


def _values(
    u_start: RealField, F: np.ndarray, F_start: np.ndarray, t: float
) -> tuple[np.ndarray, float]:
    """Samples u of state F marched from u_start (band F_start), and
    max|u|; BlowUp at t."""
    u = u_start.values + u_start.grid.band_inverse(F - F_start)
    linf = float(np.max(np.abs(u)))
    if not math.isfinite(linf) or linf > _BLOWUP_LIMIT:
        raise BlowUp(t, linf)
    return u, linf


def _field(u_start: RealField, F: np.ndarray, F_start: np.ndarray, t: float) -> RealField:
    """State F marched from u_start (band F_start) in real space; BlowUp at t."""
    return RealField(u_start.grid, _values(u_start, F, F_start, t)[0])


@dataclass(eq=False)
class LinearSolution:
    final: RealField
    records: list[DiagnosticsRecord]
    snapshots: list[tuple[float, RealField]] = field(default_factory=list)


def solve_linear(
    problem: LinearProblem,
    policy: TimeStepPolicy,
    alpha: float,
    sample_every: int = 1,
    snapshot_times: tuple[float, ...] = (),
) -> LinearSolution:
    """Integrate the frozen-coefficient problem to t_end with explicit RK4.

    Diagnostics are recorded at t = 0, every sample_every accepted steps and
    at t_end.  Steps are clipped so requested snapshot times are hit
    exactly.  Raises ValueError, before any work, if sample_every is not an
    integer >= 1 or the snapshot times are not distinct and in [0, t_end],
    and BlowUp if the state leaves the finite range.
    """
    _check_integer("sample_every", sample_every, 1)
    _check_snapshot_times(snapshot_times, problem.t_end)
    g = problem.grid
    ops = make_coefficient_ops(problem.v, problem.s, problem.epsilon)
    recorder = RecorderConfig(
        alpha=alpha,
        partition=DyadicPartition(g),
        coefficient_scale=sobolev_norm(problem.v, alpha),
    )

    events = sorted(float(ts) for ts in snapshot_times if ts > 0.0)
    snapshots: list[tuple[float, RealField]] = []
    if 0.0 in snapshot_times:
        snapshots.append((0.0, problem.u0))

    final = problem.u0
    F_start, tail = _start_band(problem.u0, alpha)
    records = [record(problem.u0, 0.0, 0.0, recorder, None, (F_start, tail))]
    dt_base = policy.step_size(ops.rho_est)

    march = _march(F_start, ops, dt_base, (*events, problem.t_end))
    for steps, (F, t, dt, landed) in enumerate(march, start=1):
        final = _field(problem.u0, F, F_start, t)
        if landed and events:
            events.pop(0)
            snapshots.append((t, final))
        if steps % sample_every == 0 or t == problem.t_end:
            records.append(record(final, t, dt, recorder, records[-1], (F, tail)))
    return LinearSolution(final=final, records=records, snapshots=snapshots)
