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
being the derivative along each axis, which band_inverse takes inside its
own products, and the Laplacian symbol: dim + 1 inverse transforms and one
forward transform, none over a row off the band.  These inverses, and
those of a coefficient freeze, run in stacks of at most 256 KiB of real
output (grid._STACK_BYTES, the property suite's budget too): one stack at
1-D, at 2-D n <= 64 and at 3-D n = 16, two at 2-D n = 128, one per array
from 3-D n = 32 on.  Both run on a plan built once per grid (_plan), which
keeps one stack's buffers at every grid size, 7.3 MB at 3-D n = 64: every
stack runs in views of them, with one more last product past one stack,
and the right-hand side's band forward in the inverse's intermediates.
Each call overwrites them, which assumes fpme's one Python thread.  What a
caller keeps is fresh: the right-hand side, the band _rk4_step returns,
coeffs and _values' field.  Both solvers step
through _march, the one owner of the step rule: it reads the coefficient's
ops from a callable at each RK4 stage time, caps each step by the policy
and the ops at its start, and lands exactly on each stop time, here the
snapshot times and t_end of solve_linear's one freeze, or the end of a
Picard segment's.  _field returns the state to real space once per step or
segment, as ``u = u_start + band_inverse(F - F_start)``, so u keeps u_start's
coefficients off the band, and a state the right-hand side does not move
stays equal to u_start bit for bit.  A diagnostics record reads F and
u_start's off-band H^alpha power, which every state keeps, so it makes no
forward transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diagnostics import DiagnosticsRecord, RecorderConfig, record
from .errors import BlowUp, GridMismatch
from .fracops import MollifierKernel
from . import grid as grid_module
from .grid import Grid, RealField, _check_integer, _fields_per_stack, _products, _run, band_symbols
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
    if not (0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_rate(rho_est: float) -> None:
    if not math.isfinite(rho_est):
        raise ValueError(f"the frozen coefficient's step rate rho_est must be finite, "
                         f"got {rho_est}")


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
        Final time, positive and finite.
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
    capped at dt_max.  xi_max is the largest retained wavenumber magnitude,
    and v and grad p_v are the dealiased fields the stepper multiplies by,
    the rows of CoefficientOps.coeffs (v being -coeffs[-1]).  A rho_est
    that is not finite, or a step that underflows to 0, is a ValueError,
    not a zero or a dt_max step.
    """

    dt_max: float
    safety: float = 0.5

    def __post_init__(self):
        _check_safety(self.safety)
        _check_positive("dt_max", self.dt_max)

    def step_size(self, rho_est: float) -> float:
        _check_rate(rho_est)
        if rho_est <= 0:
            return self.dt_max
        step = min(self.dt_max, self.safety / rho_est)
        if step == 0.0:
            raise ValueError(f"the RK4 step safety / rho_est = {self.safety} / {rho_est:.6g} "
                             f"underflows to 0")
        return step


@dataclass(frozen=True, eq=False)
class CoefficientOps:
    """Everything derived from (v, s, epsilon) that the stepper reuses.

    Spectral arrays live on the 2/3-rule band, which is the dealias mask.
    filt is the mollifier kernel's read-only band_hat when epsilon > 0,
    cached per grid and radius and shared by every freeze, and 1.0
    otherwise; lap_mult is the grid's cached, read-only band table of
    |xi|^(2-2s), shared by every freeze.  coeffs stacks the dealiased real
    fields of shape (dim + 1, *grid.shape) that multiply the inverted rows
    of a right-hand side: the components of grad p_v, each the factor of
    the derivative along its axis, then -v, that of lap_mult * filt * F.
    """

    grid: Grid
    filt: np.ndarray | float
    coeffs: np.ndarray
    lap_mult: np.ndarray
    rho_est: float


def make_coefficient_ops(v: RealField, s: float, epsilon: float) -> CoefficientOps:
    return _freeze(v.grid, v.grid.band_forward(v.values), s, epsilon)


@lru_cache(maxsize=16)
def _band_hat(g: Grid, epsilon: float) -> np.ndarray:
    """The read-only band symbol of the mollifier at radius epsilon > 0 on
    g, built once per key; the kernel itself is not kept."""
    return MollifierKernel(g, epsilon).band_hat


def _freeze(g: Grid, Fv: np.ndarray, s: float, epsilon: float) -> CoefficientOps:
    """The ops of the coefficient whose band coefficients are Fv; no
    transform of v is made.  Each stack of the plan inverts its rows of
    coeffs straight into them, and rho_est reads them: max|v| from the
    dealiased -v of the last row, ||grad p_v||_inf from the others."""
    radial = band_symbols(g, -2.0 * s).radial
    filt = _band_hat(g, epsilon) if epsilon > 0 else 1.0
    Fp = Fv * radial
    coeffs = np.empty((g.dim + 1, *g.shape))
    for lo, hi, derivs, inp, steps in _plan(g, grid_module._STACK_BYTES)[0]:
        _run(steps, _stack(inp, derivs, Fp, np.negative, Fv), coeffs[lo:hi])

    # sqrt is monotone and correctly rounded: the sqrt of the max is the
    # max of the sqrts, without a square-root array; the squares and |v|
    # share one scratch array
    sq, scratch = np.square(coeffs[0]), np.empty(g.shape)
    for gp in coeffs[1:-1]:
        sq += np.square(gp, out=scratch)
    grad_p_max = math.sqrt(float(sq.max()))
    v_max = float(np.abs(coeffs[-1], out=scratch).max())
    xi_max = g.xi_max_retained
    rho_est = float(v_max * xi_max ** (2.0 - 2.0 * s) + grad_p_max * xi_max)
    lap_mult = band_symbols(g, 2.0 - 2.0 * s).radial
    return CoefficientOps(grid=g, filt=filt, coeffs=coeffs, lap_mult=lap_mult, rho_est=rho_est)


@lru_cache(maxsize=16)
def _plan(g: Grid, budget: int) -> tuple[list[tuple], list[tuple]]:
    """What a right-hand side and a freeze on g run, built once per grid
    and budget: (lo, hi, derivs, input, products) of each band inverse, at
    most _fields_per_stack rows of coeffs each, row i < dim differentiated
    along axis i, and the products of the right-hand side's band forward
    of r, the first inverse's first row.  Every stack runs in views of the
    first stack's input and intermediates, and the later ones share one
    last product, as the first's holds r; the forward runs in the first
    rows of the intermediates, which have its shapes in reverse order."""
    c, k = g.dealias_cutoff, _fields_per_stack(g)
    rows, stacks, shared = (*range(g.dim), None), [], []
    inp = np.zeros((min(k, g.dim + 1), *[2 * c + 1] * (g.dim - 1), c + 1), dtype=complex)
    for lo in range(0, g.dim + 1, k):
        derivs = rows[lo : lo + k]
        x = inp[: len(derivs)]
        steps = _products(g, x.view(float), derivs, g.dim, [y[: len(derivs)] for y in shared])
        stacks.append((lo, lo + len(derivs), derivs, x, steps))
        shared = [y for *_, y in stacks[0][4][:-1]] + [steps[-1][3]] * (lo > 0)
    *inner, (*_, last) = stacks[0][4]
    return stacks, _products(g, last[0], None, g.dim - 1, [y[0] for *_, y in inner[::-1]])


def _stack(inp: np.ndarray, derivs: tuple, Fd: np.ndarray, last, *args) -> np.ndarray:
    """One stack's input, as (re, im) pairs, in the buffer inp: Fd in each
    differentiated row, the ufunc last(*args) in the other."""
    inp[: len(derivs) - (derivs[-1] is None)] = Fd
    if derivs[-1] is None:
        last(*args, out=inp[-1])
    return inp.view(float)


def _rhs_values(F: np.ndarray, ops: CoefficientOps) -> np.ndarray:
    """Right-hand side on the band coefficients F of the state, a fresh
    array.

    Each inverted stack is multiplied by its rows of coeffs in place and
    added onto r, its first row, row by row in coeffs order, whatever the
    stacking."""
    stacks, forward = _plan(ops.grid, grid_module._STACK_BYTES)
    scalar = np.isscalar(ops.filt)
    Fu = F if scalar else F * ops.filt
    r = None
    for lo, hi, derivs, inp, steps in stacks:
        P = _run(steps, _stack(inp, derivs, Fu, np.multiply, ops.lap_mult, Fu))
        P *= ops.coeffs[lo:hi]
        if r is None:
            r, P = P[0], P[1:]
        for p in P:
            r += p
    Fr = _run(forward, r).view(complex)
    if not scalar:
        Fr *= ops.filt
    return Fr


def rhs_with_ops(u: RealField, ops: CoefficientOps) -> RealField:
    """Right-hand side of the frozen-coefficient equation at state u."""
    g = ops.grid
    if u.grid != g:
        raise GridMismatch("state grid does not match coefficient grid")
    return RealField(g, g.band_inverse(_rhs_values(g.band_forward(u.values), ops)))


def _rk4_step(F: np.ndarray, dt: float, ops: CoefficientOps, mid, end) -> np.ndarray:
    """One RK4 step of the band state F, which is not modified, with the ops
    at its start (k1), mid at its midpoint (k2, k3) and end at its end (k4)."""
    ks = [_rhs_values(F, ops)]
    t = np.empty_like(F)
    for c, stage in ((0.5 * dt, mid), (0.5 * dt, mid), (dt, end)):
        np.add(np.multiply(ks[-1], c, out=t), F, out=t)
        ks.append(_rhs_values(t, stage))
    k1, k2, k3, k4 = ks
    # F + dt / 6 (k1 + 2 k2 + 2 k3 + k4), summed left to right in k2
    np.add(k1, np.multiply(k2, 2.0, out=k2), out=k2)
    np.add(k2, np.multiply(k3, 2.0, out=k3), out=k2)
    k2 += k4
    k2 *= dt / 6.0
    return np.add(k2, F, out=k2)


def _march(F: np.ndarray, coeff, policy: TimeStepPolicy, stops):
    """RK4 steps of F from t = 0, coeff(t) giving the ops at each stage time
    t, each step at most policy.step_size of the ops at its start, landing
    exactly on each of the nondecreasing stop times in turn, a step that
    ends within 1e-14 * stops[-1] of its stop being stretched onto it;
    yields (F, t, dt, landed), the last with t == stops[-1]."""
    t, i = 0.0, 0
    tiny = 1e-14 * stops[-1]
    while t < stops[-1]:
        target, ops = stops[i], coeff(t)
        dt = min(policy.step_size(ops.rho_est), target - t)
        landed = dt >= target - t - tiny
        F = _rk4_step(F, dt, ops, coeff(t + 0.5 * dt), coeff(t + dt))
        t = target if landed else t + dt
        i += landed
        yield F, t, dt, landed


def _values(u_start: RealField, F: np.ndarray, F_start: np.ndarray, t: float) -> np.ndarray:
    """Samples u of state F marched from u_start (band F_start); BlowUp at
    t if max|u| leaves the finite range."""
    u = u_start.grid.band_inverse(F - F_start)
    u += u_start.values
    linf = float(np.max(np.abs(u)))
    if not math.isfinite(linf) or linf > _BLOWUP_LIMIT:
        raise BlowUp(t, linf)
    return u


def _field(u_start: RealField, F: np.ndarray, F_start: np.ndarray, t: float) -> RealField:
    """State F marched from u_start (band F_start) in real space; BlowUp at t."""
    return RealField(u_start.grid, _values(u_start, F, F_start, t))


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
    march = _march(F_start, lambda t: ops, policy, (*events, problem.t_end))
    for steps, (F, t, dt, landed) in enumerate(march, start=1):
        final = _field(problem.u0, F, F_start, t)
        if landed and events:
            events.pop(0)
            snapshots.append((t, final))
        if steps % sample_every == 0 or t == problem.t_end:
            records.append(record(final, t, dt, recorder, records[-1], (F, tail)))
    return LinearSolution(final=final, records=records, snapshots=snapshots)
