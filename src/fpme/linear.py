"""Linear degenerate diffusion-transport solver with a frozen coefficient.

The evolution is

    du/dt = grad(J_eps u) . grad((-Delta)^-s v)  -  v (-Delta)^(1-s) (J_eps u)

with v held fixed in time and J_eps an optional mollification (epsilon = 0
drops it).  With v >= 0 the two terms combine into a divergence, so the
right-hand side has zero mean and the discrete L2 norm cannot grow beyond
time-stepping error.  Every product is dealiased on both factors and on the
result, which keeps those identities exact on the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRecord, RecorderConfig, record
from .errors import BlowUp, GridMismatch
from .fracops import MollifierKernel
from .grid import Grid, RealField, half_spectrum_symbols
from .norms import DyadicPartition, lp_norm, sobolev_norm

__all__ = [
    "LinearProblem",
    "TimeStepPolicy",
    "CoefficientOps",
    "make_coefficient_ops",
    "rhs",
    "rhs_with_ops",
    "LinearSolution",
    "solve_linear",
    "positivity_report",
]

_BLOWUP_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class LinearProblem:
    """Frozen-coefficient problem data.

    Parameters
    ----------
    v:
        Transported-density coefficient.  Must be nonnegative, since it
        multiplies the dissipative term; a -1e-12 floor absorbs roundoff.
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
        if not (0.5 <= self.s < 1.0):
            raise ValueError(f"s must lie in [1/2, 1), got {self.s}")
        if float(np.min(self.v.values)) < -1e-12:
            raise ValueError(
                f"coefficient v must be nonnegative, min is {float(np.min(self.v.values)):.3e}"
            )
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not (self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")

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
        if not (0.0 < self.safety <= 1.0):
            raise ValueError(f"safety must be in (0, 1], got {self.safety}")
        if not (self.dt_max > 0):
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")

    def step_size(self, rho_est: float) -> float:
        if rho_est <= 0:
            return self.dt_max
        return min(self.dt_max, self.safety / rho_est)


@dataclass(frozen=True, eq=False)
class CoefficientOps:
    """Everything derived from (v, s, epsilon) that the stepper reuses.

    Spectral arrays live on the rfftn half-spectrum.  filt is the dealias
    mask, times the mollifier symbol when epsilon > 0; grad_mults and
    lap_mult come read-only from the grid's shared symbol table.
    """

    grid: Grid
    s: float
    epsilon: float
    filt: np.ndarray
    v_values: np.ndarray
    grad_p_values: tuple[np.ndarray, ...]
    grad_mults: tuple[np.ndarray, ...]
    lap_mult: np.ndarray
    rho_est: float


def make_coefficient_ops(
    v: RealField, s: float, epsilon: float, kernel: MollifierKernel | None = None
) -> CoefficientOps:
    g = v.grid
    axes = g.fft_axes
    sym = half_spectrum_symbols(g, -2.0 * s)
    lap = half_spectrum_symbols(g, 2.0 - 2.0 * s)

    filt = sym.mask
    if epsilon > 0:
        if kernel is None:
            kernel = MollifierKernel(g, epsilon)
        # The kernel symbol is even, so its leading columns are the half-spectrum.
        filt = filt * kernel.kernel_hat[..., : filt.shape[-1]]
        filt.setflags(write=False)

    Fv = np.fft.rfftn(v.values, axes=axes)
    Fv *= sym.mask
    v_d = np.fft.irfftn(Fv, s=g.shape, axes=axes)
    Fp = Fv * sym.radial
    grad_p = [np.fft.irfftn(gm * Fp, s=g.shape, axes=axes) for gm in sym.grad]

    grad_p_mag = np.sqrt(sum(gp**2 for gp in grad_p))
    xi_max = g.xi_max_retained
    rho_est = float(
        np.max(np.abs(v.values)) * xi_max ** (2.0 - 2.0 * s)
        + np.max(grad_p_mag) * xi_max
    )
    return CoefficientOps(
        grid=g,
        s=s,
        epsilon=epsilon,
        filt=filt,
        v_values=v_d,
        grad_p_values=tuple(grad_p),
        grad_mults=sym.grad,
        lap_mult=lap.radial,
        rho_est=rho_est,
    )


def _rhs_values(u_values: np.ndarray, ops: CoefficientOps) -> np.ndarray:
    shape, axes = ops.grid.shape, ops.grid.fft_axes
    Fu = np.fft.rfftn(u_values, axes=axes)
    Fu *= ops.filt
    r = np.zeros(shape)
    for gm, gp in zip(ops.grad_mults, ops.grad_p_values):
        r += np.fft.irfftn(gm * Fu, s=shape, axes=axes) * gp
    r -= ops.v_values * np.fft.irfftn(ops.lap_mult * Fu, s=shape, axes=axes)
    Fr = np.fft.rfftn(r, axes=axes)
    Fr *= ops.filt
    return np.fft.irfftn(Fr, s=shape, axes=axes)


def rhs_with_ops(u: RealField, ops: CoefficientOps) -> RealField:
    if u.grid != ops.grid:
        raise GridMismatch("state grid does not match coefficient grid")
    return RealField(ops.grid, _rhs_values(u.values, ops))


def rhs(u: RealField, problem: LinearProblem) -> RealField:
    """Right-hand side of the frozen-coefficient equation at state u."""
    if u.grid != problem.grid:
        raise GridMismatch("state grid does not match problem grid")
    ops = make_coefficient_ops(problem.v, problem.s, problem.epsilon)
    return rhs_with_ops(u, ops)


def _rk4_step(u: np.ndarray, dt: float, ops: CoefficientOps) -> np.ndarray:
    k1 = _rhs_values(u, ops)
    k2 = _rhs_values(u + (0.5 * dt) * k1, ops)
    k3 = _rhs_values(u + (0.5 * dt) * k2, ops)
    k4 = _rhs_values(u + dt * k3, ops)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_state(u: np.ndarray, t: float) -> float:
    linf = float(np.max(np.abs(u)))
    if not math.isfinite(linf) or linf > _BLOWUP_LIMIT:
        raise BlowUp(t, linf)
    return linf


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
    recorder: RecorderConfig | None = None,
) -> LinearSolution:
    """Integrate the frozen-coefficient problem to t_end with explicit RK4.

    Diagnostics are recorded at t = 0, every sample_every accepted steps and
    at t_end.  Steps are clipped so requested snapshot times are hit
    exactly.  Raises BlowUp if the state leaves the finite range.
    """
    g = problem.grid
    ops = make_coefficient_ops(problem.v, problem.s, problem.epsilon)
    if recorder is None:
        recorder = RecorderConfig(
            alpha=alpha,
            partition=DyadicPartition(g),
            coefficient_scale=sobolev_norm(problem.v, alpha),
        )

    events = sorted({float(ts) for ts in snapshot_times if 0.0 < ts <= problem.t_end})
    snapshots: list[tuple[float, RealField]] = []
    if any(ts == 0.0 for ts in snapshot_times):
        snapshots.append((0.0, problem.u0))

    u = problem.u0.values.copy()
    t = 0.0
    records = [record(problem.u0, 0.0, 0.0, recorder, None)]
    steps = 0
    dt_base = policy.step_size(ops.rho_est)
    tiny = 1e-14 * problem.t_end

    while t < problem.t_end - tiny:
        target = events[0] if events else problem.t_end
        dt = min(dt_base, target - t)
        landed = dt >= target - t - tiny
        u = _rk4_step(u, dt, ops)
        t = target if landed else t + dt
        _check_state(u, t)
        steps += 1
        if landed and events:
            events.pop(0)
            snapshots.append((t, RealField(g, u.copy())))
        if steps % sample_every == 0 or t >= problem.t_end - tiny:
            records.append(record(RealField(g, u), t, dt, recorder, records[-1]))

    final = RealField(g, u)
    if records[-1].t < problem.t_end - tiny:
        records.append(record(final, problem.t_end, 0.0, recorder, records[-1]))
    return LinearSolution(final=final, records=records, snapshots=snapshots)


def positivity_report(
    records: list[DiagnosticsRecord], u0: RealField
) -> tuple[float, float | None]:
    """Minimum of u over the sampled run and the first time it dips below
    -1e-8 * ||u0||_inf (None if it never does).  Monitoring only."""
    tol_pos = 1e-8 * lp_norm(u0, np.inf)
    min_over_run = min(r.min_u for r in records)
    first_violation = next((r.t for r in records if r.min_u < -tol_pos), None)
    return min_over_run, first_violation
