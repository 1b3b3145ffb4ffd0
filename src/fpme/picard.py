"""Picard iteration for the fractional porous medium equation.

Each outer iterate solves the frozen-coefficient linear problem over a
fixed existence window, with the coefficient re-frozen from the previous
iterate's trajectory at every inner sample time (piecewise-constant in
time).  The window is

    T0 = ln(2) / (2 C (1 + ||u0||_{H^alpha}))

with C the Gronwall constant: it starts at the configured value and is
recalibrated from the first iterate's measured growth if the uniform bound
sup_n ||u^n||_{H^alpha} <= 2 ||u0||_{H^alpha} would otherwise fail.
Convergence is declared when consecutive trajectories agree in
H^(alpha - 1) uniformly in time, below tol_picard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DiagnosticsRecord, RecorderConfig, record
from .errors import NoConvergence
from .fracops import MollifierKernel, mollify
from .grid import RealField
from .linear import TimeStepPolicy, _check_state, _rk4_step, make_coefficient_ops, rhs_with_ops
from .norms import DyadicPartition, lp_norm, sobolev_norm

__all__ = [
    "PicardConfig",
    "PicardState",
    "PicardResult",
    "horizon",
    "run_picard",
    "uniqueness_probe",
    "nonlinear_residual",
]

_MAX_RECALIBRATIONS = 3


@dataclass(frozen=True)
class PicardConfig:
    """Iteration parameters.

    epsilon_moll feeds both the inner solver's mollifier and (when
    mollify_initial is set) the initial data; zero reproduces the plain
    scheme.  samples is the number of inner sample intervals per window;
    the coefficient refreezes and the trajectory is stored at that cadence,
    and the inner RK4 step is capped by the same interval.
    """

    s: float
    alpha: float
    epsilon_moll: float = 0.0
    c_gronwall: float = 1.0
    tol_picard: float = 1e-8
    max_outer: int = 30
    t0_override: float | None = None
    samples: int = 400
    safety: float = 0.5
    mollify_initial: bool = True

    def __post_init__(self):
        if not (0.5 <= self.s < 1.0):
            raise ValueError(f"s must lie in [1/2, 1), got {self.s}")
        if self.epsilon_moll < 0:
            raise ValueError(f"epsilon_moll must be >= 0, got {self.epsilon_moll}")
        if not (self.c_gronwall > 0):
            raise ValueError(f"c_gronwall must be positive, got {self.c_gronwall}")
        if not (self.tol_picard > 0):
            raise ValueError(f"tol_picard must be positive, got {self.tol_picard}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if self.t0_override is not None and not (self.t0_override > 0):
            raise ValueError(f"t0_override must be positive, got {self.t0_override}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")


@dataclass(eq=False)
class PicardState:
    iterates: list[RealField]
    sup_halpha: list[float]
    deltas: list[float]
    converged: bool
    c_meas: list[float]
    min_u: list[float]


@dataclass(eq=False)
class PicardResult:
    times: np.ndarray
    trajectory: list[RealField]
    state: PicardState
    records: list[DiagnosticsRecord]
    horizon: float
    c_gronwall: float


def horizon(u0: RealField, config: PicardConfig) -> float:
    """Existence window; t0_override wins when set."""
    if config.t0_override is not None:
        return config.t0_override
    h0 = sobolev_norm(u0, config.alpha)
    return math.log(2.0) / (2.0 * config.c_gronwall * (1.0 + h0))


def _validate_initial(u0: RealField, config: PicardConfig) -> None:
    d = u0.grid.dim
    if not (config.alpha > d / 2.0 + 1.0):
        raise ValueError(
            f"alpha must exceed dim/2+1, got {config.alpha} for dim={d}"
        )
    if float(np.min(u0.values)) < -1e-12:
        raise ValueError(
            f"u0 must be nonnegative, min is {float(np.min(u0.values)):.3e}"
        )


def _advance_iterate(
    u_start: RealField,
    coeff_traj: list[RealField],
    config: PicardConfig,
    dt_seg: float,
    kernel: MollifierKernel | None,
):
    """One outer Picard step: march the window, re-freezing the coefficient
    from coeff_traj at every segment.  Returns the new trajectory and its
    per-sample H^alpha norms."""
    g = u_start.grid
    policy = TimeStepPolicy(dt_max=dt_seg, safety=config.safety)
    m = len(coeff_traj) - 1
    u = u_start.values.copy()
    traj = [u_start]
    h_list = [sobolev_norm(u_start, config.alpha)]
    tiny = 1e-14 * dt_seg
    for i in range(m):
        ops = make_coefficient_ops(coeff_traj[i], config.s, config.epsilon_moll, kernel)
        dt_cap = policy.step_size(ops.rho_est)
        tau = 0.0
        while tau < dt_seg - tiny:
            dt = min(dt_cap, dt_seg - tau)
            u = _rk4_step(u, dt, ops)
            tau = dt_seg if dt >= dt_seg - tau - tiny else tau + dt
        _check_state(u, (i + 1) * dt_seg)
        field = RealField(g, u.copy())
        traj.append(field)
        h_list.append(sobolev_norm(field, config.alpha))
    return traj, h_list


def _max_quotient(h_list: list[float], dt_seg: float, coeff_scale: float) -> float:
    if coeff_scale <= 0:
        return 0.0
    best = 0.0
    for a, b in zip(h_list, h_list[1:]):
        if a > 0 and b > 0:
            best = max(best, math.log(b / a) / (dt_seg * coeff_scale))
    return best


def run_picard(u0: RealField, config: PicardConfig) -> PicardResult:
    """Iterate to the fixed point of the frozen-coefficient map.

    Raises NoConvergence (carrying the delta sequence) when max_outer
    iterations do not bring consecutive trajectories within tol_picard in
    the sup-in-time H^(alpha-1) distance.
    """
    _validate_initial(u0, config)
    g = u0.grid
    kernel = (
        MollifierKernel(g, config.epsilon_moll) if config.epsilon_moll > 0 else None
    )
    u_init = mollify(u0, kernel) if (kernel is not None and config.mollify_initial) else u0
    h_u0 = sobolev_norm(u0, config.alpha)
    m = config.samples

    cfg = config
    for _ in range(_MAX_RECALIBRATIONS + 1):
        t0 = horizon(u0, cfg)
        dt_seg = t0 / m
        prev_traj = [u_init] * (m + 1)
        prev_h = [sobolev_norm(u_init, cfg.alpha)] * (m + 1)
        state = PicardState(
            iterates=[u_init],
            sup_halpha=[max(prev_h)],
            deltas=[],
            converged=False,
            c_meas=[0.0],
            min_u=[float(np.min(u_init.values))],
        )
        restart = False
        for n in range(2, cfg.max_outer + 2):
            traj, h_list = _advance_iterate(u_init, prev_traj, cfg, dt_seg, kernel)
            coeff_scale = max(prev_h)
            c_meas_n = _max_quotient(h_list, dt_seg, coeff_scale)
            delta_n = max(
                sobolev_norm(RealField(g, a.values - b.values), cfg.alpha - 1.0)
                for a, b in zip(traj, prev_traj)
            )
            state.iterates.append(traj[-1])
            state.sup_halpha.append(max(h_list))
            state.deltas.append(delta_n)
            state.c_meas.append(c_meas_n)
            state.min_u.append(min(float(np.min(f.values)) for f in traj))

            if n == 2 and cfg.t0_override is None:
                c_new = max(1.0, 1.2 * c_meas_n)
                bound_at_risk = (
                    max(h_list) > 2.0 * h_u0
                    or c_meas_n * coeff_scale * t0 > 0.9 * math.log(2.0)
                )
                if c_new > cfg.c_gronwall * (1.0 + 1e-9) and bound_at_risk:
                    cfg = replace(cfg, c_gronwall=c_new)
                    restart = True
                    break

            if delta_n < cfg.tol_picard:
                state.converged = True
                prev_traj, prev_h = traj, h_list
                break
            prev_traj, prev_h = traj, h_list
        if not restart:
            break

    deltas = state.deltas
    if not state.converged:
        raise NoConvergence(deltas, cfg.max_outer)

    times = np.arange(m + 1) * dt_seg
    stride = max(1, m // 100)
    recorder = RecorderConfig(
        alpha=cfg.alpha,
        partition=DyadicPartition(g),
        coefficient_scale=max(prev_h),
    )
    records: list[DiagnosticsRecord] = []
    for i in range(0, m + 1, stride):
        prev_rec = records[-1] if records else None
        records.append(record(prev_traj[i], float(times[i]), dt_seg, recorder, prev_rec))
    if (m % stride) != 0:
        records.append(record(prev_traj[m], float(times[m]), dt_seg, recorder, records[-1]))

    return PicardResult(
        times=times,
        trajectory=prev_traj,
        state=state,
        records=records,
        horizon=t0,
        c_gronwall=cfg.c_gronwall,
    )


def nonlinear_residual(
    result: PicardResult, s: float, stride: int = 4
) -> list[tuple[float, float]]:
    """L2 defect of the converged trajectory against the nonlinear equation.

    The time derivative is a central difference across stride sample
    intervals; the right-hand side is the unmollified operator with the
    trajectory itself as coefficient.
    """
    times, fields = result.times, result.trajectory
    out = []
    m = len(fields) - 1
    for i in range(stride, m - stride + 1, stride):
        dt_window = float(times[i + stride] - times[i - stride])
        dtu = (fields[i + stride].values - fields[i - stride].values) / dt_window
        ops = make_coefficient_ops(fields[i], s, 0.0)
        rhs_i = rhs_with_ops(fields[i], ops)
        defect = RealField(fields[i].grid, dtu - rhs_i.values)
        out.append((float(times[i]), lp_norm(defect, 2)))
    return out


def uniqueness_probe(u0: RealField, config: PicardConfig, delta_seed: RealField) -> float:
    """Growth ratio sup_t ||u_pert(t) - u(t)||_L2 / ||delta_seed||_L2.

    Both runs share the base run's window and Gronwall constant so their
    sample grids coincide.  A zero perturbation returns 1 by convention.
    """
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
