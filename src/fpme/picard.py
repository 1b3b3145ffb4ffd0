"""Picard iteration for the fractional porous medium equation.

Each outer iterate solves the frozen-coefficient linear problem over the
existence window of :func:`horizon`, freezing the previous iterate's
trajectory at each sample time (piecewise-constant in time), until
consecutive trajectories agree in H^(alpha - 1) uniformly in time, below
tol_picard.  :func:`run_picard` recalibrates the window's Gronwall
constant, and :func:`_advance_iterate` marches one iterate on band states.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DiagnosticsRecord, RecorderConfig, growth_quotient, record
from .errors import NoConvergence
from .fracops import mollify
from .grid import RealField, _check_integer, band_symbols
from .linear import (
    TimeStepPolicy,
    _check_nonnegative,
    _check_order,
    _check_positive,
    _check_radius,
    _check_safety,
    _check_snapshot_times,
    _field,
    _freeze,
    _kernel,
    _march,
    _step_count,
    _values,
)
from .norms import DyadicPartition, _norm_of_rfft, _start_band, sobolev_norm

__all__ = [
    "PicardConfig",
    "PicardState",
    "PicardResult",
    "horizon",
    "run_picard",
]

_MAX_RECALIBRATIONS = 3


@dataclass(frozen=True)
class PicardConfig:
    """Iteration parameters.

    A positive epsilon_moll mollifies both the inner solver and the initial
    data; zero reproduces the plain scheme.  samples is the number of inner
    sample intervals per window: the coefficient refreezes and the
    trajectory is stored at that cadence, which also caps the RK4 step.
    """

    s: float
    alpha: float
    epsilon_moll: float = 0.0
    c_gronwall: float = 1.0
    tol_picard: float = 1e-8
    max_outer: int = 30
    t0_override: float | None = None
    samples: int = 400
    safety: float = TimeStepPolicy.safety

    def __post_init__(self):
        _check_order(self.s)
        if not (0 <= self.alpha < math.inf):
            raise ValueError(f"alpha must be >= 0 and finite, got {self.alpha}")
        _check_safety(self.safety)
        _check_radius("epsilon_moll", self.epsilon_moll)
        _check_positive("c_gronwall", self.c_gronwall)
        _check_positive("tol_picard", self.tol_picard)
        _check_integer("max_outer", self.max_outer, 1)
        if self.t0_override is not None:
            _check_positive("t0_override", self.t0_override)
        _check_integer("samples", self.samples, 2)


@dataclass(eq=False)
class PicardState:
    sup_halpha: list[float]
    deltas: list[float]
    converged: bool
    c_meas: list[float]
    min_u: list[float]


class _Trajectory(Sequence):
    """Read-only samples of a trajectory held as band states: item i is
    the RealField of states[i] marched from u_start, made on each access
    by linear._field, and a slice is the list of its items."""

    def __init__(self, u_start: RealField, states: list[np.ndarray], times: np.ndarray):
        self._start = u_start
        self._states = tuple(states)
        self._times = times

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, i: int | slice) -> RealField | list[RealField]:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return _field(self._start, self._states[i], self._states[0], float(self._times[i]))


@dataclass(eq=False)
class PicardResult:
    """The converged run.  trajectory is a read-only sequence of the m + 1
    samples at times, made from band states when read; snapshots holds the
    (t, field) of each requested time within the horizon, in time order."""

    times: np.ndarray
    trajectory: Sequence[RealField]
    state: PicardState
    records: list[DiagnosticsRecord]
    horizon: float
    c_gronwall: float
    snapshots: list[tuple[float, RealField]]


def horizon(u0: RealField, config: PicardConfig) -> float:
    """Existence window T0 = ln(2) / (2 C (1 + ||u0||_{H^alpha})), C the
    Gronwall constant; t0_override wins when set."""
    if config.t0_override is not None:
        return config.t0_override
    h0 = sobolev_norm(u0, config.alpha)
    return math.log(2.0) / (2.0 * config.c_gronwall * (1.0 + h0))


def _check_alpha(config: PicardConfig, dim: int) -> None:
    """The Picard space H^alpha must embed in C^1."""
    if not (config.alpha > dim / 2.0 + 1.0):
        raise ValueError(f"alpha must exceed dim/2+1, got {config.alpha} for dim={dim}")


def _validate_initial(u0: RealField, config: PicardConfig) -> None:
    _check_alpha(config, u0.grid.dim)
    _check_nonnegative("u0", u0)


def _iterate_policy(config: PicardConfig, t0: float, rho_est: float) -> TimeStepPolicy:
    """The step policy of every iterate of an attempt over the horizon t0:
    steps of at most one segment, t0 / samples.  Raises ValueError when a
    segment or the step at the rate rho_est underflows to 0, or when an
    iterate's segments take more than _STEP_BUDGET RK4 steps at that rate
    (linear._step_count)."""
    policy = TimeStepPolicy(dt_max=t0 / config.samples, safety=config.safety)
    _step_count(policy, rho_est, policy.dt_max, config.samples)
    return policy


def _advance_iterate(
    u_start: RealField,
    tail: float,
    prev: list[np.ndarray | None],
    config: PicardConfig,
    policy: TimeStepPolicy,
    ops,
    snaps: dict[int, dict[float, np.ndarray | None]] | None = None,
) -> tuple[list[np.ndarray], list[float], float, float]:
    """One outer Picard step: march the window from u_start, whose band is
    prev[0], whose off-band H^alpha power is tail and whose freeze is ops,
    freezing the band state prev[i] over segment i, of length
    dt_seg = policy.dt_max, under policy; prev is the previous trajectory,
    the band state of each of its samples.  snaps maps a segment i to
    the times t of [i dt_seg, (i + 1) dt_seg), or up to the horizon in the
    last segment; each is set to the band state of a march of its own
    from sample i under segment i's freeze, of length 0 at the sample.
    The segment march does not see them.

    The freeze is made once per distinct coefficient past the start, so
    the first iterate, whose prev repeats the start, makes none.  prev is
    consumed: each of its samples is dropped once it has been frozen and
    compared, so about one trajectory of band states is alive at a time.
    Each freeze reads its band state alone.  Returns the new trajectory's
    band states, their H^alpha norms, delta (the sup over samples of the
    H^(alpha-1) distance to prev) and the least value of any sample.  Both
    norms are band reductions, exact because every sample keeps u_start's
    coefficients off the band."""
    g, dt_seg = u_start.grid, policy.dt_max
    m = len(prev) - 1
    F = F_start = prev[0]
    new = [F_start]
    weight = band_symbols(g, config.alpha).sobolev
    weight_delta = band_symbols(g, config.alpha - 1.0).sobolev
    h_list = [_norm_of_rfft(g, F, weight, tail)]
    delta, min_u = 0.0, float(np.min(u_start.values))
    frozen, snaps = F_start, snaps or {}
    for i in range(m):
        Fv, prev[i] = prev[i], None
        if Fv is not frozen:
            frozen, ops = Fv, _freeze(g, Fv, config.s, config.epsilon_moll)
        seg = snaps.get(i, ())
        for ts in seg:
            seg[ts] = _landed(F, ops, policy, ts - i * dt_seg)
        F = _landed(F, ops, policy, dt_seg)
        u = _values(u_start, F, F_start, (i + 1) * dt_seg)
        new.append(F)
        min_u = min(min_u, float(np.min(u)))
        h_list.append(_norm_of_rfft(g, F, weight, tail))
        delta = max(delta, _norm_of_rfft(g, F - prev[i + 1], weight_delta))
    return new, h_list, delta, min_u


def _landed(F: np.ndarray, ops, policy: TimeStepPolicy, t: float) -> np.ndarray:
    """The band state F marched under the fixed ops to time t; F at t = 0."""
    for F, *_ in _march(F, lambda _: ops, policy, (t,)):
        pass
    return F


def _max_quotient(h_list: list[float], dt_seg: float, coeff_scale: float) -> float:
    return max(
        [0.0]
        + [growth_quotient(a, b, dt_seg, coeff_scale) for a, b in zip(h_list, h_list[1:])]
    )


def run_picard(
    u0: RealField, config: PicardConfig, snapshot_times: tuple[float, ...] = ()
) -> PicardResult:
    """Iterate to the fixed point of the frozen-coefficient map.

    An attempt whose first iterate's measured growth c_meas puts the bound
    sup_n ||u^n||_{H^alpha} <= 2 ||u0||_{H^alpha} at risk restarts with the
    Gronwall constant raised to max(1, 1.2 c_meas).  Each snapshot time
    within the horizon is hit exactly, in every iterate, by
    _advance_iterate; times past the horizon are left out.

    Raises ValueError, before any work, unless the snapshot times are
    distinct, finite and >= 0, and before an attempt's first step if its
    horizon is not positive and finite (an H^alpha norm of u0 that
    overflows makes it 0), if the start's step rate is not finite or its
    step underflows to 0, or if an iterate would take more than
    _STEP_BUDGET RK4 steps (_iterate_policy); these overflow without a
    RuntimeWarning.  Raises NoConvergence (carrying the delta sequence)
    when max_outer iterations do not bring consecutive trajectories within
    tol_picard, or when every attempt recalibrates the Gronwall constant.
    """
    _check_snapshot_times(snapshot_times, math.inf)
    _validate_initial(u0, config)
    g = u0.grid
    u_init = mollify(u0, _kernel(g, config.epsilon_moll)) if config.epsilon_moll > 0 else u0
    # the start, its freeze and its norms read no Gronwall constant, so
    # every attempt shares them
    with np.errstate(over="ignore", invalid="ignore"):
        h_u0 = sobolev_norm(u0, config.alpha)
        F_start, tail = _start_band(u_init, config.alpha)
        start = _freeze(g, F_start, config.s, config.epsilon_moll)
        h_init = sobolev_norm(u_init, config.alpha)
        min_init = float(np.min(u_init.values))
    m = config.samples

    cfg = config
    for _ in range(_MAX_RECALIBRATIONS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            t0 = horizon(u0, cfg)
            _check_positive("the Picard horizon", t0)
            policy = _iterate_policy(cfg, t0, start.rho_est)
        dt_seg = policy.dt_max
        times = np.arange(m + 1) * dt_seg
        snaps = {}
        for ts in sorted(ts for ts in snapshot_times if ts <= t0):
            i = min(int(np.searchsorted(times, ts, "right")) - 1, m - 1)
            snaps.setdefault(i, {})[ts] = None
        traj = [F_start] * (m + 1)
        state = PicardState(
            sup_halpha=[h_init],
            deltas=[],
            converged=False,
            c_meas=[0.0],
            min_u=[min_init],
        )
        while not state.converged and len(state.deltas) < cfg.max_outer:
            traj, h_list, delta_n, min_u = _advance_iterate(u_init, tail, traj, cfg, policy,
                                                            start, snaps)
            coeff_scale = state.sup_halpha[-1]
            c_meas_n = _max_quotient(h_list, dt_seg, coeff_scale)
            state.sup_halpha.append(max(h_list))
            state.deltas.append(delta_n)
            state.c_meas.append(c_meas_n)
            state.min_u.append(min_u)

            if len(state.deltas) == 1 and cfg.t0_override is None:
                c_new = max(1.0, 1.2 * c_meas_n)
                bound_at_risk = (
                    max(h_list) > 2.0 * h_u0
                    or c_meas_n * coeff_scale * t0 > 0.9 * math.log(2.0)
                )
                if c_new > cfg.c_gronwall * (1.0 + 1e-9) and bound_at_risk:
                    cfg = replace(cfg, c_gronwall=c_new)
                    break
            state.converged = delta_n < cfg.tol_picard
        else:
            break  # not recalibrated: this attempt stands
    else:
        raise NoConvergence(
            state.deltas, cfg.max_outer,
            f"recalibration budget exhausted: each of {_MAX_RECALIBRATIONS + 1} attempts "
            f"raised the Gronwall constant, the last to C = {cfg.c_gronwall:.6g}",
        )

    if not state.converged:
        raise NoConvergence(state.deltas, cfg.max_outer)

    trajectory = _Trajectory(u_init, traj, times)
    snapshots = [(ts, _field(u_init, F, F_start, ts))
                 for seg in snaps.values() for ts, F in seg.items()]
    stride = max(1, m // 100)
    recorder = RecorderConfig(
        alpha=cfg.alpha,
        partition=DyadicPartition(g),
        coefficient_scale=state.sup_halpha[-1],
    )
    records: list[DiagnosticsRecord] = []
    for i in (*range(0, m, stride), m):
        prev_rec = records[-1] if records else None
        records.append(record(
            trajectory[i], float(times[i]), dt_seg, recorder, prev_rec, (traj[i], tail)
        ))

    return PicardResult(times=times, trajectory=trajectory, state=state, records=records,
                        horizon=t0, c_gronwall=cfg.c_gronwall, snapshots=snapshots)
