"""Flat key-value run configuration.

A config document is lines of ``key = value`` with ``#`` comments.  Keys
are namespaced with dots; unknown keys are rejected, and every value is
parsed whatever the mode.  parse_config returns a fully validated RunSpec;
--set overrides are applied before validation.
The solver keys are checked by the solver's own PicardConfig and
TimeStepPolicy, which RunSpec carries.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import _COMMUTATOR_ALPHA, FieldGenerator, _check_suite
from .errors import ParseError, UnresolvedKernel, ValidationError
from .grid import Grid, RealField, _check_integer
from .linear import (
    LinearProblem,
    TimeStepPolicy,
    _band_hat,
    _check_positive,
    _check_rate,
    _check_snapshot_times,
    make_coefficient_ops,
)
from .norms import _block_indices, sobolev_norm
from .picard import PicardConfig, _check_alpha, _validate_initial, horizon

__all__ = ["RunSpec", "parse_config", "MODES"]

MODES = ("linear", "picard", "sweep_epsilon", "properties")


@dataclass(frozen=True)
class RunSpec:
    """Resolved, validated description of one CLI job.

    picard carries s, alpha, epsilon and safety in every mode, and the
    Picard knobs only as a picard document sets them.  policy is the RK4
    step policy of linear and sweep_epsilon runs and None in the other modes.
    u0 (every solver mode) and problem (linear and sweep_epsilon, at
    solver.epsilon) are the generated run; == reads their generators.
    """

    mode: str
    grid: Grid
    picard: PicardConfig
    policy: TimeStepPolicy | None
    sample_every: int
    initial: FieldGenerator | None
    coefficient: FieldGenerator | None
    u0: RealField | None = field(compare=False)
    problem: LinearProblem | None = field(compare=False)
    output_dir: str
    snapshot_times: tuple[float, ...]
    epsilons: tuple[float, ...]
    properties_seed: int
    properties_count: int
    echo: dict = field(default_factory=dict, compare=False)

    @property
    def s(self) -> float:
        return self.picard.s

    @property
    def alpha(self) -> float:
        return self.picard.alpha

    @property
    def epsilon(self) -> float:
        return self.picard.epsilon_moll


def _tokenize(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


def _floats(value: str) -> tuple[float, ...]:
    if not value.strip():
        return ()
    return tuple(float(tok) for tok in value.split(","))


# config key -> parser: every key a document may set.  Every value is
# parsed, whether or not the mode reads it.
_KEYS = {
    "grid.dim": int, "grid.n": int, "grid.length": float,
    "solver.s": float, "solver.alpha": float, "solver.epsilon": float,
    "solver.t_end": float, "solver.safety": float, "solver.dt_max": float,
    "solver.sample_every": int, "solver.samples": int, "solver.tol_picard": float,
    "solver.max_outer": int, "solver.c_gronwall": float, "solver.t0_override": float,
    "initial.kind": str, "initial.seed": int, "initial.amplitude": float,
    "initial.width": float,
    "coefficient.kind": str, "coefficient.seed": int, "coefficient.amplitude": float,
    "coefficient.width": float,
    "output.dir": str, "output.snapshot_times": _floats,
    "sweep.epsilons": _floats,
    "properties.seed": int, "properties.count": int,
}

# config key -> PicardConfig field.  A key is passed only when the document
# sets it, so the dataclass defaults are the only defaults.
_PICARD_FIELDS = {
    "solver.epsilon": "epsilon_moll",
    "solver.c_gronwall": "c_gronwall",
    "solver.tol_picard": "tol_picard",
    "solver.max_outer": "max_outer",
    "solver.t0_override": "t0_override",
    "solver.samples": "samples",
    "solver.safety": "safety",
}

# parser -> what a ParseError says the key needs
_NEEDS = {
    float: "a number",
    int: "an integer",
    _floats: "comma-separated numbers",
}

# mode -> the keys it cannot run without
_EVERY_MODE = ("grid.dim", "grid.n", "grid.length", "output.dir")
_REQUIRED = {
    "linear": (*_EVERY_MODE, "solver.t_end", "initial.kind", "coefficient.kind"),
    "picard": (*_EVERY_MODE, "initial.kind"),
    "sweep_epsilon": (*_EVERY_MODE, "solver.t_end", "initial.kind", "coefficient.kind"),
    "properties": _EVERY_MODE,
}

# config key -> the modes that run the one solver reading it; any other
# mode rejects the key.  The solver keys both solvers read are not listed.
_READERS = {
    **dict.fromkeys(("solver.t_end", "solver.dt_max", "solver.sample_every"),
                    ("linear", "sweep_epsilon")),
    **dict.fromkeys(("solver.samples", "solver.tol_picard", "solver.max_outer",
                     "solver.c_gronwall", "solver.t0_override"), ("picard",)),
}

# linear and sweep_epsilon cap their RK4 step at t_end / _STEPS by default
_STEPS = 400

# the most RK4 steps a linear solve or a Picard iterate may take, counted at
# the first freeze; every shipped config takes at most _STEPS
_STEP_BUDGET = 10**6


def _check_weights(grid: Grid, alpha: float, cause: str) -> None:
    """The largest H^alpha weight on grid, fold 2 times (1 + |xi|**2)**alpha
    at the half spectrum's corner, and the largest Besov weight
    2**(j_top * alpha) must be floats.  Compared in log space, since a
    float ** past the largest float raises; cause leads the message."""
    logs = (math.log(2.0) + alpha * math.log1p(grid.xi_squared_max),
            alpha * _block_indices(grid)[-1] * math.log(2.0))
    top = math.log(sys.float_info.max)
    if max(logs) >= top:
        raise ValueError(
            f"{cause} overflows this grid's norm weights: the largest "
            f"H^alpha weight is e^{logs[0]:.6g} and Besov weight e^{logs[1]:.6g}, and "
            f"the largest float is e^{top:.6g}"
        )


def _parse(entries: dict[str, tuple[str, int]]) -> dict:
    """Each entry's value by its key's parser, in document order.

    An unknown key or a malformed value is a ParseError that names the
    entry's file line, or only the key for a --set override (line 0).
    """
    values = {}
    for key, (text, lineno) in entries.items():
        where = f"line {lineno}: " if lineno else ""
        parse = _KEYS.get(key)
        if parse is None:
            raise ParseError(f"{where}unknown key {key!r}")
        try:
            values[key] = parse(text)
        except ValueError:
            raise ParseError(f"{where}key {key!r} needs {_NEEDS[parse]}, got {text!r}")
    return values


def _generator(values: dict, prefix: str, grid: Grid) -> FieldGenerator | None:
    kind = values.get(f"{prefix}.kind")
    if kind is None:
        return None
    gen = FieldGenerator(
        kind=kind,
        seed=values.get(f"{prefix}.seed", 0),
        amplitude=values.get(f"{prefix}.amplitude", 0.5),
        width=values.get(f"{prefix}.width", grid.side_length / 8.0),
    )
    try:
        gen.check(grid)
    except ValueError as exc:
        raise ValidationError(f"{prefix}.{exc}") from exc
    return gen


def parse_config(text: str, mode: str, overrides: dict[str, str] | None = None) -> RunSpec:
    """Parse and validate a config document for one mode.

    mode is the CLI positional, one of MODES.  overrides are --set pairs,
    applied on top of the file.  A key of _READERS outside its modes is a
    ValidationError.  The solver keys build a PicardConfig in every mode
    and a TimeStepPolicy for linear and sweep_epsilon, whose dt_max
    defaults to t_end / _STEPS; those classes hold the other defaults and
    the range checks, and their ValueErrors become ValidationErrors here.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    entries = _tokenize(text)
    for key, value in (overrides or {}).items():
        entries[key] = (value, 0)
    values = _parse(entries)
    get = values.get

    for key in _REQUIRED[mode]:
        if key not in values:
            raise ValidationError(f"{key} is required for mode {mode}")
    for key in values:
        readers = _READERS.get(key, MODES)
        if mode not in readers:
            raise ValidationError(
                f"{key} is read only by mode{'s' * (len(readers) > 1)} "
                f"{' and '.join(readers)}, not by mode {mode}"
            )
    stepped = mode in _READERS["solver.t_end"]

    dim, t_end = values["grid.dim"], get("solver.t_end")
    sample_every = get("solver.sample_every", 1)
    properties_seed = get("properties.seed", 0)
    properties_count = get("properties.count", 100)
    try:
        grid = Grid(dim, values["grid.n"], values["grid.length"])
        if stepped:
            _check_positive("solver.t_end", t_end)
        _check_integer("solver.sample_every", sample_every, 1)
        _check_suite(properties_seed, properties_count, "properties.")
        picard = PicardConfig(
            s=get("solver.s", 0.75),
            alpha=get("solver.alpha", dim / 2.0 + 1.1),
            **{name: values[key] for key, name in _PICARD_FIELDS.items() if key in values},
        )
        if mode == "picard":
            _check_alpha(picard, dim)
        if mode == "properties":
            _check_weights(grid, _COMMUTATOR_ALPHA, f"grid.length = {grid.side_length} with "
                           f"the property suite's commutator alpha = {_COMMUTATOR_ALPHA}")
        else:
            _check_weights(grid, picard.alpha, f"solver.alpha = {picard.alpha}")
        policy = None
        if stepped:
            policy = TimeStepPolicy(
                dt_max=get("solver.dt_max", t_end / _STEPS), safety=picard.safety
            )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    initial = _generator(values, "initial", grid)
    coefficient = _generator(values, "coefficient", grid)
    # The fields the run starts from, under the solvers' own input checks:
    # past those above, only the sign of the first frozen coefficient can
    # fail them.  Then the first freeze's step rate, the initial datum's
    # H^alpha norm, which bounds every norm a record takes, and in picard the
    # horizon, which an amplitude too large for floats makes inf and 0; the
    # overflow is the error, not a warning.  rho_est does not depend on the radius.
    u0 = problem = None
    prefix, gen = "initial", initial
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if mode == "picard":
                u0 = v = initial.generate(grid)
                _validate_initial(v, picard)
                t0 = horizon(v, picard)
                _check_positive("the Picard horizon", t0)
            elif stepped:
                u0 = initial.generate(grid)
                h0 = sobolev_norm(u0, picard.alpha)
                if not math.isfinite(h0):
                    raise ValueError(f"the initial datum's H^alpha norm at alpha = "
                                     f"{picard.alpha} is {h0}, not finite")
                prefix, gen, v = "coefficient", coefficient, coefficient.generate(grid)
                problem = LinearProblem(v=v, u0=u0, s=picard.s,
                                        epsilon=picard.epsilon_moll, t_end=t_end)
            if mode != "properties":
                rho_est = make_coefficient_ops(v, picard.s, 0.0).rho_est
                _check_rate(rho_est)
    except ValueError as exc:
        raise ValidationError(
            f"{prefix}.kind = {gen.kind} with {prefix}.amplitude = {gen.amplitude}: {exc}"
        ) from exc

    # The RK4 steps of a solve, or of a Picard iterate's segments, at the
    # first freeze's step: a float, so that a count past the floats is inf.
    if mode != "properties":
        if stepped:
            run = f"each solve: solver.t_end = {t_end}"
            cap, fld = "solver.dt_max, solver.safety", "coefficient"
        else:
            m, dt_seg = picard.samples, t0 / picard.samples
            run = (f"each Picard iterate: solver.samples = {m} segments of the horizon "
                   f"{t0:.6g} (solver.c_gronwall, solver.t0_override)")
            cap, fld = "solver.safety", "initial"
        try:  # a segment or a step that underflows to 0
            rule = policy if stepped else TimeStepPolicy(dt_max=dt_seg, safety=picard.safety)
            step = rule.step_size(rho_est)
        except ValueError as exc:
            raise ValidationError(f"{run}: {exc}") from exc
        steps = t_end / step if stepped else m * float(np.ceil(dt_seg / step))
        if not steps <= _STEP_BUDGET:
            raise ValidationError(
                f"{steps:.3g} RK4 steps, past the budget of {_STEP_BUDGET:,}, in {run}, in "
                f"steps of at most {step:.3g} ({cap}, and the step rate {rho_est:.3g} of the "
                f"{fld}.* field on grid.length = {grid.side_length})"
            )

    snapshot_times = get("output.snapshot_times", ())
    # picard saves the stored samples up to its horizon, which is not known yet
    last = t_end if stepped else math.inf
    try:
        _check_snapshot_times(snapshot_times, last)
    except ValueError as exc:
        raise ValidationError(f"output.snapshot_times: {exc}") from exc

    epsilons = get("sweep.epsilons", (0.4, 0.2, 0.1))
    if mode == "sweep_epsilon":
        if not epsilons:
            raise ValidationError("sweep.epsilons must not be empty")
        if len(set(epsilons)) < len(epsilons) or any(not (e > 0) for e in epsilons):
            raise ValidationError(
                "sweep.epsilons must be positive and distinct (0 is run implicitly)"
            )
    # Build each mollifier into the cache every freeze reads, so that a radius
    # the grid cannot resolve, or one past half the period, fails here.
    radii = [("solver.epsilon", picard.epsilon_moll)]
    if mode == "sweep_epsilon":
        radii += [("sweep.epsilons", e) for e in epsilons]
    for key, eps in radii:
        if eps > 0:
            try:
                _band_hat(grid, eps)
            except (ValueError, UnresolvedKernel) as exc:
                raise ValidationError(f"{key}: {exc}") from exc

    echo = {key: entries[key][0] for key in sorted(entries)}
    echo["mode"] = mode

    return RunSpec(
        mode=mode,
        grid=grid,
        picard=picard,
        policy=policy,
        sample_every=sample_every,
        initial=initial,
        coefficient=coefficient,
        u0=u0,
        problem=problem,
        output_dir=values["output.dir"],
        snapshot_times=snapshot_times,
        epsilons=epsilons,
        properties_seed=properties_seed,
        properties_count=properties_count,
        echo=echo,
    )
