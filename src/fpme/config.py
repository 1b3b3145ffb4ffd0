"""Flat key-value run configuration.

A config document is lines of ``key = value`` with ``#`` comments.  Keys
are namespaced with dots; unknown keys are rejected.  parse_config returns
a fully validated RunSpec; --set overrides are applied before validation.
The solver keys are checked by the solver's own PicardConfig and
TimeStepPolicy, which RunSpec carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .diagnostics import FieldGenerator, _check_suite
from .errors import ParseError, UnresolvedKernel, ValidationError
from .fracops import MollifierKernel
from .grid import Grid, _check_integer
from .linear import LinearProblem, TimeStepPolicy, _check_positive, _check_snapshot_times
from .picard import PicardConfig, _check_alpha, _validate_initial

__all__ = ["RunSpec", "parse_config", "MODES"]

MODES = ("linear", "picard", "sweep_epsilon", "properties")

_KNOWN_KEYS = {
    "grid.dim",
    "grid.n",
    "grid.length",
    "solver.s",
    "solver.alpha",
    "solver.epsilon",
    "solver.t_end",
    "solver.safety",
    "solver.dt_max",
    "solver.sample_every",
    "solver.samples",
    "solver.tol_picard",
    "solver.max_outer",
    "solver.c_gronwall",
    "solver.t0_override",
    "solver.mollify_initial",
    "initial.kind",
    "initial.seed",
    "initial.amplitude",
    "initial.width",
    "coefficient.kind",
    "coefficient.seed",
    "coefficient.amplitude",
    "coefficient.width",
    "output.dir",
    "output.snapshot_times",
    "sweep.epsilons",
    "properties.seed",
    "properties.count",
}

@dataclass(frozen=True)
class RunSpec:
    """Resolved, validated description of one CLI job.

    picard carries s, alpha, epsilon and the Picard knobs in every mode.
    policy is the RK4 step policy of linear and sweep_epsilon runs; other
    modes have one only when solver.dt_max is set.
    """

    mode: str
    grid: Grid
    picard: PicardConfig
    policy: TimeStepPolicy | None
    t_end: float | None
    sample_every: int
    initial: FieldGenerator | None
    coefficient: FieldGenerator | None
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


def _boolean(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(value)


def _floats(value: str) -> tuple[float, ...]:
    if not value.strip():
        return ()
    return tuple(float(tok) for tok in value.split(","))


# config key -> (PicardConfig field, parser).  A key is passed only when the
# document sets it, so the dataclass defaults are the only defaults.
_PICARD_FIELDS = {
    "solver.epsilon": ("epsilon_moll", float),
    "solver.c_gronwall": ("c_gronwall", float),
    "solver.tol_picard": ("tol_picard", float),
    "solver.max_outer": ("max_outer", int),
    "solver.t0_override": ("t0_override", float),
    "solver.samples": ("samples", int),
    "solver.safety": ("safety", float),
    "solver.mollify_initial": ("mollify_initial", _boolean),
}

# parser -> what a ParseError says the key needs
_NEEDS = {
    float: "a number",
    int: "an integer",
    _boolean: "a boolean",
    _floats: "comma-separated numbers",
}


def _where(lineno: int) -> str:
    """A message's prefix: the entry's file line, or nothing for a --set
    override (lineno 0), which the message names by its key."""
    return f"line {lineno}: " if lineno else ""


def _get(entries: dict[str, tuple[str, int]], key: str, parse=str, default=None):
    """The parsed value of key, or default when the document omits it."""
    value, lineno = entries.get(key, (None, 0))
    if value is None:
        return default
    try:
        return parse(value)
    except ValueError:
        raise ParseError(
            f"{_where(lineno)}key {key!r} needs {_NEEDS[parse]}, got {value!r}"
        )


def _generator(
    entries: dict[str, tuple[str, int]], prefix: str, grid: Grid
) -> FieldGenerator | None:
    kind = _get(entries, f"{prefix}.kind")
    if kind is None:
        return None
    gen = FieldGenerator(
        kind=kind,
        seed=_get(entries, f"{prefix}.seed", int, 0),
        amplitude=_get(entries, f"{prefix}.amplitude", float, 0.5),
        width=_get(entries, f"{prefix}.width", float, grid.side_length / 8.0),
    )
    try:
        gen.check(grid)
    except ValueError as exc:
        raise ValidationError(f"{prefix}.{exc}") from exc
    return gen


def parse_config(text: str, mode: str, overrides: dict[str, str] | None = None) -> RunSpec:
    """Parse and validate a config document for one mode.

    mode is the CLI positional, one of MODES.  overrides are --set pairs,
    applied on top of the file.  The solver keys build a PicardConfig in
    every mode and a TimeStepPolicy for linear and sweep_epsilon (or
    whenever solver.dt_max is set); those classes hold the defaults and
    range checks, and their ValueErrors become ValidationErrors here.
    """
    entries = _tokenize(text)
    for key, value in (overrides or {}).items():
        entries[key] = (value, 0)

    for key in entries:
        if key not in _KNOWN_KEYS:
            raise ParseError(f"{_where(entries[key][1])}unknown key {key!r}")

    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")

    dim = _get(entries, "grid.dim", int)
    n = _get(entries, "grid.n", int)
    length = _get(entries, "grid.length", float)
    for name, val in (("grid.dim", dim), ("grid.n", n), ("grid.length", length)):
        if val is None:
            raise ValidationError(f"{name} is required")

    t_end = _get(entries, "solver.t_end", float)
    if mode in ("linear", "sweep_epsilon") and t_end is None:
        raise ValidationError(f"solver.t_end is required for mode {mode}")

    picard_args = {
        name: _get(entries, key, parse)
        for key, (name, parse) in _PICARD_FIELDS.items()
        if key in entries
    }
    dt_max = _get(entries, "solver.dt_max", float)
    sample_every = _get(entries, "solver.sample_every", int, 1)
    properties_seed = _get(entries, "properties.seed", int, 0)
    properties_count = _get(entries, "properties.count", int, 100)
    try:
        grid = Grid(dim, n, length)
        if mode in ("linear", "sweep_epsilon"):
            _check_positive("solver.t_end", t_end)
        _check_integer("solver.sample_every", sample_every, 1)
        _check_suite(properties_seed, properties_count, "properties.")
        alpha = _get(entries, "solver.alpha", float, dim / 2.0 + 1.1)
        picard = PicardConfig(s=_get(entries, "solver.s", float, 0.75), alpha=alpha, **picard_args)
        if mode == "picard":
            _check_alpha(picard, dim)
        policy = None
        if mode in ("linear", "sweep_epsilon") or dt_max is not None:
            policy = TimeStepPolicy(
                dt_max=t_end / picard.samples if dt_max is None else dt_max,
                safety=picard.safety,
            )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    initial = _generator(entries, "initial", grid)
    coefficient = _generator(entries, "coefficient", grid)
    if mode in ("linear", "picard", "sweep_epsilon") and initial is None:
        raise ValidationError(f"initial.kind is required for mode {mode}")
    if mode in ("linear", "sweep_epsilon") and coefficient is None:
        raise ValidationError(f"coefficient.kind is required for mode {mode}")
    # The solvers' own input checks on the generated fields; past the checks
    # above, only the sign of the first frozen coefficient can fail them.
    try:
        if mode == "picard":
            _validate_initial(initial.generate(grid), picard)
        elif mode in ("linear", "sweep_epsilon"):
            LinearProblem(v=coefficient.generate(grid), u0=initial.generate(grid),
                          s=picard.s, epsilon=picard.epsilon_moll, t_end=t_end)
    except ValueError as exc:
        prefix, gen = ("initial", initial) if mode == "picard" else ("coefficient", coefficient)
        raise ValidationError(
            f"{prefix}.kind = {gen.kind} with {prefix}.amplitude = {gen.amplitude}: {exc}"
        ) from exc

    output_dir = _get(entries, "output.dir")
    if output_dir is None:
        raise ValidationError("output.dir is required")
    snapshot_times = _get(entries, "output.snapshot_times", _floats, ())
    # picard saves the stored samples up to its horizon, which is not known yet
    last = t_end if mode in ("linear", "sweep_epsilon") else math.inf
    try:
        _check_snapshot_times(snapshot_times, last)
    except ValueError as exc:
        raise ValidationError(f"output.snapshot_times: {exc}") from exc

    epsilons = _get(entries, "sweep.epsilons", _floats, (0.4, 0.2, 0.1))
    if mode == "sweep_epsilon":
        if not epsilons:
            raise ValidationError("sweep.epsilons must not be empty")
        if len(set(epsilons)) < len(epsilons) or any(not (e > 0) for e in epsilons):
            raise ValidationError(
                "sweep.epsilons must be positive and distinct (0 is run implicitly)"
            )
    # Build each mollifier the run will build, so that a radius the grid
    # cannot resolve, or one past half the period, fails here.
    radii = [("solver.epsilon", picard.epsilon_moll)]
    if mode == "sweep_epsilon":
        radii += [("sweep.epsilons", e) for e in epsilons]
    for key, eps in radii:
        if eps > 0:
            try:
                MollifierKernel(grid, eps)
            except (ValueError, UnresolvedKernel) as exc:
                raise ValidationError(f"{key}: {exc}") from exc

    echo = {key: entries[key][0] for key in sorted(entries)}
    echo["mode"] = mode

    return RunSpec(
        mode=mode,
        grid=grid,
        picard=picard,
        policy=policy,
        t_end=t_end,
        sample_every=sample_every,
        initial=initial,
        coefficient=coefficient,
        output_dir=output_dir,
        snapshot_times=snapshot_times,
        epsilons=epsilons,
        properties_seed=properties_seed,
        properties_count=properties_count,
        echo=echo,
    )
