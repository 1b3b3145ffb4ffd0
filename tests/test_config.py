"""Config parsing, validation messages and override layering."""

import dataclasses
import functools
import math
import re
from pathlib import Path

import pytest

from fpme import (
    MODES,
    FieldGenerator,
    Grid,
    LinearProblem,
    ParseError,
    PicardConfig,
    RunSpec,
    TimeStepPolicy,
    ValidationError,
    parse_config,
    run_picard,
    run_property_suite,
    solve_linear,
)
import fpme.config
from fpme.config import _KEYS, _PICARD_FIELDS, _READERS, _STEP_BUDGET, _STEPS

# a picard or properties document: no key only the stepped modes read
MINIMAL = """
grid.dim = 1
grid.n = 64
grid.length = 6.283185307179586
initial.kind = gaussian_bump
coefficient.kind = gaussian_bump
output.dir = /tmp/out
"""
MINIMAL_LINEAR = MINIMAL + "solver.t_end = 0.05\n"
# mode -> its minimal document
DOCS = {"linear": MINIMAL_LINEAR, "sweep_epsilon": MINIMAL_LINEAR,
        "picard": MINIMAL, "properties": MINIMAL}


class TestParsing:
    def test_minimal_linear_defaults(self):
        spec = parse_config(MINIMAL_LINEAR, mode="linear")
        assert isinstance(spec, RunSpec)
        assert spec.mode == "linear"
        assert spec.grid.n_points == 64
        assert spec.s == 0.75
        assert spec.alpha == pytest.approx(1.6)
        assert spec.epsilon == 0.0
        assert spec.picard.safety == spec.policy.safety == 0.5
        # the default cap is linear's own, not t_end / PicardConfig.samples
        assert spec.policy.dt_max == 0.05 / 400
        assert spec.picard.samples == 400
        assert spec.picard.tol_picard == 1e-8
        assert spec.picard.max_outer == 30
        assert spec.picard.c_gronwall == 1.0
        assert spec.picard.t0_override is None
        assert spec.initial.amplitude == 0.5
        assert spec.initial.width == pytest.approx(spec.grid.side_length / 8)
        assert spec.epsilons == (0.4, 0.2, 0.1)
        assert spec.snapshot_times == ()

    def test_comments_and_blank_lines(self):
        spec = parse_config(
            "# header\n\n" + MINIMAL_LINEAR + "\nsolver.s = 0.8  # inline\n", mode="linear"
        )
        assert spec.s == 0.8

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError, match=r"line 2: unknown key 'solver\.theta'"):
            parse_config("grid.n = 64\nsolver.theta = 1\n", mode="properties")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key 'grid.n'"):
            parse_config("grid.n = 64\ngrid.n = 32\n", mode="linear")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="expected 'key = value'"):
            parse_config("just some words\n", mode="linear")

    def test_empty_key(self):
        with pytest.raises(ParseError, match="line 2: empty key"):
            parse_config("grid.n = 64\n = 3\n", mode="linear")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="needs a number"):
            parse_config(
                MINIMAL_LINEAR.replace("solver.t_end = 0.05", "solver.t_end = soon"), mode="linear"
            )

    def test_mollify_initial_is_unknown_key(self):
        # A positive solver.epsilon always mollifies the initial datum;
        # no key switches that off.
        bad = MINIMAL_LINEAR + "solver.mollify_initial = true\n"
        with pytest.raises(ParseError, match=r"^line 9: unknown key 'solver\.mollify_initial'$"):
            parse_config(bad, mode="linear")

    def test_float_list(self):
        spec = parse_config(
            MINIMAL_LINEAR + "output.snapshot_times = 0.0, 0.025, 0.05\n", mode="linear"
        )
        assert spec.snapshot_times == (0.0, 0.025, 0.05)


class TestValidation:
    def test_mode_required(self):
        with pytest.raises(TypeError, match="mode"):
            parse_config(MINIMAL_LINEAR)

    def test_mode_choices(self):
        with pytest.raises(ValidationError, match="mode must be one of"):
            parse_config(MINIMAL_LINEAR, mode="heat")
        assert MODES == ("linear", "picard", "sweep_epsilon", "properties")

    def test_cli_mode_wins_over_key(self):
        # the mode comes only from the argument; a mode line is an unknown key
        with pytest.raises(ParseError, match=r"line 1: unknown key 'mode'"):
            parse_config("mode = picard\n" + MINIMAL_LINEAR, mode="linear")

    def test_s_range(self):
        for bad in ("0.49", "1.0", "-0.1"):
            text = MINIMAL_LINEAR + f"solver.s = {bad}\n"
            with pytest.raises(ValidationError, match=r"s must lie in \[1/2, 1\)"):
                parse_config(text, mode="linear")

    def test_picard_alpha_floor(self):
        text = """
grid.dim = 2
grid.n = 32
grid.length = 6.283185307179586
solver.alpha = 1.4
initial.kind = gaussian_bump
output.dir = /tmp/out
"""
        with pytest.raises(ValidationError, match=r"alpha must exceed dim/2\+1, got 1.4 for dim=2"):
            parse_config(text, mode="picard")

    def test_t_end_required_for_linear(self):
        text = MINIMAL_LINEAR.replace("solver.t_end = 0.05\n", "")
        with pytest.raises(ValidationError, match="t_end is required"):
            parse_config(text, mode="linear")

    def test_nonpositive_t_end_names_the_key(self):
        text = MINIMAL_LINEAR.replace("solver.t_end = 0.05", "solver.t_end = 0")
        with pytest.raises(
            ValidationError, match=r"^solver\.t_end must be positive and finite, got 0\.0$"
        ):
            parse_config(text, mode="linear")

    def test_initial_required(self):
        text = MINIMAL_LINEAR.replace("initial.kind = gaussian_bump\n", "")
        with pytest.raises(ValidationError, match="initial.kind is required"):
            parse_config(text, mode="linear")

    def test_output_dir_required(self):
        text = MINIMAL_LINEAR.replace("output.dir = /tmp/out\n", "")
        with pytest.raises(ValidationError, match="output.dir is required"):
            parse_config(text, mode="linear")

    def test_grid_errors_become_validation(self):
        text = MINIMAL_LINEAR.replace("grid.n = 64", "grid.n = 48")
        with pytest.raises(ValidationError):
            parse_config(text, mode="linear")

    def test_sweep_rejects_nonpositive_epsilon(self):
        text = MINIMAL_LINEAR + "sweep.epsilons = 0.4, 0.0\n"
        with pytest.raises(ValidationError, match="must be positive"):
            parse_config(text, mode="sweep_epsilon")

    def test_sweep_rejects_empty_epsilons(self):
        # an empty value parses to no radii, not to the default ones
        text = MINIMAL_LINEAR + "sweep.epsilons =\n"
        with pytest.raises(ValidationError, match="sweep.epsilons must not be empty"):
            parse_config(text, mode="sweep_epsilon")

    @pytest.mark.parametrize(
        "mode, override, key",
        [
            ("linear", {"solver.epsilon": "nan"}, "epsilon_moll"),
            ("picard", {"solver.epsilon": "nan"}, "epsilon_moll"),
            ("sweep_epsilon", {"sweep.epsilons": "0.4, nan"}, "sweep.epsilons"),
        ],
        ids=["linear", "picard", "sweep"],
    )
    def test_nan_radius_rejected(self, mode, override, key):
        # NaN fails every comparison, so a check written as "< 0" or "<= 0"
        # let it through to an unmollified run
        with pytest.raises(ValidationError, match=key):
            parse_config(DOCS[mode], mode=mode, overrides=override)

    def test_generator_kind_checked(self):
        text = MINIMAL_LINEAR.replace("gaussian_bump", "perlin")
        with pytest.raises(ValidationError, match="initial.kind must be one of"):
            parse_config(text, mode="linear")

    @pytest.mark.parametrize("prefix", ["initial", "coefficient"])
    def test_generator_width_checked_against_grid(self, prefix):
        # the default width L/8 is band-limited at n = 64 but not at n = 32
        other = "coefficient" if prefix == "initial" else "initial"
        text = MINIMAL.replace("grid.n = 64", "grid.n = 32") + f"{other}.width = 2.0\n"
        linear = text + "solver.t_end = 0.05\n"
        with pytest.raises(ValidationError, match=f"{prefix}.width .* too narrow"):
            parse_config(linear, mode="linear")
        parse_config(linear + f"{prefix}.width = 1.2\n", mode="linear")
        # properties mode: linear would reject the sign-changing random_trig coefficient
        spec = parse_config(text.replace("gaussian_bump", "random_trig"), mode="properties")
        assert getattr(spec, prefix).width == pytest.approx(spec.grid.side_length / 8)


class TestModeKeys:
    @pytest.mark.parametrize(
        "mode, prefix, line, message",
        [
            ("picard", "coefficient", "coefficient.seed = abc",
             r"^line 7: key 'coefficient\.seed' needs an integer, got 'abc'$"),
            ("properties", "initial", "initial.amplitude = x",
             r"^line 7: key 'initial\.amplitude' needs a number, got 'x'$"),
        ],
        ids=["picard", "properties"],
    )
    def test_malformed_value_of_a_key_the_mode_skips(self, mode, prefix, line, message):
        # without its kind no generator is built, so the mode never reads the key
        text = MINIMAL.replace(f"{prefix}.kind = gaussian_bump\n", "")
        with pytest.raises(ParseError, match=message):
            parse_config(text + line + "\n", mode=mode)

    @pytest.mark.parametrize("mode", ["picard", "properties"])
    @pytest.mark.parametrize("key, value", [("solver.dt_max", "1e-3"), ("solver.sample_every", "2")])
    def test_step_keys_rejected_outside_the_stepped_modes(self, mode, key, value):
        message = f"^{re.escape(key)} is read only by modes linear and sweep_epsilon, not by mode {mode}$"
        with pytest.raises(ValidationError, match=message):
            parse_config(MINIMAL, mode=mode, overrides={key: value})

    @pytest.mark.parametrize(
        "key, mode",
        [(key, mode) for key, readers in _READERS.items() for mode in MODES if mode not in readers],
    )
    def test_one_solver_key_rejected_outside_its_modes(self, key, mode):
        readers = _READERS[key]
        assert key.startswith("solver.") and key in _KEYS
        names = "modes linear and sweep_epsilon" if len(readers) == 2 else "mode picard"
        message = f"^{re.escape(key)} is read only by {names}, not by mode {mode}$"
        with pytest.raises(ValidationError, match=message):
            parse_config(DOCS[mode], mode=mode, overrides={key: "2"})

    def test_picard_keys_read_by_picard(self):
        overrides = {"solver.samples": "25", "solver.tol_picard": "1e-6", "solver.max_outer": "5",
                     "solver.c_gronwall": "2", "solver.t0_override": "0.01"}
        picard = parse_config(MINIMAL, mode="picard", overrides=overrides).picard
        assert (picard.samples, picard.tol_picard, picard.max_outer, picard.c_gronwall,
                picard.t0_override) == (25, 1e-6, 5, 2.0, 0.01)

    def test_linear_cap_does_not_follow_picard_samples(self, monkeypatch):
        monkeypatch.setattr(fpme.config, "PicardConfig", functools.partial(PicardConfig, samples=25))
        spec = parse_config(MINIMAL_LINEAR, mode="linear")
        assert spec.picard.samples == 25
        assert spec.policy.dt_max == 0.05 / 400

    @pytest.mark.parametrize("mode", ["linear", "sweep_epsilon"])
    def test_step_keys_read_by_the_stepped_modes(self, mode):
        overrides = {"solver.dt_max": "1e-3", "solver.sample_every": "2",
                     "sweep.epsilons": "0.4, 0.2"}
        spec = parse_config(MINIMAL_LINEAR, mode=mode, overrides=overrides)
        assert spec.policy.dt_max == 1e-3
        assert spec.sample_every == 2

    @pytest.mark.parametrize("mode", ["picard", "properties"])
    def test_no_step_policy_outside_the_stepped_modes(self, mode):
        assert parse_config(MINIMAL, mode=mode).policy is None

    @pytest.mark.parametrize("key", ["grid.dim", "grid.n", "grid.length", "output.dir"])
    def test_required_key_names_the_mode(self, key):
        text = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith(key))
        with pytest.raises(ValidationError, match=f"^{re.escape(key)} is required for mode properties$"):
            parse_config(text, mode="properties")


_GRID = Grid(1, 64, 6.283185307179586)


def _bump(amplitude):
    """The field MINIMAL_LINEAR's generators make, at this amplitude."""
    gen = FieldGenerator("gaussian_bump", amplitude=amplitude, width=_GRID.side_length / 8)
    return gen.generate(_GRID)


def _solve(**kwargs):
    """solve_linear on MINIMAL_LINEAR's problem."""
    problem = LinearProblem(v=_bump(0.5), u0=_bump(0.5), s=0.75, epsilon=0.0, t_end=0.05)
    return solve_linear(problem, TimeStepPolicy(dt_max=0.05 / 400), alpha=1.6, **kwargs)


@pytest.mark.parametrize(
    "mode, override, library_call",
    [
        ("picard", {"solver.alpha": "1.4"},
         lambda: run_picard(_bump(0.5), PicardConfig(s=0.75, alpha=1.4))),
        ("picard", {"initial.amplitude": "-0.05"},
         lambda: run_picard(_bump(-0.05), PicardConfig(s=0.75, alpha=1.6))),
        ("picard", {"initial.amplitude": "1e300"},
         lambda: run_picard(_bump(1e300), PicardConfig(s=0.75, alpha=1.6))),
        ("linear", {"coefficient.amplitude": "-0.5"},
         lambda: LinearProblem(v=_bump(-0.5), u0=_bump(0.5), s=0.75, epsilon=0.0, t_end=0.05)),
        ("linear", {"solver.alpha": "-1"}, lambda: PicardConfig(s=0.75, alpha=-1.0)),
        ("linear", {"solver.alpha": "inf"}, lambda: PicardConfig(s=0.75, alpha=math.inf)),
        ("linear", {"solver.t_end": "inf"},
         lambda: LinearProblem(v=_bump(0.5), u0=_bump(0.5), s=0.75, epsilon=0.0, t_end=math.inf)),
        ("linear", {"solver.dt_max": "inf"}, lambda: TimeStepPolicy(dt_max=math.inf)),
        ("picard", {"solver.t0_override": "inf"},
         lambda: PicardConfig(s=0.75, alpha=1.6, t0_override=math.inf)),
        ("picard", {"solver.c_gronwall": "inf"},
         lambda: PicardConfig(s=0.75, alpha=1.6, c_gronwall=math.inf)),
        ("picard", {"solver.epsilon": "nan"},
         lambda: PicardConfig(s=0.75, alpha=1.6, epsilon_moll=float("nan"))),
        ("linear", {"solver.sample_every": "0"}, lambda: _solve(sample_every=0)),
        ("linear", {"output.snapshot_times": "0.01, 0.01"},
         lambda: _solve(snapshot_times=(0.01, 0.01))),
        ("linear", {"output.snapshot_times": "0.01, 0.06"},
         lambda: _solve(snapshot_times=(0.01, 0.06))),
        ("picard", {"output.snapshot_times": "0.01, 0.01"},
         lambda: run_picard(_bump(0.5), PicardConfig(s=0.75, alpha=1.6), (0.01, 0.01))),
        ("properties", {"properties.seed": "-1"}, lambda: run_property_suite(_GRID, seed=-1)),
        ("properties", {"properties.count": "0"}, lambda: run_property_suite(_GRID, count=0)),
    ],
    ids=["picard-alpha-floor", "picard-negative-initial", "picard-overflowing-initial",
         "linear-negative-coefficient", "negative-alpha", "infinite-alpha", "infinite-t-end",
         "infinite-dt-max", "infinite-t0-override", "infinite-c-gronwall", "nan-radius",
         "sample-every", "repeated-snapshot", "snapshot-past-t-end", "picard-repeated-snapshot",
         "suite-seed", "suite-count"],
)
def test_parse_time_and_library_rejections_agree(mode, override, library_call):
    # the parser runs the solvers' own checks, so it says what they say
    with pytest.raises(ValueError) as library:
        library_call()
    with pytest.raises(ValidationError) as parsed:
        parse_config(DOCS[mode], mode=mode, overrides=override)
    assert str(library.value) in str(parsed.value)


@pytest.mark.parametrize(
    "mode, key, within, past",
    [("linear", "solver.dt_max", 0.05 / (_STEP_BUDGET / 2), 0.05 / (2 * _STEP_BUDGET)),
     # rho_est 0.734 at u0 and a horizon of 0.309: 2.27e5 and 2.27e6 steps
     ("picard", "solver.safety", 1e-6, 1e-7)],
)
def test_step_budget(mode, key, within, past):
    # the budget bounds the steps of one solve or Picard iterate, at the
    # step of the first freeze, before any output
    doc = DOCS[mode] + "initial.amplitude = 0.05\ninitial.width = 0.8\n"
    parse_config(doc, mode=mode, overrides={key: repr(within)})
    with pytest.raises(ValidationError, match=f"RK4 steps, past the budget of {_STEP_BUDGET:,}"):
        parse_config(doc, mode=mode, overrides={key: repr(past)})


def test_linear_problem_rejects_nan_radius():
    with pytest.raises(ValueError, match=r"^epsilon must be >= 0, got nan$"):
        LinearProblem(v=_bump(0.5), u0=_bump(0.5), s=0.75, epsilon=float("nan"), t_end=0.05)


class TestOverrides:
    def test_override_replaces_file_value(self):
        spec = parse_config(MINIMAL_LINEAR, mode="linear", overrides={"solver.s": "0.9"})
        assert spec.s == 0.9

    def test_override_can_add_key(self):
        spec = parse_config(MINIMAL_LINEAR, mode="linear", overrides={"solver.epsilon": "0.2"})
        assert spec.epsilon == 0.2

    def test_override_unknown_key_no_line(self):
        with pytest.raises(ParseError, match=r"^unknown key 'solver\.theta'"):
            parse_config(MINIMAL_LINEAR, mode="linear", overrides={"solver.theta": "1"})

    def test_override_bad_value_no_line(self):
        with pytest.raises(ParseError, match=r"^key 'grid\.n' needs an integer, got 'abc'$"):
            parse_config(MINIMAL_LINEAR, mode="linear", overrides={"grid.n": "abc"})

    def test_override_validated(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL_LINEAR, mode="linear", overrides={"solver.s": "0.3"})

    def test_echo_reflects_overrides(self):
        spec = parse_config(MINIMAL_LINEAR, mode="linear", overrides={"solver.s": "0.9"})
        assert spec.echo["solver.s"] == "0.9"
        assert spec.echo["mode"] == "linear"
        assert spec.echo["grid.n"] == "64"


def _readme_key_table() -> dict[str, str]:
    """Config key -> default cell of README's config-key table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    table = {}
    for row in section.splitlines():
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        if not row.startswith("|") or len(cells) != 3 or cells[0] == "key":
            continue
        for key in re.findall(r"`([^`]+)`", cells[0]):
            table[key] = cells[2]
    return table


def test_readme_key_table_matches_parser():
    assert set(_readme_key_table()) == set(_KEYS)


def test_readme_solver_defaults_match_dataclasses():
    table = _readme_key_table()
    fields = [(key, PicardConfig, name, _KEYS[key]) for key, name in _PICARD_FIELDS.items()]
    fields += [
        ("solver.safety", TimeStepPolicy, "safety", float),
        ("solver.dt_max", TimeStepPolicy, "dt_max", float),
    ]
    assert table["solver.dt_max"] == f"`t_end / {_STEPS}`"
    checked = 0
    for key, cls, name, parse in fields:
        default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
        if default is dataclasses.MISSING:
            continue
        cell = table[key].strip("`")
        assert (None if cell == "unset" else parse(cell)) == default, (key, cell)
        checked += 1
    assert checked == 8
