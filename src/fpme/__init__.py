"""Pseudo-spectral tools for a fractional porous medium flow on the torus."""

from .errors import (
    BlowUp,
    DegenerateDenominator,
    FpmeError,
    GridMismatch,
    InvalidExponent,
    NoConvergence,
    ParseError,
    UnresolvedKernel,
    UnsupportedExponent,
    ValidationError,
)
from .grid import Grid, RealField
from .fracops import (
    MollifierKernel,
    frac_laplacian,
    gradient,
    mollify,
)
from .norms import (
    DyadicPartition,
    besov_norm,
    homogeneous_seminorm,
    lp_norm,
    sobolev_norm,
)
from .diagnostics import (
    DiagnosticsRecord,
    FieldGenerator,
    InequalityReport,
    check_commutator,
    run_property_suite,
)
from .linear import (
    LinearProblem,
    LinearSolution,
    TimeStepPolicy,
    solve_linear,
)
from .picard import (
    PicardConfig,
    PicardResult,
    PicardState,
    horizon,
    run_picard,
)
from .config import MODES, RunSpec, parse_config
from .snapshots import read_snapshot, write_snapshot

__version__ = "0.1.0"

__all__ = [
    "BlowUp",
    "DegenerateDenominator",
    "DiagnosticsRecord",
    "DyadicPartition",
    "FieldGenerator",
    "FpmeError",
    "Grid",
    "GridMismatch",
    "InequalityReport",
    "InvalidExponent",
    "LinearProblem",
    "LinearSolution",
    "MollifierKernel",
    "NoConvergence",
    "ParseError",
    "PicardConfig",
    "PicardResult",
    "PicardState",
    "RealField",
    "RunSpec",
    "TimeStepPolicy",
    "UnresolvedKernel",
    "UnsupportedExponent",
    "ValidationError",
    "besov_norm",
    "check_commutator",
    "frac_laplacian",
    "gradient",
    "homogeneous_seminorm",
    "horizon",
    "lp_norm",
    "mollify",
    "MODES",
    "parse_config",
    "read_snapshot",
    "run_picard",
    "run_property_suite",
    "sobolev_norm",
    "solve_linear",
    "write_snapshot",
]
