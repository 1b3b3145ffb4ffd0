"""Exception types shared across the package."""


class FpmeError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(FpmeError):
    """Two fields that must share a grid do not."""


class InvalidExponent(FpmeError):
    """Fractional order outside the supported range."""


class UnresolvedKernel(FpmeError):
    """Mollifier radius too small for the grid spacing."""


class BlowUp(FpmeError):
    """Solution left the finite range during time stepping."""

    def __init__(self, t: float, linf: float):
        self.t = t
        self.linf = linf
        super().__init__(f"solution blew up at t={t:.6g} (sup norm {linf:.3e})")


class NoConvergence(FpmeError):
    """Fixed-point iteration exhausted its budget."""

    def __init__(self, deltas, max_outer: int, reason: str | None = None):
        self.deltas = list(deltas)
        self.max_outer = max_outer
        tail = ", ".join(f"{d:.3e}" for d in self.deltas[-5:])
        super().__init__(
            reason or f"no convergence within {max_outer} outer iterations (last deltas: {tail})"
        )


class DegenerateDenominator(FpmeError):
    """A measured ratio has an effectively zero denominator."""


class UnsupportedExponent(FpmeError):
    """Requested exponent is outside the implemented set."""


class ParseError(FpmeError):
    """Config document could not be parsed."""


class ValidationError(FpmeError):
    """Config parsed but violates an invariant."""
