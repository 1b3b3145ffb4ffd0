import signal
from contextlib import contextmanager

import numpy as np
import pytest

from fpme import Grid, RealField

from helpers import radial_symbol_oracle


@pytest.fixture
def grid64():
    return Grid(1, 64, 2 * np.pi)


@pytest.fixture
def grid2d():
    return Grid(2, 32, 2 * np.pi)


def random_field(grid: Grid, seed: int, k_max: int | None = None) -> RealField:
    """White noise, optionally truncated to |k| <= k_max per the radial
    frequency index.  Truncation keeps products alias-free in tests that
    need exact identities."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    if k_max is None:
        return RealField(grid, vals)
    coeffs = np.fft.fftn(vals) / grid.size
    # radius in units of the fundamental wavenumber
    r = radial_symbol_oracle(grid.dim, grid.n_points, 2 * np.pi, 1.0)
    coeffs[r > k_max] = 0.0
    return RealField(grid, np.real(np.fft.ifftn(coeffs * grid.size)))


@contextmanager
def deadline(seconds: int, what: str):
    """Fail the test once the block has run for seconds, so that a call that
    would run without end fails instead of hanging the suite.  The failure
    is not an Exception, so no handler in the code under test can swallow it."""
    def hang(signum, frame):
        pytest.fail(f"{what} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def count_calls(monkeypatch, module, name, kept):
    """Wrap module.name so that each call appends its result to kept."""
    real = getattr(module, name)

    def counted(*args):
        kept.append(real(*args))
        return kept[-1]

    monkeypatch.setattr(module, name, counted)
