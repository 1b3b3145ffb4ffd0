"""FPM1 snapshot files, in README's format; writing and re-reading is
bit-exact."""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError
from .grid import Grid, RealField

__all__ = ["write_snapshot", "read_snapshot"]

_MAGIC = "FPM1"


def write_snapshot(path: str | os.PathLike, field: RealField, t: float) -> None:
    g = field.grid
    header = f"{_MAGIC} dim={g.dim} n={g.n_points} L={float(g.side_length)!r} t={float(t)!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(field.values).astype("<f8").tobytes())


def read_snapshot(path: str | os.PathLike) -> tuple[RealField, float]:
    """Read an FPM1 file; raise ParseError for any file that is not one."""
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = os.fstat(fh.fileno()).st_size - len(line)
        parts = line.split()
        if not parts or parts[0] != _MAGIC.encode("ascii"):
            raise ParseError(f"not an {_MAGIC} file: {path}")
        try:
            kv = dict(p.decode("ascii").split("=", 1) for p in parts[1:])
            dim, n, L, t = int(kv["dim"]), int(kv["n"]), float(kv["L"]), float(kv["t"])
            count = float(n) ** dim
        except (KeyError, ValueError, ArithmeticError) as exc:
            raise ParseError(f"malformed {_MAGIC} header: {line!r}") from exc
        # Checked before Grid allocates arrays of n entries, so a huge n in
        # the header is never allocated or read.
        if payload != 8 * count:
            raise ParseError(f"{_MAGIC} payload in {path} is {payload} bytes, not 8 * {n}**{dim}")
        try:
            grid = Grid(dim, n, L)
            values = np.frombuffer(fh.read(payload), dtype="<f8").reshape(grid.shape)
            field = RealField(grid, values)
        except ValueError as exc:
            raise ParseError(f"invalid {_MAGIC} grid or values in {path}: {exc}") from exc
    return field, t
