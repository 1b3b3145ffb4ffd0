"""FPM1 snapshot format: bit-exact round trips and header validation."""

import numpy as np
import pytest

from fpme import Grid, ParseError, RealField, read_snapshot, write_snapshot

from conftest import random_field


def test_round_trip_bit_exact(tmp_path):
    g = Grid(2, 16, 2 * np.pi)
    f = random_field(g, seed=7)
    path = tmp_path / "field.fpm1"
    write_snapshot(path, f, t=0.12345)
    back, t = read_snapshot(path)
    assert t == 0.12345
    assert back.grid == g
    assert np.array_equal(back.values, f.values)  # bitwise, not approx


def test_round_trip_many_shapes(tmp_path):
    # a numpy float side length used to write L=np.float64(...), a header
    # read_snapshot rejected
    for dim, n, L in [(1, 8, 1.75), (1, 128, 1.75), (2, 8, 1.75), (3, 8, 1.75),
                      (1, 16, np.float64(2 * np.pi))]:
        g = Grid(dim, n, L)
        f = random_field(g, seed=dim * n)
        p = tmp_path / f"f_{dim}_{n}.fpm1"
        write_snapshot(p, f, t=1e-9)
        back, t = read_snapshot(p)
        assert np.array_equal(back.values, f.values)
        assert back.grid.side_length == L
        assert t == 1e-9


def test_header_is_single_ascii_line(tmp_path):
    g = Grid(1, 8, 2.0)
    path = tmp_path / "h.fpm1"
    write_snapshot(path, RealField(g, np.zeros(8)), t=0.5)
    raw = path.read_bytes()
    header, _, payload = raw.partition(b"\n")
    assert header.startswith(b"FPM1 dim=1 n=8 ")
    header.decode("ascii")  # must not raise
    assert len(payload) == 8 * 8


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.fpm1"
    path.write_bytes(b"NOPE dim=1 n=8 L=1.0 t=0.0\n" + b"\x00" * 64)
    with pytest.raises(ParseError):
        read_snapshot(path)


def test_truncated_payload(tmp_path):
    g = Grid(1, 8, 1.0)
    path = tmp_path / "short.fpm1"
    write_snapshot(path, RealField(g, np.arange(8.0)), t=0.0)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError):
        read_snapshot(path)


def test_extreme_values_survive(tmp_path):
    g = Grid(1, 8, 1.0)
    vals = np.array([0.0, -0.0, 1e-308, -1e308, np.pi, 2**-1074, 1.0, -1.0])
    path = tmp_path / "extreme.fpm1"
    write_snapshot(path, RealField(g, vals), t=0.0)
    back, _ = read_snapshot(path)
    assert np.array_equal(back.values, vals)
    # signed zero must keep its sign bit
    assert np.signbit(back.values[1])


def _header(dim, n, L=1.0, t=0.0):
    return f"FPM1 dim={dim} n={n} L={L} t={t}\n".encode("ascii")


@pytest.mark.parametrize(
    "raw",
    [
        # trailing bytes after the payload
        _header(1, 8) + b"\x00" * 72,
        # header grids Grid rejects, each with the payload its header sizes
        _header(4, 8) + b"\x00" * (8 * 8**4),
        _header(1, 7) + b"\x00" * (8 * 7),
        _header(1, 8, L=-1.0) + b"\x00" * 64,
        # a non-ASCII header
        "FPM1 dim=1 n=8 L=1.0 t=0.0 é\n".encode("utf-8") + b"\x00" * 64,
        # a header field without '='
        b"FPM1 dim=1 n=8 L=1.0 t\n" + b"\x00" * 64,
        # a huge n against a small payload: rejected without reading it
        _header(3, 2**40) + b"\x00" * 64,
        _header(1, 10**400) + b"\x00" * 64,
        _header(-1, 0) + b"\x00" * 64,
        # a value RealField rejects
        _header(1, 8) + np.full(8, np.nan).astype("<f8").tobytes(),
    ],
    ids=[
        "trailing", "dim4", "n7", "negative_L", "non_ascii", "no_equals",
        "huge_n", "overflow_n", "zero_n", "nan_value",
    ],
)
def test_malformed_file_is_parse_error(tmp_path, raw):
    path = tmp_path / "bad.fpm1"
    path.write_bytes(raw)
    with pytest.raises(ParseError):
        read_snapshot(path)
