"""Acceptance gate: nine numbered criteria with pinned tolerances.

Each criterion is one test that prints a single PASS/FAIL line directly to
the terminal (bypassing capture) and asserts the same condition.  Heavy
solver runs are shared through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from fpme import (
    FieldGenerator,
    Grid,
    LinearProblem,
    MollifierKernel,
    PicardConfig,
    RealField,
    TimeStepPolicy,
    frac_laplacian,
    gradient,
    lp_norm,
    mollify,
    read_snapshot,
    run_picard,
    sobolev_norm,
    solve_linear,
)
from fpme.cli import main as cli_main

from conftest import random_field
from helpers import (
    band_distance,
    check_cordoba,
    check_pointwise_lp,
    inv_frac_laplacian,
    nonlinear_march,
    uniqueness_probe,
)


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- fixtures

PICARD_CFG = PicardConfig(
    s=0.75, alpha=2.1, epsilon_moll=0.0, c_gronwall=1.0, tol_picard=1e-8,
    max_outer=30, samples=400, safety=0.5,
)


def _initial(grid):
    return FieldGenerator("gaussian_bump", seed=1, amplitude=0.05, width=0.8).generate(grid)


@pytest.fixture(scope="module")
def picard64():
    return run_picard(_initial(Grid(1, 64, 2 * np.pi)), PICARD_CFG)


@pytest.fixture(scope="module")
def picard128():
    return run_picard(_initial(Grid(1, 128, 2 * np.pi)), PICARD_CFG)


def _linear_fields(grid):
    u0 = FieldGenerator("gaussian_bump", seed=1, amplitude=0.5, width=0.8).generate(grid)
    v = FieldGenerator("multi_bump", seed=2, amplitude=0.5, width=0.9).generate(grid)
    return u0, v


def _linear_run(n, epsilon):
    grid = Grid(1, n, 2 * np.pi)
    u0, v = _linear_fields(grid)
    problem = LinearProblem(v=v, u0=u0, s=0.75, epsilon=epsilon, t_end=0.2)
    policy = TimeStepPolicy(dt_max=0.2 / 400, safety=0.5)
    return solve_linear(problem, policy, alpha=1.6)


@pytest.fixture(scope="module")
def linear128_eps02():
    return _linear_run(128, 0.2)


@pytest.fixture(scope="module")
def linear128_eps0():
    return _linear_run(128, 0.0)


@pytest.fixture(scope="module")
def linear64_eps0():
    return _linear_run(64, 0.0)


# ---------------------------------------------------------------- criteria

def test_criterion_1_operator_eigenfunctions(capsys):
    worst = 0.0
    g1 = Grid(1, 64, 2 * np.pi)
    x = g1.axes()[0]
    for k in (1, 3, 7):
        f = RealField(g1, np.cos(k * x))
        for sigma in (0.5, 1.0, 1.5):
            got = frac_laplacian(f, sigma)
            worst = max(worst, float(np.max(np.abs(got.values - k**sigma * f.values))) / k**sigma)
        for s in (0.5, 0.75, 0.9):
            got = inv_frac_laplacian(f, s)
            worst = max(worst, float(np.max(np.abs(got.values - k ** (-2 * s) * f.values))) * k ** (2 * s))
        grad = gradient(f)[0]
        worst = max(worst, float(np.max(np.abs(grad.values + k * np.sin(k * x)))) / k)

    g5 = Grid(1, 64, 5.0)
    x5 = g5.axes()[0]
    xi = 2 * 2 * np.pi / 5.0
    f5 = RealField(g5, np.sin(2 * 2 * np.pi / 5.0 * x5))
    got = frac_laplacian(f5, 0.8)
    worst = max(worst, float(np.max(np.abs(got.values - xi**0.8 * f5.values))) / xi**0.8)

    g2 = Grid(2, 64, 2 * np.pi)
    xs, ys = g2.axes()
    f2 = RealField(g2, np.cos(3 * xs + 2 * ys))
    r = math.sqrt(13.0)
    got = frac_laplacian(f2, 1.3)
    worst = max(worst, float(np.max(np.abs(got.values - r**1.3 * f2.values))) / r**1.3)

    verdict(capsys, 1, worst <= 1e-12, f"max rel error {worst:.3e} (tol 1e-12)")


def test_criterion_2_mollifier_structure(capsys):
    g = Grid(1, 64, 2 * np.pi)
    kernel = MollifierKernel(g, 0.3)
    worst_comm = 0.0
    worst_adj = 0.0
    for seed in range(100):
        f = random_field(g, seed=seed)
        h = random_field(g, seed=1000 + seed)
        a = mollify(frac_laplacian(f, 0.7), kernel)
        b = frac_laplacian(mollify(f, kernel), 0.7)
        scale = max(1.0, lp_norm(frac_laplacian(f, 0.7), 2))
        worst_comm = max(worst_comm, lp_norm(RealField(g, a.values - b.values), 2) / scale)

        lhs = float(np.sum(mollify(f, kernel).values * h.values)) * g.spacing
        rhs_ = float(np.sum(f.values * mollify(h, kernel).values)) * g.spacing
        worst_adj = max(
            worst_adj, abs(lhs - rhs_) / max(1.0, lp_norm(f, 2) * lp_norm(h, 2))
        )
    ok = worst_comm <= 1e-11 and worst_adj <= 1e-11
    verdict(capsys, 2, ok,
            f"commutation {worst_comm:.3e}, self-adjointness {worst_adj:.3e} (tol 1e-11)")


def test_criterion_3_positivity_gaps(capsys):
    g = Grid(1, 64, 2 * np.pi)
    half = g.dealias_cutoff // 2
    quarter = g.dealias_cutoff // 4
    failures = 0
    total = 0
    worst_margin = math.inf
    for s in (0.5, 0.8, 1.2, 2.0):
        for seed in range(100):
            rep = check_cordoba(random_field(g, seed=seed, k_max=half), s)
            total += 1
            failures += not rep.passed
            worst_margin = min(worst_margin, rep.min_gap + rep.tol)
    for p, band in ((2, half), (4, quarter)):
        for sigma in (0.6, 1.0):
            for seed in range(100):
                rep = check_pointwise_lp(random_field(g, seed=seed, k_max=band), sigma, p)
                total += 1
                failures += not rep.passed
                worst_margin = min(worst_margin, rep.min_gap + rep.tol)
    verdict(capsys, 3, failures == 0,
            f"{failures}/{total} gap checks failed, worst margin {worst_margin:.3e}")


def test_criterion_4_linear_invariants(capsys, linear128_eps02, linear128_eps0, linear64_eps0):
    recs = linear128_eps02.records
    l2 = [r.l2 for r in recs]
    mono_ok = all(b <= a * (1 + 1e-6) for a, b in zip(l2, l2[1:]))

    u0_linf = max(abs(r.min_u) for r in recs[:1]) or 0.5
    min_u = min(r.min_u for r in recs)
    pos_ok = min_u >= -1e-8 * 0.5

    mass = [r.mass for r in linear128_eps0.records]
    drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
    mass_ok = drift <= 1e-9

    conv = float(np.max(np.abs(linear128_eps0.final.values[::2] - linear64_eps0.final.values)))
    conv_ok = conv <= 1e-6

    ok = mono_ok and pos_ok and mass_ok and conv_ok
    verdict(capsys, 4, ok,
            f"L2 monotone={mono_ok}, min_u={min_u:.3e}, mass drift={drift:.3e}, "
            f"two-grid gap={conv:.3e}")


def test_criterion_5_growth_quotient(capsys):
    g = Grid(1, 64, 2 * np.pi)
    svals = (0.5, 0.6, 0.75, 0.85, 0.9)
    worst_rel = 0.0
    max_abs = 0.0
    finite = True
    for i in range(10):
        u0 = FieldGenerator("gaussian_bump", seed=i, amplitude=0.5, width=0.8).generate(g)
        v = FieldGenerator("multi_bump", seed=100 + i, amplitude=0.5, width=0.9).generate(g)
        problem = LinearProblem(v=v, u0=u0, s=svals[i % 5], epsilon=0.2, t_end=0.05)
        cs = []
        for dt in (5e-4, 2.5e-4):
            sol = solve_linear(problem, TimeStepPolicy(dt_max=dt), alpha=1.6)
            quotients = [r.c_meas for r in sol.records[1:]]
            finite &= all(math.isfinite(q) for q in quotients)
            cs.append(max(quotients))
        worst_rel = max(worst_rel, abs(cs[0] - cs[1]) / max(abs(cs[0]), abs(cs[1])))
        max_abs = max(max_abs, abs(cs[0]))
    ok = finite and max_abs <= 20.0 and worst_rel <= 0.2
    verdict(capsys, 5, ok,
            f"max |quotient| {max_abs:.3e} (bound 20), dt-halving change {worst_rel:.3e} (tol 0.2)")


def test_criterion_6_picard_convergence(capsys, picard64):
    state = picard64.state
    u0 = _initial(Grid(1, 64, 2 * np.pi))
    h0 = sobolev_norm(u0, 2.1)

    conv_ok = state.converged and len(state.sup_halpha) <= 30 and state.deltas[-1] <= 1e-8
    bound_ok = max(state.sup_halpha) <= 2.2 * h0
    # distance to the direct nonlinear march, which is within 5e-15 of its
    # limit at 16 steps: Picard's time error, measured at 2.15e-5 / samples
    reference = nonlinear_march(u0, PICARD_CFG.s, picard64.horizon, 16)
    final = picard64.trajectory._states[-1]
    dist = band_distance(u0.grid, final, reference, PICARD_CFG.alpha - 1.0)
    c_time = 5e-5
    dist_ok = dist <= c_time / PICARD_CFG.samples
    min_u = min(r.min_u for r in picard64.records)
    pos_ok = min_u >= -1e-8 * lp_norm(u0, np.inf)
    mass = [r.mass for r in picard64.records]
    drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
    mass_ok = drift <= 1e-9

    ok = conv_ok and bound_ok and dist_ok and pos_ok and mass_ok
    verdict(capsys, 6, ok,
            f"{len(state.sup_halpha)} iterates, delta {state.deltas[-1]:.3e}, "
            f"sup/h0 {max(state.sup_halpha) / h0:.3f}, distance to march {dist:.3e} "
            f"<= C/samples with C {c_time:.1e}, "
            f"min_u {min_u:.3e}, mass drift {drift:.3e}")


def test_criterion_7_uniqueness(capsys, picard64):
    g = Grid(1, 64, 2 * np.pi)
    u0 = _initial(g)
    limit = 1e-6 * (1.0 + sobolev_norm(u0, PICARD_CFG.alpha))
    envelope = 2.0 * math.exp(
        picard64.c_gronwall * max(picard64.state.sup_halpha) * picard64.horizon
    )
    worst = 0.0
    for seed in (11, 12, 13):
        delta = random_field(g, seed=seed, k_max=10)
        delta = RealField(g, delta.values * (0.5 * limit / sobolev_norm(delta, PICARD_CFG.alpha)))
        worst = max(worst, uniqueness_probe(u0, PICARD_CFG, delta))
    verdict(capsys, 7, worst <= envelope,
            f"max growth ratio {worst:.6f} <= envelope {envelope:.3f}")


def _besov_quotient(records):
    sup_b = max(r.besov_alpha for r in records)
    best = -math.inf
    for a, b in zip(records, records[1:]):
        if a.besov_alpha > 0 and b.besov_alpha > 0 and b.t > a.t:
            best = max(best, math.log(b.besov_alpha / a.besov_alpha) / (b.t - a.t))
    return best / sup_b, sup_b


def test_criterion_8_besov_quotient_stability(capsys, picard64, picard128):
    q64, sup64 = _besov_quotient(picard64.records)
    q128, sup128 = _besov_quotient(picard128.records)
    finite = all(math.isfinite(v) for v in (q64, q128, sup64, sup128))
    rel = abs(q64 - q128) / max(abs(q64), abs(q128))
    ok = finite and sup64 > 0 and sup128 > 0 and rel <= 0.2
    verdict(capsys, 8, ok,
            f"sup besov {sup64:.3e}/{sup128:.3e}, quotient {q64:.4f} vs {q128:.4f}, "
            f"rel change {rel:.3e} (tol 0.2)")


CLI_PICARD_CFG = """
grid.dim = 1
grid.n = 64
grid.length = 6.283185307179586
solver.s = 0.75
solver.alpha = 2.1
solver.samples = 400
initial.kind = gaussian_bump
initial.seed = 1
initial.amplitude = 0.05
initial.width = 0.8
output.dir = {out}
"""


def test_criterion_9_deterministic_rerun(capsys, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(CLI_PICARD_CFG.format(out=out))
        code = cli_main(["picard", "--config", str(cfg)])
        assert code == 0
        outs.append(out)
    a, b = outs
    same = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("diagnostics.csv", "iterates.csv", "final.fpm1")
    )
    field_a, t_a = read_snapshot(a / "final.fpm1")
    verdict(capsys, 9, same,
            f"diagnostics.csv, iterates.csv, final.fpm1 byte-identical across reruns "
            f"(horizon {t_a:.6f})")
