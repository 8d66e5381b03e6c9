"""Acceptance suite.

Each test pins one acceptance criterion at its stated tolerance and runtime
budget and prints a single PASS/FAIL line (run with -s to see them inline).
The near-singular field criterion runs a 5x5x4 subsample of the full
evaluation grid by default; set SLENDERQUAD_FULL_GRID=1 to run all
20x20x16 points within the 5-minute budget.
"""

import contextlib
import io
import json
import os
import time

import numpy as np
import pytest

from helpers import qk_two_piece, rotation_matrix
from slenderquad import cli, forces
from slenderquad.finitepart import (
    LineDensity,
    build_weight_table,
    eval_K,
    eval_K_all,
    eval_L,
    qk_signkernel,
)
from slenderquad.geometry import FiberCurve, discretize, make_helix, make_straight
from slenderquad.nearsing import eval_S, eval_S_regular, qkp_moments
from slenderquad.oracle import (
    adaptive_integrate,
    diagonal_eigenvalues,
    g_pair,
    reference_K,
    reference_S,
    scaled_legendre,
)
from slenderquad.quadcore import PanelGrid, gauss_legendre

RULE = gauss_legendre(16)
TABLE = build_weight_table(RULE)
HELIX = make_helix(8.0, 3.0, 1.5)


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {status} [{elapsed:.2f} s / {budget:g} s] {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget} s ({elapsed:.2f} s)"


def test_criterion_1_eigenfunction_suite():
    start = time.perf_counter()
    alpha = forces.splitmix64_uniforms(42, 5)
    f, fprime = forces.legendre_mixture(alpha, 1.0)
    lam = diagonal_eigenvalues(5)
    worst = 0.0
    for m in (1, 2, 4, 8):
        grid = PanelGrid(1.0, m, RULE)
        density = LineDensity.from_closure(f, grid, derivative=fprime)
        s = grid.global_nodes
        exact = -sum(alpha[n] * lam[n] * scaled_legendre(n, s, 1.0) for n in range(5))
        got = np.array([eval_L(density, grid, TABLE, t) for t in range(grid.node_count)])
        worst = max(worst, float(np.max(np.abs(got - exact))))
    elapsed = time.perf_counter() - start
    _report(1, "eigenfunction suite", worst <= 1e-13, elapsed, 1.0, f"max error {worst:.3e}")


def test_criterion_2_sign_kernel_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for eta_bar in rng.uniform(-1.0, 1.0, 100):
        for k in range(16):
            diff = abs(qk_signkernel(k, eta_bar) - qk_two_piece(k, eta_bar))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    _report(2, "sign-kernel moments", worst <= 1e-14, elapsed, 0.1, f"max diff {worst:.3e}")


def test_criterion_3_k_self_convergence(tmp_path):
    # the k-convergence experiment at its defaults: M = 4..64 against 128 panels
    start = time.perf_counter()
    out = tmp_path / "kconv.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["k-convergence", "--out", str(out)])
    errs = np.array(json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))["errors"])
    decreasing = bool(np.all(np.diff(errs[:4]) < 0))
    final_ok = errs[4] <= 1e-10
    elapsed = time.perf_counter() - start
    detail = "e_M = " + ", ".join(f"{e:.2e}" for e in errs)
    ok = code == cli.EXIT_PASS and decreasing and final_ok
    _report(3, "K self-convergence", ok, elapsed, 30.0, detail)


def test_criterion_4_k_oracle_equivalence():
    start = time.perf_counter()
    f, fprime = forces.testf(1.5)
    pcurve = discretize(HELIX, 16, RULE)
    density = LineDensity.from_closure(f, pcurve.grid, derivative=fprime)
    targets = np.linspace(0, pcurve.grid.node_count - 1, 40).astype(int)
    worst = 0.0
    for t in targets:
        got = eval_K(pcurve, density, TABLE, t)
        ref = reference_K(HELIX, f, fprime, pcurve.grid.global_nodes[t], tol=1e-9)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    elapsed = time.perf_counter() - start
    _report(4, "K oracle equivalence", worst <= 1e-8, elapsed, 60.0, f"max diff {worst:.3e}")


def _field_points(full: bool) -> np.ndarray:
    """Evaluation points inside the projected circle of the helix.

    The subsample keeps the full grid's defining feature, points whose 3D
    distance to the curve approaches 2.2e-3, by aligning one z-plane with the
    helix height above each sampled angle; the full grid gets that density
    from its 20x20x16 resolution alone.
    """
    radius = 8.0 / 73.0
    b = 3.0 / 73.0
    d_min = 2.2e-3
    if full:
        radii = np.linspace(radius / 20.0, radius - d_min, 20)
        angles = np.linspace(0.0, np.pi / 2.0, 20)
        pitch = 2.0 * np.pi * b
        z_mid = 0.5 * HELIX.position(1.5)[2]
        z_vals = z_mid + np.linspace(-pitch / 2.0, pitch / 2.0, 16)
    else:
        radii = np.linspace(radius / 20.0, radius - d_min, 5)
        angles = np.linspace(0.0, np.pi / 2.0, 5)
        # helix heights above four of the sampled angles, so the outermost
        # ring carries points at 3D distance ~2.2e-3 with distinct phases
        z_vals = b * (np.array([0.0, np.pi / 4, 3 * np.pi / 8, np.pi / 2]) + 2.0 * np.pi)
    return np.array(
        [
            (r * np.cos(t), r * np.sin(t), z)
            for r in radii
            for t in angles
            for z in z_vals
        ]
    )


def test_criterion_5_near_singular_stokeslet():
    start = time.perf_counter()
    full = os.environ.get("SLENDERQUAD_FULL_GRID") == "1"
    budget = 300.0 if full else 15.0
    points = _field_points(full)
    f, _ = forces.testf_simple(HELIX)
    reference = reference_S(HELIX, f, points, tol=1e-12)

    def run(m, mode):
        pcurve = discretize(HELIX, m, RULE)
        density = LineDensity.from_closure(f, pcurve.grid)
        evaluate = eval_S if mode == "special" else eval_S_regular
        values = evaluate(pcurve, density, points)
        return np.array([np.linalg.norm(v - ref) for v, ref in zip(values, reference)])

    special8 = run(8, "special")
    regular6 = run(6, "regular")
    regular12 = run(12, "regular")

    radius = 8.0 / 73.0
    near_boundary = np.hypot(points[:, 0], points[:, 1]) > radius - 2.0 * 2.2e-3
    special_ok = special8.max() <= 1e-8
    regular_large = regular12[near_boundary].max() >= 1e-4
    no_improvement = regular6.max() <= 2.0 * regular12.max()
    elapsed = time.perf_counter() - start
    detail = (
        f"{'full' if full else 'subsample'} grid ({len(points)} pts): "
        f"special M=8 {special8.max():.2e}, regular M=12 near-boundary "
        f"{regular12[near_boundary].max():.2e}, M=6/M=12 ratio "
        f"{regular6.max() / regular12.max():.2f}"
    )
    _report(
        5,
        "near-singular Stokeslet",
        special_ok and regular_large and no_improvement,
        elapsed,
        budget,
        detail,
    )


def test_criterion_6_moment_oracle():
    start = time.perf_counter()
    draws = forces.splitmix64_uniforms(2024, 100)
    worst = 0.0
    for i in range(50):
        a = draws[2 * i]
        b = 10.0 ** (-3.0 + 3.0 * (draws[2 * i + 1] + 1.0) / 2.0)
        for p in (1, 3):
            got = qkp_moments(complex(a, b), 16)[:, p // 2]
            for k in range(16):
                integrand = lambda e: e**k / ((e - a) ** 2 + b * b) ** (p / 2.0)
                ref = adaptive_integrate(integrand, -1.0, a, 1e-13) + adaptive_integrate(
                    integrand, a, 1.0, 1e-13
                )
                worst = max(worst, abs(got[k] - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    _report(6, "moment oracle", worst <= 1e-11, elapsed, 5.0, f"max rel error {worst:.3e}")


def test_criterion_7_structural_identities():
    start = time.perf_counter()
    straight = make_straight((1.0, 0.0, 0.0), 1.0)
    pcurve = discretize(straight, 4, RULE)

    def f(s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.sin(2 * np.pi * s), np.cos(s), s**2], axis=-1)

    density = LineDensity.from_closure(f, pcurve.grid)
    projector = np.array([2.0, 1.0, 1.0])
    identity_worst = 0.0
    for t in range(pcurve.grid.node_count):
        componentwise = np.array(
            [
                eval_L(LineDensity(samples=density.samples[:, c]), pcurve.grid, TABLE, t)
                for c in range(3)
            ]
        )
        diff = eval_K(pcurve, density, TABLE, t) - projector * componentwise
        identity_worst = max(identity_worst, float(np.max(np.abs(diff))))

    constant = LineDensity(samples=np.tile([0.3, -0.8, 0.5], (pcurve.grid.node_count, 1)))
    constant_worst = float(np.max(np.abs(eval_K_all(pcurve, constant, TABLE))))

    ftest, fptest = forces.testf(1.5)
    pc_helix = discretize(HELIX, 8, RULE)
    base = eval_K_all(
        pc_helix, LineDensity.from_closure(ftest, pc_helix.grid, derivative=fptest), TABLE
    )
    rot = rotation_matrix((0.2, 1.0, -0.4), 2.1)
    shift = np.array([1.0, -0.5, 2.0])
    moved = FiberCurve(
        1.5,
        lambda s: HELIX.position(s) @ rot.T + shift,
        lambda s: HELIX.tangent(s) @ rot.T,
        lambda s: HELIX.second_derivative(s) @ rot.T,
    )
    pc_moved = discretize(moved, 8, RULE)
    turned = eval_K_all(
        pc_moved,
        LineDensity.from_closure(
            lambda s: ftest(s) @ rot.T, pc_moved.grid, derivative=lambda s: fptest(s) @ rot.T
        ),
        TABLE,
    )
    rigid_worst = float(
        np.max(np.abs(np.linalg.norm(turned, axis=1) - np.linalg.norm(base, axis=1)))
    )
    ok = identity_worst <= 1e-12 and constant_worst <= 1e-14 and rigid_worst <= 1e-12
    elapsed = time.perf_counter() - start
    detail = (
        f"projected-L {identity_worst:.2e}, constant-K {constant_worst:.2e}, "
        f"rigid motion {rigid_worst:.2e}"
    )
    _report(7, "structural identities", ok, elapsed, 5.0, detail)


def test_criterion_8_limit_correctness():
    start = time.perf_counter()
    f, fprime = forces.testf(1.5)
    ratios = []
    for s_bar in (0.35, 0.8, 1.1):
        limit = g_pair(HELIX, f, fprime, s_bar, s_bar)
        errs = [
            np.linalg.norm(g_pair(HELIX, f, fprime, s_bar + h, s_bar) - limit)
            for h in (1e-2, 1e-3, 1e-4)
        ]
        ratios.extend([errs[0] / errs[1], errs[1] / errs[2]])
    ok = all(5.0 <= r <= 20.0 for r in ratios)
    elapsed = time.perf_counter() - start
    detail = "decade ratios " + ", ".join(f"{r:.1f}" for r in ratios)
    _report(8, "limit correctness", ok, elapsed, 1.0, detail)
