import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (graded_moments_two_sided, legendre_deriv_coeffs_numpy_scalars,
                     legendre_monomials_exact, moments_graded_concatenate,
                     moments_recursion_numpy_scalars, segment_stokeslet)
from slenderquad import cli, forces, nearsing
from slenderquad.finitepart import LineDensity
from slenderquad.geometry import discretize, make_helix, make_straight
from slenderquad.nearsing import (
    eval_S,
    eval_S_regular,
    find_root,
    qkp_moments,
)
from slenderquad.oracle import adaptive_integrate, reference_S
from slenderquad.quadcore import gauss_legendre, legendre_eval

RULE = gauss_legendre(16)


def guessed_root(pc, m, pt):
    """Panel m's root and reason, from the guess at its closest node as eval_S starts it."""
    n = pc.grid.rule.order
    r = pt - pc.positions
    node = m * n + np.argmin(np.sum(r[m * n : (m + 1) * n] ** 2, axis=1))
    guess = nearsing._osculating_guesses(pc, np.array([node]), r[node][None])
    roots, reasons = find_root(pc.panel_coeffs[m][None], pt[None], guess)
    return roots[0], reasons[0]


def constant_density(grid, value):
    vec = np.asarray(value, dtype=float)
    return LineDensity(samples=np.tile(vec, (grid.node_count, 1)))


class TestEvalSRegular:
    def test_zero_density(self):
        pc = discretize(make_helix(8.0, 3.0, 1.5), 4, RULE)
        dens = constant_density(pc.grid, (0.0, 0.0, 0.0))
        assert np.all(eval_S_regular(pc, dens, np.array([1.0, 1.0, 1.0])) == 0.0)

    def test_straight_fiber_closed_form(self):
        pc = discretize(make_straight((1.0, 0.0, 0.0), 1.0), 2, RULE)
        fconst = (0.0, 0.0, 1.0)
        dens = constant_density(pc.grid, fconst)
        got = eval_S_regular(pc, dens, np.array([0.5, 1.0, 0.0]))
        expected = segment_stokeslet(0.5, 1.0, 1.0, fconst)
        assert got == pytest.approx(expected, abs=1e-12)
        # the first-kernel part alone is 2 asinh(1/2) for this geometry
        assert expected[2] == pytest.approx(2.0 * np.arcsinh(0.5), abs=1e-15)

    def test_far_field_matches_oracle(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf_simple(helix)
        pc = discretize(helix, 8, RULE)
        dens = LineDensity(f(pc.grid.global_nodes))
        x_bar = np.array([1.0, -0.7, 0.9])
        ref = reference_S(helix, f, x_bar, tol=1e-13)
        assert eval_S_regular(pc, dens, x_bar) == pytest.approx(ref, abs=1e-12)

    def test_on_node_raises(self):
        pc = discretize(make_helix(8.0, 3.0, 1.5), 2, RULE)
        dens = constant_density(pc.grid, (1.0, 0.0, 0.0))
        with pytest.raises(ZeroDivisionError):
            eval_S_regular(pc, dens, pc.positions[7])


class TestFindRoot:
    def test_straight_panel_center(self):
        pc = discretize(make_straight((1.0, 0.0, 0.0), 1.0), 1, RULE)
        d = 0.1
        # a guess off the root, so the steps do the work the exact osculating guess would skip
        z1, reasons = find_root(
            pc.panel_coeffs[:1], np.array([[0.5, d, 0.0]]), np.array([0.3 + 0.5j])
        )
        # x(eta) = (eta+1)/2, so R^2 has roots at eta = 2 x_bar - 1 +- 2 i d
        assert z1.shape == (1,) and z1.dtype == complex and reasons == [""]
        assert z1[0] == pytest.approx(2j * d, abs=1e-12)

    def test_straight_panel_interior_offset(self):
        pc = discretize(make_straight((1.0, 0.0, 0.0), 1.0), 1, RULE)
        d = 0.07
        z1, _ = find_root(pc.panel_coeffs[:1], np.array([[0.3, 0.0, d]]), np.array([0.2 + 0.5j]))
        assert z1[0] == pytest.approx(complex(-0.4, 2 * d), abs=1e-12)

    def test_residual_scale(self):
        helix = make_helix(8.0, 3.0, 1.5)
        pc = discretize(helix, 8, RULE)
        s0 = 0.7
        pt = helix.position(s0) + 0.01 * helix.second_derivative(s0) / 8.0
        m = int(s0 / pc.grid.panel_width)
        z1, _ = guessed_root(pc, m, pt)
        diff = pt - legendre_eval(pc.panel_coeffs[m], z1)
        sl = pc.grid.panel_slice(m)
        scale = np.max(np.sum((pt[None, :] - pc.positions[sl]) ** 2, axis=1))
        assert abs(complex(diff @ diff)) <= 1e-12 * scale

    def test_conjugate_symmetry(self):
        # real-coefficient expansions give conjugate R^2 values
        pc = discretize(make_helix(8.0, 3.0, 1.5), 8, RULE)
        coeffs = pc.panel_coeffs[3]
        pt = pc.positions[3 * 16 + 7] + np.array([0.0, 0.0, 5e-3])
        z1, _ = guessed_root(pc, 3, pt)
        vals_up = legendre_eval(coeffs, z1)
        vals_dn = legendre_eval(coeffs, z1.conjugate())
        r2_up = np.sum((pt - vals_up) ** 2)
        r2_dn = np.sum((pt - vals_dn) ** 2)
        assert r2_dn == pytest.approx(r2_up.conjugate(), abs=1e-14)

    def test_newton_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 5)
        helix = make_helix(8.0, 3.0, 1.5)
        pc = discretize(helix, 8, RULE)
        s0 = 0.33
        pt = helix.position(s0) + 2e-3 * helix.second_derivative(s0) / 8.0
        m = int(s0 / pc.grid.panel_width)
        z1, reason = guessed_root(pc, m, pt)  # converges within 5 iterations
        assert z1.imag > 0 and reason == ""

    def test_straight_panel_converges_in_two_steps(self, monkeypatch):
        # R^2 of a straight panel is quadratic in eta, so the first step's model root is the
        # root, and the second step confirms it
        line = np.zeros((1, 3, 16))
        line[0, 0, :2] = 0.5  # x(eta) = ((eta + 1)/2, 0, 0) exactly
        pair = line, np.array([[0.5, 0.1, 0.0]]), np.array([0.3 + 0.5j])
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 2)
        z1, reasons = find_root(*pair)
        assert reasons == [""] and z1[0] == pytest.approx(0.2j, abs=1e-15)
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 1)
        assert find_root(*pair)[1] == ["no convergence in 1 iterations"]

    def test_second_derivative_matrix_is_the_square_of_the_unit_columns(self):
        # the product of the reference loop's columns, bit for bit
        for n in range(1, 65):
            first = np.column_stack([legendre_deriv_coeffs_numpy_scalars(u) for u in np.eye(n)])
            second = nearsing._second_derivative_matrix(n)
            assert np.array_equal(second, first @ first) and second.dtype == np.float64
            assert not second.flags.writeable and nearsing._second_derivative_matrix(n) is second

    def test_failure_returns_nan_and_reason(self, monkeypatch):
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 1)
        pc = discretize(make_helix(8.0, 3.0, 1.5), 8, RULE)
        z1, reason = guessed_root(pc, 0, np.array([0.02, 0.01, 0.2]))
        assert np.isnan(z1.real) and np.isnan(z1.imag)
        assert reason == "no convergence in 1 iterations"


def _s_field_near_points(helix, seed, count=128):
    """Points 2.2e-3 to 2e-2 off interior centerline points, drawn as the s_field benchmark does."""
    rng = np.random.default_rng(seed)
    batch, batches = 64, count // 64

    def stratified(lo, hi):
        u = (rng.permuted(np.tile(np.arange(batch), (batches, 1)), axis=1)
             + rng.uniform(size=(batches, batch))) / batch
        return (lo + (hi - lo) * u).ravel()

    s = stratified(0.05 * helix.length, 0.95 * helix.length)
    dist = np.exp(stratified(np.log(2.2e-3), np.log(2e-2)))
    angle = stratified(0.0, 2.0 * np.pi)
    normal = helix.second_derivative(s)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    binormal = np.cross(helix.tangent(s), normal)
    offset = np.cos(angle)[:, None] * normal + np.sin(angle)[:, None] * binormal
    return helix.position(s) + dist[:, None] * offset


def _newton_pairs(pc, points):
    """The (point, panel) pairs eval_S starts Newton on: coefficients, points and guesses."""
    tt, mm, guess = nearsing._near_pairs(pc, points, *nearsing._offsets(pc.positions, points))
    return pc.panel_coeffs[mm], points[tt], guess


def _one_pair_roots(coeffs, points, guesses):
    """Each pair's root from its own one-row block."""
    pairs = zip(coeffs, points, guesses)
    return np.concatenate([find_root(c[None], x[None], g[None])[0] for c, x, g in pairs])


class TestFindRootBlocks:
    HELIX = make_helix(8.0, 3.0, 1.5)
    LINE = np.array([[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]])  # x(eta) = ((eta + 1)/2, 0, 0) exactly

    def setup_method(self):
        self.pc = discretize(self.HELIX, 8, RULE)
        self.pairs = _newton_pairs(self.pc, _s_field_near_points(self.HELIX, 41))

    @pytest.mark.parametrize("count", [1, 2, 31, 32, 33])
    def test_block_equals_one_pair_calls_bitwise(self, count):
        coeffs, points, guesses = (a[:count] for a in self.pairs)
        block, reasons = find_root(coeffs, points, guesses)
        assert block.shape == (count,) and block.dtype == complex and reasons == [""] * count
        assert block.tobytes() == _one_pair_roots(coeffs, points, guesses).tobytes()

    def test_all_s_field_near_pairs_bitwise(self):
        coeffs, points, guesses = self.pairs
        assert len(guesses) >= 250
        block, reasons = find_root(coeffs, points, guesses)
        assert block.tobytes() == _one_pair_roots(coeffs, points, guesses).tobytes()
        assert np.all(block.imag > 0) and not any(reasons)

    def _table_builds(self, monkeypatch, coeffs, points, guesses):
        """Each pair's root from its own one-row block, and the Legendre tables built."""
        builds = []
        terms = nearsing._legendre_terms
        monkeypatch.setattr(
            nearsing, "_legendre_terms", lambda z, n: builds.append(z) or terms(z, n)
        )
        return _one_pair_roots(coeffs, points, guesses), len(builds)

    def test_table_builds_per_pair(self, monkeypatch):
        # Newton's halving steps took 8.0 tables per pair on these 257 pairs and Cauchy's steps
        # from the chord guess 4.10; from the osculating guesses they take 2.83
        roots, builds = self._table_builds(monkeypatch, *self.pairs)
        assert len(roots) == 257 and np.all(roots.imag > 0)
        assert builds <= 3.0 * len(roots)

    def test_guess_is_the_root_on_a_straight_panel(self, monkeypatch):
        # R^2 of a straight panel is the osculating quadratic: the first step only confirms
        pc = discretize(make_straight((0.6, 0.0, 0.8), 1.0), 4, RULE)
        rng = np.random.default_rng(7)
        direction = rng.standard_normal((64, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        points = (rng.uniform(0.05, 0.95, 64)[:, None] * np.array([0.6, 0.0, 0.8])
                  + 10.0 ** rng.uniform(-4, -1.5, 64)[:, None] * direction)
        coeffs, points, guesses = _newton_pairs(pc, points)
        roots, builds = self._table_builds(monkeypatch, coeffs, points, guesses)
        assert len(roots) >= 64 and np.all(roots.imag > 0)
        assert builds <= 2 * len(roots)
        # past the panel ends the expansion's rounding noise moves the roots off the line's
        inside = np.abs(roots.real) <= 1.0
        assert inside.sum() >= 32 and np.abs(guesses - roots)[inside].max() <= 1e-12

    def test_roots_are_their_own_polished_roots(self):
        # roots started from the guesses and from themselves agree to rounding
        coeffs, points, guesses = self.pairs
        roots, _ = find_root(coeffs, points, guesses)
        polished, reasons = find_root(coeffs, points, roots)
        assert not any(reasons)
        assert np.all(np.abs(polished - roots) <= 2e-15 * np.abs(roots))

    def test_empty_block(self):
        got, reasons = find_root(np.zeros((0, 3, 16)), np.zeros((0, 3)), np.zeros(0, dtype=complex))
        assert got.shape == (0,) and reasons == []

    def _assert_failures(self, coeffs, points, guesses, reasons):
        """The block returns every pair's outcome; good roots keep their one-row bits."""
        roots, got = find_root(coeffs, points, guesses)
        bad = np.array([bool(r) for r in reasons])
        assert got == reasons
        assert np.array_equal(np.isnan(roots), bad)
        assert np.isnan(roots[bad].real).all() and np.isnan(roots[bad].imag).all()
        good = _one_pair_roots(coeffs[~bad], points[~bad], guesses[~bad])
        assert roots[~bad].tobytes() == good.tobytes()
        for c, x, g, reason in zip(coeffs[bad], points[bad], guesses[bad], np.array(reasons)[bad]):
            alone, alone_reasons = find_root(c[None], x[None], g[None])
            assert alone_reasons == [reason] and np.isnan(alone).all()

    def test_no_convergence_fails_its_pairs_only(self, monkeypatch):
        coeffs, points, guesses = (a[:40] for a in self.pairs)
        # pairs whose guess is further off the root need more steps than others
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 2)
        pairs = zip(coeffs, points, guesses)
        reasons = [find_root(c[None], x[None], g[None])[1][0] for c, x, g in pairs]
        assert "" in reasons and "no convergence in 2 iterations" in reasons
        self._assert_failures(coeffs, points, guesses, reasons)

    def test_escape_and_real_roots_fail_their_pairs_only(self):
        straight = discretize(make_straight((1.0, 0.0, 0.0), 1.0), 1, RULE).panel_coeffs[0]
        line = np.zeros((3, 16))
        line[:, :2] = self.LINE
        constant = np.zeros((3, 16))
        constant[:, 0] = self.LINE[:, 0]  # x(eta) = (0.5, 0, 0): R^2 is flat everywhere
        coeffs, points, guesses = (a[:3] for a in self.pairs)
        coeffs = np.concatenate(
            [coeffs[:1], [line, straight], coeffs[1:], [line, constant, straight, line]]
        )
        points = np.concatenate([points[:1], [[0.5, 50.0, 0.0], [1.5, 0.0, 0.0]], points[1:],
                                 [[1.5, 0.0, 0.0], [1.5, 0.0, 0.0], [0.25, 0.0, 0.0],
                                  [1.0, 0.0, 0.0]]])
        # the roots +-100i lie beyond the escape radius; the extension point has a real
        # double root at eta = 2, which a real start reaches, also on the order-16 panel whose
        # coefficient noise leaves the last step an imaginary part of rounding size, and which
        # a start on it has already reached; the points on the panels have theirs at
        # eta = -0.5 and at the panel's end, eta = 1
        guesses = np.concatenate(
            [guesses[:1], [0.1j, 2.0 + 1e-12], guesses[1:], [2.0, 0.5j, 0.3j, 0.9 + 0.2j]]
        )
        reasons = [
            "",
            "Newton iterate escaped the panel neighborhood",
            "converged to a real root; point lies on the curve extension",
            "",
            "",
            "converged to a real root; point lies on the curve extension",
            "stationary R^2, Newton step undefined",
            "converged to a real root on the panel; point lies on the centerline",
            "converged to a real root on the panel; point lies on the centerline",
        ]
        self._assert_failures(coeffs, points, guesses, reasons)

    @pytest.mark.parametrize(
        "point, guess",
        [
            (np.array([np.nan, 0.0, 0.0]), 0.5j),
            (np.array([0.0, np.inf, 0.0]), 0.5j),
            (np.array([0.5, 0.1, 0.0]), complex(np.nan, 0.5)),
            (np.array([0.5, 0.1, 0.0]), complex(np.inf, 0.0)),
        ],
    )
    def test_rejects_non_finite_before_any_newton_step(self, point, guess, monkeypatch):
        def no_work(*args):
            raise AssertionError("Newton ran on rejected input")

        monkeypatch.setattr(nearsing, "_legendre_terms", no_work)
        with pytest.raises(ValueError, match="must be finite"):
            find_root(self.LINE[None], point[None], np.array([guess]))
        with pytest.raises(ValueError, match="must be finite"):
            find_root(self.LINE[None].repeat(2, 0), np.stack([[0.5, 0.1, 0.0], point]),
                      np.array([0.5j, guess]))

    @pytest.mark.parametrize(
        "coeffs, point, guess",
        [
            (np.zeros((3, 4)), np.zeros(3), 0.5j),
            (np.zeros((3, 4)), np.zeros(2), 0.5j),
            (np.zeros((3, 4)), np.zeros(3), np.array([0.5j])),
            (np.zeros((1, 3, 4)), np.zeros(3), np.array([0.5j])),
            (np.zeros((1, 3, 4)), np.zeros((1, 3)), 0.5j),
            (np.zeros((1, 3, 0)), np.zeros((1, 3)), np.array([0.5j])),
            (np.zeros((2, 4)), np.zeros(2), 0.5j),
            (np.zeros((3, 0)), np.zeros(3), 0.5j),
            (np.zeros(4), np.zeros(3), 0.5j),
            (np.zeros((2, 3, 4)), np.zeros((3, 3)), np.full(2, 0.5j)),
            (np.zeros((2, 3, 4)), np.zeros((2, 3)), np.full(3, 0.5j)),
            (np.zeros((2, 3, 4)), np.zeros((2, 3)), 0.5j),
            (np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3)), np.full((1, 2), 0.5j)),
        ],
    )
    def test_rejects_mismatched_shapes_before_any_newton_step(self, coeffs, point, guess,
                                                              monkeypatch):
        def no_work(*args):
            raise AssertionError("Newton ran on rejected input")

        monkeypatch.setattr(nearsing, "_legendre_terms", no_work)
        with pytest.raises(ValueError, match=r"find_root takes \(P, 3, n\) coefficients"):
            find_root(coeffs, point, guess)


class TestQkpMoments:
    def test_p1_closed_form(self):
        got = qkp_moments(0.5j, 1)
        assert got.shape == (1, 2)
        assert got[0, 0] == pytest.approx(2.0 * np.arcsinh(2.0), abs=1e-14)

    def test_p3_closed_form(self):
        got = qkp_moments(0.5j, 1)
        d = 0.5
        assert got[0, 1] == pytest.approx(2.0 / (d**2 * np.sqrt(1 + d**2)), abs=1e-13)

    def test_odd_moment_vanishes_on_axis(self):
        got = qkp_moments(0.25j, 2)
        assert got[1] == pytest.approx([0.0, 0.0], abs=1e-15)

    @pytest.mark.parametrize("p", [1, 3])
    def test_against_adaptive_integration(self, p):
        rng = np.random.default_rng(17)
        for _ in range(12):
            a = rng.uniform(-1.0, 1.0)
            b = 10.0 ** rng.uniform(-3, 0)
            got = qkp_moments(complex(a, b), 16)[:, p // 2]
            for k in (0, 3, 9, 15):
                integrand = lambda e: e**k / ((e - a) ** 2 + b * b) ** (p / 2.0)
                ref = adaptive_integrate(integrand, -1.0, a, 1e-13) + adaptive_integrate(
                    integrand, a, 1.0, 1e-13
                )
                assert got[k] == pytest.approx(ref, rel=1e-11)

    def test_far_root_branch(self):
        # far roots take the graded rule's level 0, one 32-point panel
        for z in (0.2 + 2.0j, 1.8 + 0.05j, -3.0 + 0.7j):
            got = qkp_moments(z, 16)[:, 0]
            a, b = z.real, z.imag
            for k in (0, 7, 15):
                integrand = lambda e: e**k / ((e - a) ** 2 + b * b) ** 0.5
                ref = adaptive_integrate(integrand, -1.0, 1.0, 1e-13)
                assert got[k] == pytest.approx(ref, rel=1e-12)

    def test_route_map(self):
        # the recursion over the interval up to Im z1 = 1, the graded rule for every other root
        for a in (0.0, 0.3, -0.7, 0.999, 1.0, -1.0):
            for b in (1e-10, 1e-6, 1e-2, 0.5, 1.0):
                got = qkp_moments(complex(a, b), 16)
                assert got.tobytes() == nearsing._moments_recursion(a, b, 16).tobytes()
        assert nearsing._PANEL_RHO == 2.05
        for a, b in ((-1.27, 1e-8), (1.4, 1e-6), (1.1, 1.0), (0.2, 1.01), (0.5, 1.5), (-3.0, 0.7),
                     (1.0 + 1e-12, 1e-8), (-1.01, 1e-5), (1.2, 1e-6), (-1.26, 1e-3), (1.1, 0.3),
                     (0.0, 1.0 + 1e-15), (-1.0 - 1e-15, 1e-10), (1e3, 1e-10)):
            got = qkp_moments(complex(a, b), 16)
            assert got.tobytes() == nearsing._moments_graded(a, b, 16).tobytes(), (a, b)

    def test_one_panel_route(self):
        # roots past either end on Bernstein ellipses rho = 2.05 to 4, Im z1 from 1e-10 to 1,
        # which the graded rule's level 0, the 32-point rule on [-1, 1], takes; against
        # adaptive Gauss-Kronrod and the two-sided graded reference
        rule = gauss_legendre(32)
        nearsing._graded_table.cache_clear()
        table = nearsing._graded_table(0)
        assert table.shape == (1, 18, 32) and table is nearsing._graded_table(0)
        assert np.array_equal(table[0, 0], rule.nodes - 1.0)
        assert np.array_equal(table[0, 1], rule.weights)
        assert np.array_equal(table[0, 3], rule.nodes) and np.all(table[0, 2] == 1.0)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 2.0
        checked = 0
        for rho in (2.05 * (1 + 1e-9), 2.5, 3.0, 4.0):
            major, minor = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
            for b in (1e-10, 1e-6, 1e-3, 0.1, 0.5, 1.0):
                a = major * np.sqrt(1 - (b / minor) ** 2) if b < minor else 0.0
                if a <= 1.0:
                    continue
                for z in (complex(a, b), complex(-a, b)):
                    got = qkp_moments(z, 16)
                    ref = np.column_stack([
                        adaptive_integrate(
                            lambda e, p=p: e[:, None] ** np.arange(16)
                            / ((e - z.real) ** 2 + b * b)[:, None] ** (p / 2.0),
                            -1.0, 1.0, 1e-15,
                        )
                        for p in (1, 3)
                    ])
                    for other in (ref, graded_moments_two_sided(z.real, b, 16)):
                        scale = np.abs(other).max(axis=0)
                        assert np.all(np.abs(got - other).max(axis=0) <= 2.2e-15 * scale), z
                    checked += 1
        assert checked == 42
        # every one of these roots stays at level 0: no finer table is built
        assert nearsing._graded_table.cache_info().currsize == 1
        # just inside rho = 2.05 a root takes level 1
        rho = 2.05 * (1 - 1e-9)
        qkp_moments(complex((rho + 1 / rho) / 2, 1e-10), 16)
        assert nearsing._graded_table.cache_info().currsize == 2

    def test_graded_rule_against_the_reference(self):
        # seeded roots past either end, |Re z1| - 1 from 1e-15 to 2 and Im z1 from 1e-10 to
        # 2.5, and over the interval above Im z1 = 1
        rng = np.random.default_rng(2026)
        past = np.concatenate([10.0 ** rng.uniform(-15, np.log10(2.0), 400),
                               rng.uniform(0, 2, 100)])
        imag = 10.0 ** rng.uniform(-10, np.log10(2.5), 500)
        roots = [(s * (1.0 + d), b) for s, d, b in zip(rng.choice([-1.0, 1.0], 500), past, imag)]
        roots += [(a, b) for a, b in zip(rng.uniform(-1, 1, 40), rng.uniform(1.0 + 1e-9, 2.5, 40))]
        # the deepest root the real-root floor allows
        roots += [(1.0 + 1e-15, 1e-10), (-1.0 - 1e-15, 1e-10)]
        for a, b in roots:
            got = qkp_moments(complex(a, b), 16)
            ref = graded_moments_two_sided(a, b, 16)
            scale = np.abs(ref).max(axis=0)
            assert np.all(np.abs(got - ref).max(axis=0) <= 2.2e-15 * scale), (a, b)

    def test_bytes_of_the_routes_as_first_written(self, monkeypatch):
        # a rounding drift would pass the tolerance tests against 120-digit moments: every
        # count of 2105 seeded roots keeps the bytes and C order of the routes as first written
        rng = np.random.default_rng(32)
        uniform = rng.uniform

        def complexes(re, im):
            return [complex(a, b) for a, b in zip(re, im)]

        over = complexes(uniform(-1, 1, 800), 10.0 ** uniform(-10, 0, 800))
        high = complexes(uniform(-1, 1, 300), uniform(1, 2.5, 300))
        # past either end, down to 2^-15 from it, so the graded rule runs at levels 0-12
        past = rng.choice([-1.0, 1.0], 900) * (1.0 + 2.0 ** uniform(-15, 1, 900))
        ends = complexes(past, 10.0 ** uniform(-10, -1, 900))
        far = complexes(uniform(-100, 100, 100), 10.0 ** uniform(-10, 1, 100))
        edges = [1.0 + 1e-10j, -1.0 + 1j, 1j, 1.0 + 1e-15 + 1e-10j, -1.0 - 1e-15 + 1e-10j]
        roots = over + high + ends + far + edges
        assert sum(z.real < 0 for z in roots) > 900  # mirrored roots
        levels, table = set(), nearsing._graded_table
        monkeypatch.setattr(nearsing, "_graded_table", lambda lev: levels.add(lev) or table(lev))
        drift = []
        for z in roots:
            over_interval = abs(z.real) <= 1.0 and z.imag <= 1.0
            route = moments_recursion_numpy_scalars if over_interval else moments_graded_concatenate
            for count in range(1, 17):
                got, ref = qkp_moments(z, count), route(z.real, z.imag, count)
                assert got.shape == (count, 2) and got.dtype == np.float64
                assert got.flags.c_contiguous
                if got.tobytes() != ref.tobytes():
                    drift.append((z, count))
        assert not drift, drift[:5]
        assert levels >= set(range(13))

    def test_mirrored_roots_flip_the_odd_moments_bitwise(self):
        rng = np.random.default_rng(8)
        past = 10.0 ** rng.uniform(-15, 1, 60)
        for a, b in zip(1.0 + past, 10.0 ** rng.uniform(-10, 1, 60)):
            right, left = qkp_moments(complex(a, b), 16), qkp_moments(complex(-a, b), 16)
            assert left.tobytes() == (right * ((-1.0) ** np.arange(16))[:, None]).tobytes(), (a, b)

    def test_import_builds_no_graded_table(self):
        # nor a derivative matrix: each is built on first use
        code = ("import slenderquad; from slenderquad import nearsing, quadcore; "
                "print(nearsing._graded_table.cache_info().currsize, "
                "nearsing._second_derivative_matrix.cache_info().currsize, "
                "quadcore._derivative_matrix.cache_info().currsize)")
        src = str(Path(nearsing.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.split() == ["0", "0", "0"]

    def test_both_routes_agree_over_the_interval(self):
        # the two-sided graded reference keeps eta - a as offsets, so even Im z1 = 1e-10 leaves
        # it its digits, where adaptive Gauss-Kronrod cannot certify 1e-14
        for a in (0.0, 0.3, -0.7, 0.999, -1.0):
            for b in 10.0 ** np.arange(-10.0, 0.5, 1.0):
                rec = nearsing._moments_recursion(a, b, 16)
                graded = graded_moments_two_sided(a, b, 16)
                scale = np.abs(graded).max(axis=0)
                assert np.all(np.abs(rec - graded).max(axis=0) <= 2e-13 * scale), (a, b)

    @pytest.mark.parametrize(
        "past, b",
        [(0.01, 1e-5), (0.1, 1e-5), (0.2, 1e-6), (0.4, 1e-6), (0.4, 2e-2), (0.49, 1e-4)],
    )
    def test_roots_past_a_panel_end(self, past, b):
        # the worst cases of the recursion past a panel end, where the map sends them to the
        # graded rule; checked against adaptive Gauss-Kronrod on the smooth integrand
        for a in (1.0 + past, -1.0 - past):
            got = qkp_moments(complex(a, b), 16)
            ref = np.column_stack([
                adaptive_integrate(
                    lambda e, p=p: e[:, None] ** np.arange(16) / ((e - a) ** 2 + b * b)[:, None]
                    ** (p / 2.0),
                    -1.0, 1.0, 1e-14,
                )
                for p in (1, 3)
            ])
            scale = np.abs(ref).max(axis=0)
            assert np.all(np.abs(got - ref).max(axis=0) <= 1e-13 * scale)
            rec = nearsing._moments_recursion(a, b, 16)
            assert np.abs(rec - ref).max() > 1e3 * np.abs(got - ref).max()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            qkp_moments(0.5 - 0.1j, 4)
        with pytest.raises(ValueError):
            qkp_moments(0.5j, 17)
        with pytest.raises(ValueError):
            qkp_moments(0.5j, 0)
        for z1 in (complex(np.nan, 0.3), complex(0.2, np.nan), complex(np.inf, 0.5),
                   complex(-np.inf, 0.5), complex(0.1, np.inf)):
            with pytest.raises(ValueError, match="z1 must be finite"):
                qkp_moments(z1, 3)
        for count in (3.0, 2.5):
            with pytest.raises(ValueError, match=rf"integer in \[1, 16\], got {count}"):
                qkp_moments(0.1 + 0.2j, count)
        assert qkp_moments(0.1 + 0.2j, np.int64(3)).shape == (3, 2)
        # below the real-root floor q_0^3 ~ 2 / Im(z1)^2 overflows; such roots are real
        for z1 in (0.3 + 1e-160j, 0.3 + 0.99e-10j, 1.5 + 5e-324j, -2.0 + 1e-11j):
            with pytest.raises(ValueError, match=r"Im\(z1\) >= REAL_ROOT_FLOOR"):
                qkp_moments(z1, 16)
        assert np.isfinite(qkp_moments(0.3 + nearsing.REAL_ROOT_FLOOR * 1j, 16)).all()

    def test_rejects_roots_whose_distance_overflows(self, monkeypatch):
        # from |z1| ~ 1.3e154 on, |eta - z1|^2 overflows and the graded rule returned zeros
        # with a RuntimeWarning, though q_0^1 ~ 2 / |z1| is representable
        def no_work(*args):
            raise AssertionError("moments computed for a rejected root")

        monkeypatch.setattr(nearsing, "_moments_graded", no_work)
        monkeypatch.setattr(nearsing, "_moments_recursion", no_work)
        for z1 in (1e160 + 1j, 1e160j, 2.0 + 1e160j):
            with pytest.raises(ValueError, match=r"\|eta - z1\|\^2 finite"):
                qkp_moments(z1, 16)
        monkeypatch.undo()
        q = qkp_moments(1e150 + 1j, 16)
        assert abs(q[0, 0] - 2e-150) <= 1e-15 * 2e-150


class TestMomentWeights:
    def test_legendre_monomials_are_exact(self):
        for n in range(1, nearsing.MAX_MOMENT_COUNT + 1):
            c = nearsing._legendre_monomials(n)
            assert c.shape == (n, n) and c is nearsing._legendre_monomials(n)
            with pytest.raises(ValueError, match="read-only"):
                c[0, 0] = 2.0
            scaled = c * 2.0 ** (n - 1)
            assert np.array_equal(scaled, np.round(scaled))
            exact = legendre_monomials_exact(n)
            assert all(c[d, m] == exact[d][m] for d in range(n) for m in range(n))
        assert np.abs(nearsing._legendre_monomials(16)).max() == pytest.approx(2.4757e4, rel=1e-4)

    def test_legendre_monomials_give_p_k_at_the_nodes(self):
        for n in range(1, nearsing.MAX_MOMENT_COUNT + 1):
            nodes = gauss_legendre(n).nodes
            c = nearsing._legendre_monomials(n)
            powers = np.vander(nodes, n, increasing=True)
            p_k = np.array([legendre_eval(np.eye(n)[k], nodes) for k in range(n)]).T
            # rounding of the sum over terms as large as |C| |eta|^m
            bound = 4 * n * np.finfo(float).eps * (np.abs(powers) @ np.abs(c).T)
            assert np.all(np.abs(powers @ c.T - p_k) <= bound + 1e-15)

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_weights_integrate_monomials_to_the_moments(self, n):
        rule = gauss_legendre(n)
        powers = np.vander(rule.nodes, n, increasing=True)
        # roots over the interval take the recursion, the others the graded rule
        recursion = (0.3 + 1e-8j, -0.7 + 1e-3j, 0.999 + 0.2j, 0.1 + 0.9j, 1.0 + 1e-6j)
        others = (1.4 + 1e-6j, -1.2 + 0.05j, 1.01 + 1e-5j, 0.2 + 2.0j, -3.0 + 0.7j)
        for z in recursion + others:
            q = qkp_moments(z, n)
            w = nearsing._moment_weights(rule, q[None])
            assert w.shape == (1, n, 2)
            err = np.abs(powers.T @ w[0] - q).max(axis=0)
            assert np.all(err <= 1e-13 * np.abs(q).max(axis=0)), z


class TestEvalSSpecial:
    def test_far_point_agrees_with_regular(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf_simple(helix)
        pc = discretize(helix, 8, RULE)
        dens = LineDensity(f(pc.grid.global_nodes))
        m = 4
        sl = pc.grid.panel_slice(m)
        center = pc.positions[sl].mean(axis=0)
        pt = center + np.array([0.0, 0.0, 5.0]) * pc.grid.panel_width
        z1, _ = guessed_root(pc, m, pt)
        from slenderquad.nearsing import _offsets, _regular_sum, _special_sums

        r, r2 = _offsets(pc.positions[sl], pt)
        special = _special_sums(pc, dens.samples, [m], [z1], r[None], r2[None])[0]
        weights = np.zeros(pc.grid.node_count)
        weights[sl] = pc.grid.global_weights[sl]
        regular = _regular_sum(pc, dens.samples, *_offsets(pc.positions, pt), weights)
        assert special == pytest.approx(regular, abs=1e-12)

    def test_near_straight_panel_beats_regular(self):
        # one panel, so eval_S is that panel's special contribution alone
        pc = discretize(make_straight((1.0, 0.0, 0.0), 1.0), 1, RULE)
        fconst = (0.4, -0.7, 1.1)
        dens = constant_density(pc.grid, fconst)
        d = 1e-3
        pt = np.array([0.5, d, 0.0])
        exact = segment_stokeslet(0.5, d, 1.0, fconst)
        special = eval_S(pc, dens, pt)
        regular = eval_S_regular(pc, dens, pt)
        assert np.max(np.abs(special - exact)) <= 1e-10
        assert np.max(np.abs(regular - exact)) >= 1e-2

    def test_linearity(self):
        helix = make_helix(8.0, 3.0, 1.5)
        pc = discretize(helix, 8, RULE)
        s0 = 0.9
        pt = helix.position(s0) + 3e-3 * helix.second_derivative(s0) / 8.0
        rng = np.random.default_rng(23)
        fa = rng.standard_normal((pc.grid.node_count, 3))
        fb = rng.standard_normal((pc.grid.node_count, 3))
        sa = eval_S(pc, LineDensity(samples=fa), pt)
        sb = eval_S(pc, LineDensity(samples=fb), pt)
        sab = eval_S(pc, LineDensity(samples=fa + 2.0 * fb), pt)
        assert sab == pytest.approx(sa + 2.0 * sb, rel=1e-13, abs=1e-13)
        # the point takes the special path, so its value is not the regular sum
        assert not np.array_equal(sa, eval_S_regular(pc, LineDensity(samples=fa), pt))


class TestEvalSDispatch:
    def setup_method(self):
        self.helix = make_helix(8.0, 3.0, 1.5)
        self.f, _ = forces.testf_simple(self.helix)
        self.pc = discretize(self.helix, 8, RULE)
        self.dens = LineDensity(self.f(self.pc.grid.global_nodes))

    def test_far_point_bit_identical_to_regular(self):
        pt = np.array([1.2, 1.2, 0.3])
        assert np.array_equal(
            eval_S(self.pc, self.dens, pt), eval_S_regular(self.pc, self.dens, pt)
        )

    @pytest.mark.parametrize("shape", [(128, 1), (128,), (127, 3), (128, 2)])
    def test_rejects_density_shape(self, shape):
        dens = LineDensity(samples=np.ones(shape))
        pt = self.helix.position(0.75) + np.array([0.0, 0.0, 5e-3])
        with pytest.raises(ValueError, match=r"density samples must have shape \(128, 3\)"):
            eval_S(self.pc, dens, pt)
        with pytest.raises(ValueError, match=r"density samples must have shape \(128, 3\)"):
            eval_S_regular(self.pc, dens, pt)

    def test_rule_order_1_is_the_regular_rule(self):
        # a one-node panel is a point, so R^2(eta) is constant and has no root to find
        pc = discretize(self.helix, 8, gauss_legendre(1))
        dens = LineDensity(self.f(pc.grid.global_nodes))
        pt = self.helix.position(0.75) + 1e-3 * self.helix.second_derivative(0.75) / 8.0
        assert np.array_equal(eval_S(pc, dens, pt), eval_S_regular(pc, dens, pt))

    def test_rejects_rule_order_above_moment_limit(self):
        pc = discretize(self.helix, 8, gauss_legendre(20))
        dens = LineDensity(self.f(pc.grid.global_nodes))
        far = np.array([1.2, 1.2, 0.3])
        with pytest.raises(ValueError, match=r"up to 16.*rule order 20"):
            eval_S(pc, dens, far)
        assert np.all(np.isfinite(eval_S_regular(pc, dens, far)))

    def test_one_moment_call_per_special_panel(self, monkeypatch):
        moments, products, roots = [], [], []

        def counted(record, fn):
            def wrapper(*args):
                out = fn(*args)
                record.append(out)
                return out

            return wrapper

        monkeypatch.setattr(nearsing, "qkp_moments", counted(moments, nearsing.qkp_moments))
        weights = counted(products, nearsing._moment_weights)
        monkeypatch.setattr(nearsing, "_moment_weights", weights)
        monkeypatch.setattr(nearsing, "find_root", counted(roots, nearsing.find_root))
        s0 = 0.62
        pt = self.helix.position(s0) + 2.2e-3 * self.helix.second_derivative(s0) / 8.0
        eval_S(self.pc, self.dens, pt)
        # one find_root call per chunk with candidates, each returning its block of roots
        assert len(roots) == 1
        # a special pair is a root the Newton run accepts, Im(z1) < 1
        specials = [z1 for z1 in np.concatenate([z for z, _ in roots]) if z1.imag < 1.0]
        assert len(specials) > 0
        assert len(moments) == len(specials)
        assert len(products) == 1 and len(products[0]) == len(specials)

        # three chunks, the middle one far from the fiber: one weight product per chunk with a
        # special pair
        chunk = nearsing._CHUNK
        far = np.array([1.2, 1.2, 0.3])
        block = np.array([pt] * chunk + [far] * chunk + [pt])
        moments.clear(), products.clear(), roots.clear()
        eval_S(self.pc, self.dens, block)
        assert len(roots) == 2
        specials = [z1 for z1 in np.concatenate([z for z, _ in roots]) if z1.imag < 1.0]
        assert len(specials) > 0
        assert len(moments) == len(specials)
        assert len(products) == 2 and sum(map(len, products)) == len(specials)

    def test_near_point_matches_oracle(self):
        s0 = 0.62
        pt = self.helix.position(s0) + 2.2e-3 * self.helix.second_derivative(s0) / 8.0
        ref = reference_S(self.helix, self.f, pt, tol=1e-12)
        got = eval_S(self.pc, self.dens, pt)
        assert np.linalg.norm(got - ref) <= 1e-9

    def test_switch_continuity(self):
        # both paths are accurate at the switch distance and must agree
        s0 = 0.7
        normal = self.helix.second_derivative(s0) / 8.0
        base = self.helix.position(s0)
        d_switch = self.pc.grid.panel_width
        for offset in (0.98, 1.02):
            pt = base + offset * d_switch * normal
            a = eval_S(self.pc, self.dens, pt)
            b = eval_S_regular(self.pc, self.dens, pt)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_oracle_equivalence_random_distances(self):
        rng = np.random.default_rng(31)
        points = []
        for _ in range(200):
            s0 = rng.uniform(0.1, 1.4)
            d = 10.0 ** rng.uniform(-3, 0)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            points.append(self.helix.position(s0) + d * direction)
        refs = reference_S(self.helix, self.f, np.array(points), tol=1e-12)
        worst = 0.0
        for got, ref in zip(eval_S(self.pc, self.dens, np.array(points)), refs):
            rel = np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1.0)
            worst = max(worst, rel)
        assert worst <= 1e-8


class TestEvalSCenterline:
    HELIX = make_helix(8.0, 3.0, 1.5)
    FAR = np.array([1.2, 1.2, 0.3]) + 0.01 * np.arange(nearsing._CHUNK + 2)[:, None]

    def density(self, pc):
        return LineDensity(forces.testf_simple(self.HELIX)[0](pc.grid.global_nodes))

    @pytest.mark.parametrize("panels", [8, 16])
    @pytest.mark.parametrize("s0", [0.37, 0.75])  # inside a panel, and on a panel break
    def test_point_on_the_centerline_raises_before_its_chunk_sums(self, s0, panels):
        pc = discretize(self.HELIX, panels, RULE)
        dens = self.density(pc)

        def no_sum(*args):
            raise AssertionError("summed for a point on the centerline")

        panel = int(np.ceil(s0 / pc.grid.panel_width)) - 1  # the first panel holding s0
        point = self.HELIX.position(s0)
        chunk = nearsing._CHUNK
        for x_bar, row in (
            (point, 0),
            (np.concatenate([self.FAR[:2], [point], self.FAR[2:chunk]]), 2),
            # the second chunk's second row; the first chunk has been summed by then
            (np.concatenate([self.FAR[: chunk + 1], [point], self.FAR[chunk + 1 :]]), chunk + 1),
        ):
            with pytest.MonkeyPatch.context() as patch:
                if row < chunk:
                    patch.setattr(nearsing, "_regular_sum", no_sum)
                    patch.setattr(nearsing, "_special_sums", no_sum)
                with pytest.raises(
                    ValueError,
                    match=rf"point {row}, panel {panel}: converged to a real root on the panel; "
                    "point lies on the centerline, where S diverges",
                ):
                    eval_S(pc, dens, x_bar)

    @pytest.mark.parametrize("panels", [8, 16])
    @pytest.mark.parametrize("s0", [0.37, 0.75])
    def test_points_1e_9_off_the_centerline_are_accepted(self, s0, panels):
        pc = discretize(self.HELIX, panels, RULE)
        dens = self.density(pc)
        normal = self.HELIX.second_derivative(s0) / 8.0
        near = self.HELIX.position(s0) + 1e-9 * np.array([normal, -normal])
        roots = []
        find = nearsing.find_root

        def recorded(*args):
            out = find(*args)
            roots.append(out[0])
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nearsing, "find_root", recorded)
            block = eval_S(pc, dens, near)
        low = np.concatenate(roots).imag.min()
        assert nearsing.REAL_ROOT_FLOOR < low < 1e-7
        assert np.all(np.isfinite(block))
        assert np.array_equal(block, [eval_S(pc, dens, x) for x in near])

    def test_points_on_the_extension_fall_back(self):
        # past the end of a straight fiber S is finite; the last panel's real root lies beyond
        # eta = 1, so that pair warns and takes the regular rule, which the closed form checks
        pc = discretize(make_straight((1.0, 0.0, 0.0), 1.0), 2, RULE)
        dens = constant_density(pc.grid, (1.0, 0.0, 1.0))
        points = np.array([[1.01, 0.0, 0.0], [1.1, 0.0, 0.0], [1.3, 0.0, 0.0]])
        with pytest.warns(UserWarning) as caught:
            block = eval_S(pc, dens, points)
        assert [str(w.message) for w in caught] == [
            f"point {row}, panel 1: converged to a real root; point lies on the curve "
            "extension; falling back to regular quadrature"
            for row in range(3)
        ]
        assert np.array_equal(block, eval_S_regular(pc, dens, points))
        log = np.log(points[:, 0] / (points[:, 0] - 1.0))  # int_0^1 ds / (x - s)
        assert block == pytest.approx(np.column_stack([2 * log, 0 * log, log]), rel=1e-3)
        for row, point in enumerate(points):
            with pytest.warns(UserWarning, match="point 0, panel 1: converged to a real root"):
                assert np.array_equal(eval_S(pc, dens, point), block[row])


def _block_points(helix, count, seed):
    """Seeded field points 1e-4 to 1 off the centerline, near and far panels mixed."""
    rng = np.random.default_rng(seed)
    s0 = rng.uniform(0.0, helix.length, count)
    direction = rng.standard_normal((count, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    return helix.position(s0) + 10.0 ** rng.uniform(-4, 0, count)[:, None] * direction


class TestEvalSBlocks:
    HELIX = make_helix(8.0, 3.0, 1.5)
    POINTS = _block_points(HELIX, 2 * nearsing._CHUNK + 1, 5)

    def setup_method(self):
        self.f, _ = forces.testf_simple(self.HELIX)
        self.pc = discretize(self.HELIX, 8, RULE)
        self.dens = LineDensity(self.f(self.pc.grid.global_nodes))

    @pytest.mark.parametrize("panels", [4, 8, 16])
    def test_block_equals_point_calls_bitwise(self, panels):
        pc = discretize(self.HELIX, panels, RULE)
        dens = LineDensity(self.f(pc.grid.global_nodes))
        chunk = nearsing._CHUNK
        for evaluate in (eval_S, eval_S_regular):
            single = np.array([evaluate(pc, dens, pt) for pt in self.POINTS])
            for count in (1, 2, chunk - 1, chunk, chunk + 1, 100, len(self.POINTS)):
                block = evaluate(pc, dens, self.POINTS[:count])
                assert block.shape == (count, 3)
                assert np.array_equal(block, single[:count])
        # the points mix rows with special panels and rows without any
        regular = eval_S_regular(pc, dens, self.POINTS)
        same = np.all(eval_S(pc, dens, self.POINTS) == regular, axis=1)
        assert same.any() and not same.all()

    @pytest.mark.parametrize("pairs", [1, 2, 33])
    def test_rows_equal_point_calls_bitwise_at_special_pair_counts(self, pairs, monkeypatch):
        counts, weights = [], nearsing._moment_weights
        monkeypatch.setattr(
            nearsing, "_moment_weights", lambda rule, q: counts.append(len(q)) or weights(rule, q)
        )
        single, per_point = [], []
        for pt in self.POINTS:
            counts.clear()
            single.append(eval_S(self.pc, self.dens, pt))
            per_point.append(sum(counts))
        # points until the block holds `pairs` special pairs, with four that have none
        chosen, total, plain = [], 0, 0
        for i, c in enumerate(per_point):
            if (c == 0 and plain < 4) or 0 < c <= pairs - total:
                chosen.append(i)
                total, plain = total + c, plain + (c == 0)
        assert total == pairs and plain == 4
        counts.clear()
        block = eval_S(self.pc, self.dens, self.POINTS[chosen])
        assert counts == [pairs]
        assert block.tobytes() == np.array(single)[chosen].tobytes()

    def test_root_failure_falls_back_for_its_pair_only(self, monkeypatch):
        helix = self.HELIX
        # the second point sits over the end shared by its two special panels, where the guesses
        # from their end nodes land on the roots
        s = np.array([0.7, 0.75])
        near = helix.position(s) + 5e-3 * helix.second_derivative(s) / 8.0
        # the failing point opens the second chunk, so the warning names its row in the block
        first = nearsing._CHUNK
        far = np.array([1.2, 1.2, 0.3]) + 0.01 * np.arange(first + 1)[:, None]
        block = np.concatenate([far[:first], near, far[first:]])
        good = np.array([eval_S(self.pc, self.dens, pt) for pt in block])
        # 2 steps are too few for one of the first point's two special panels only
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 2)
        with pytest.warns(UserWarning) as caught:
            got = eval_S(self.pc, self.dens, block)
        assert [str(w.message) for w in caught] == [
            f"point {first}, panel 4: no convergence in 2 iterations; "
            "falling back to regular quadrature"
        ]
        with pytest.warns(UserWarning, match="point 0, panel 4"):
            alone = eval_S(self.pc, self.dens, block[first])
        assert np.array_equal(got[first], alone)
        assert not np.array_equal(got[first], good[first])
        others = np.arange(len(block)) != first
        assert np.array_equal(got[others], good[others])

    def test_array_tables_run_for_the_field_test_block_only(self, monkeypatch):
        sizes, blocks = [], []
        split, root = nearsing._legendre_terms_split, nearsing.find_root
        monkeypatch.setattr(
            nearsing, "_legendre_terms_split", lambda z, n: sizes.append(len(z)) or split(z, n)
        )
        monkeypatch.setattr(
            nearsing, "find_root", lambda c, x, g: blocks.append(len(g)) or root(c, x, g)
        )
        for pt in _s_field_near_points(self.HELIX, 41):
            eval_S(self.pc, self.dens, pt)
        assert sizes == [] and max(blocks) < nearsing._ARRAY_PAIRS
        blocks.clear()
        grid = cli.helix_field_grid(self.HELIX, radial_count=5, angular_count=5, z_count=4)
        eval_S(self.pc, self.dens, grid)
        # the field-test grid is one chunk: one Newton run, on array tables while 32 pairs live
        assert len(blocks) == 1 and blocks[0] > 100
        assert sizes and min(sizes) >= nearsing._ARRAY_PAIRS

    @pytest.mark.parametrize("panels", [2, 4])
    def test_default_field_grid_finds_every_root(self, panels):
        # Newton's halving steps left 7 (M = 2) and 50 (M = 4) of these pairs unconverged
        # after 30 iterations, each a fallback warning
        pc = discretize(self.HELIX, panels, RULE)
        dens = LineDensity(self.f(pc.grid.global_nodes))
        grid = cli.helix_field_grid(self.HELIX, radial_count=20, angular_count=20, z_count=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = eval_S(pc, dens, grid)
        assert values.shape == (6400, 3) and np.all(np.isfinite(values))

    def test_on_node_point_in_block_raises(self):
        block = np.array([[1.2, 1.2, 0.3], self.pc.positions[7], [1.0, -0.7, 0.9]])
        for evaluate in (eval_S, eval_S_regular):
            with pytest.raises(ZeroDivisionError):
                evaluate(self.pc, self.dens, block)

    @pytest.mark.parametrize(
        "x_bar",
        [
            np.zeros(2),
            np.zeros((4, 2)),
            np.zeros((4, 3, 1)),
            np.zeros(()),
            np.array([np.nan, 0.0, 0.0]),
            np.array([np.inf, 0.0, 0.0]),
            np.array([[1.2, 1.2, 0.3], [0.0, -np.inf, 0.0]]),
        ],
    )
    def test_rejects_shape_and_non_finite_before_any_work(self, x_bar, monkeypatch):
        def no_work(*args):
            raise AssertionError("offsets computed for a rejected point")

        monkeypatch.setattr(nearsing, "_offsets", no_work)
        message = r"field points must be finite with shape \(3,\) or \(T, 3\)"
        for evaluate in (eval_S, eval_S_regular):
            with pytest.raises(ValueError, match=message):
                evaluate(self.pc, self.dens, x_bar)
