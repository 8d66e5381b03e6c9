import numpy as np
import pytest

from helpers import segment_stokeslet
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


def chord_root(coeffs, pt):
    """One pair's root and reason, from the chord guess as eval_S starts it, as a one-row block."""
    roots, reasons = find_root(
        coeffs[None], pt[None], nearsing._chord_guesses(coeffs[None], pt[None])
    )
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
        dens = LineDensity.from_closure(f, pc.grid)
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
        # a guess off the root, so Newton does the work the exact chord guess would skip
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
        z1, _ = chord_root(pc.panel_coeffs[m], pt)
        diff = pt - legendre_eval(pc.panel_coeffs[m], z1)
        sl = pc.grid.panel_slice(m)
        scale = np.max(np.sum((pt[None, :] - pc.positions[sl]) ** 2, axis=1))
        assert abs(complex(diff @ diff)) <= 1e-12 * scale

    def test_conjugate_symmetry(self):
        # real-coefficient expansions give conjugate R^2 values
        pc = discretize(make_helix(8.0, 3.0, 1.5), 8, RULE)
        coeffs = pc.panel_coeffs[3]
        pt = pc.positions[3 * 16 + 7] + np.array([0.0, 0.0, 5e-3])
        z1, _ = chord_root(coeffs, pt)
        vals_up = legendre_eval(coeffs, z1)
        vals_dn = legendre_eval(coeffs, z1.conjugate())
        r2_up = np.sum((pt - vals_up) ** 2)
        r2_dn = np.sum((pt - vals_dn) ** 2)
        assert r2_dn == pytest.approx(r2_up.conjugate(), abs=1e-14)

    def test_newton_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 10)
        helix = make_helix(8.0, 3.0, 1.5)
        pc = discretize(helix, 8, RULE)
        s0 = 0.33
        pt = helix.position(s0) + 2e-3 * helix.second_derivative(s0) / 8.0
        m = int(s0 / pc.grid.panel_width)
        z1, reason = chord_root(pc.panel_coeffs[m], pt)  # converges within 10 iterations
        assert z1.imag > 0 and reason == ""

    def test_failure_returns_nan_and_reason(self, monkeypatch):
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 1)
        pc = discretize(make_helix(8.0, 3.0, 1.5), 8, RULE)
        z1, reason = chord_root(pc.panel_coeffs[0], np.array([0.02, 0.01, 0.2]))
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
    """The (point, panel) pairs eval_S starts Newton on: coefficients, points and chord guesses."""
    n = pc.grid.rule.order
    r2 = np.sum((points[:, None, :] - pc.positions[None]) ** 2, axis=2)
    dist = np.sqrt(r2.reshape(len(points), pc.grid.panel_count, n).min(axis=2))
    tt, mm = np.nonzero(dist <= pc.grid.panel_width)
    guess = nearsing._chord_guesses(pc.panel_coeffs[mm], points[tt])
    run = guess.imag < 1.0
    return pc.panel_coeffs[mm[run]], points[tt[run]], guess[run]


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
        # pairs whose chord guess is further off the root need more Newton steps than others
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 7)
        pairs = zip(coeffs, points, guesses)
        reasons = [find_root(c[None], x[None], g[None])[1][0] for c, x, g in pairs]
        assert "" in reasons and "no convergence in 7 iterations" in reasons
        self._assert_failures(coeffs, points, guesses, reasons)

    def test_escape_and_real_roots_fail_their_pairs_only(self):
        straight = discretize(make_straight((1.0, 0.0, 0.0), 1.0), 1, RULE).panel_coeffs[0]
        line = np.zeros((3, 16))
        line[:, :2] = self.LINE
        coeffs, points, guesses = (a[:3] for a in self.pairs)
        coeffs = np.concatenate([coeffs[:1], [line, straight], coeffs[1:], [line]])
        points = np.concatenate([points[:1], [[0.5, 50.0, 0.0], [1.5, 0.0, 0.0]], points[1:],
                                 [[1.5, 0.0, 0.0]]])
        # the roots +-100i lie beyond the escape radius; the extension point has a real
        # double root at eta = 2, which a real start reaches, or stalls on exactly
        guesses = np.concatenate([guesses[:1], [0.1j, 2.0 + 1e-12], guesses[1:], [2.0]])
        reasons = [
            "",
            "Newton iterate escaped the panel neighborhood",
            "converged to a real root; point lies on the curve extension",
            "",
            "",
            "stationary R^2, Newton step undefined",
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
        # far roots exercise the graded-quadrature path
        for z in (0.2 + 2.0j, 1.8 + 0.05j, -3.0 + 0.7j):
            got = qkp_moments(z, 16)[:, 0]
            a, b = z.real, z.imag
            for k in (0, 7, 15):
                integrand = lambda e: e**k / ((e - a) ** 2 + b * b) ** 0.5
                ref = adaptive_integrate(integrand, -1.0, 1.0, 1e-13)
                assert got[k] == pytest.approx(ref, rel=1e-12)

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


class TestEvalSSpecial:
    def test_far_point_agrees_with_regular(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf_simple(helix)
        pc = discretize(helix, 8, RULE)
        dens = LineDensity.from_closure(f, pc.grid)
        m = 4
        sl = pc.grid.panel_slice(m)
        center = pc.positions[sl].mean(axis=0)
        pt = center + np.array([0.0, 0.0, 5.0]) * pc.grid.panel_width
        z1, _ = chord_root(pc.panel_coeffs[m], pt)
        from slenderquad.nearsing import _offsets, _regular_sum, _special_sums

        r, r2 = _offsets(pc.positions[sl], pt)
        special = _special_sums(pc, dens.samples, [m], [z1], r[None], r2[None])[0]
        regular = _regular_sum(pc, dens.samples, *_offsets(pc.positions, pt), sl)
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
        self.dens = LineDensity.from_closure(self.f, self.pc.grid)

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
        dens = LineDensity.from_closure(self.f, pc.grid)
        pt = self.helix.position(0.75) + 1e-3 * self.helix.second_derivative(0.75) / 8.0
        assert np.array_equal(eval_S(pc, dens, pt), eval_S_regular(pc, dens, pt))

    def test_rejects_rule_order_above_moment_limit(self):
        pc = discretize(self.helix, 8, gauss_legendre(20))
        dens = LineDensity.from_closure(self.f, pc.grid)
        far = np.array([1.2, 1.2, 0.3])
        with pytest.raises(ValueError, match=r"up to 16.*rule order 20"):
            eval_S(pc, dens, far)
        assert np.all(np.isfinite(eval_S_regular(pc, dens, far)))

    def test_one_moment_call_per_special_panel(self, monkeypatch):
        moments, solves, roots = [], [], []

        def counted(record, fn):
            def wrapper(*args):
                out = fn(*args)
                record.append(out)
                return out

            return wrapper

        monkeypatch.setattr(nearsing, "qkp_moments", counted(moments, nearsing.qkp_moments))
        solve = nearsing.solve_vandermonde_transpose
        monkeypatch.setattr(nearsing, "solve_vandermonde_transpose", counted(solves, solve))
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
        assert len(solves) == 1

        # three chunks, the middle one far from the fiber: one solve per chunk with a special pair
        chunk = nearsing._CHUNK
        far = np.array([1.2, 1.2, 0.3])
        block = np.array([pt] * chunk + [far] * chunk + [pt])
        moments.clear(), solves.clear(), roots.clear()
        eval_S(self.pc, self.dens, block)
        assert len(roots) == 2
        specials = [z1 for z1 in np.concatenate([z for z, _ in roots]) if z1.imag < 1.0]
        assert len(specials) > 0
        assert len(moments) == len(specials)
        assert len(solves) == 2

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
        self.dens = LineDensity.from_closure(self.f, self.pc.grid)

    @pytest.mark.parametrize("panels", [4, 8, 16])
    def test_block_equals_point_calls_bitwise(self, panels):
        pc = discretize(self.HELIX, panels, RULE)
        dens = LineDensity.from_closure(self.f, pc.grid)
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

    def test_root_failure_falls_back_for_its_pair_only(self, monkeypatch):
        helix = self.HELIX
        normal = helix.second_derivative(np.array([0.7, 0.45])) / 8.0
        near = helix.position(np.array([0.7, 0.45])) + np.array([1e-2, 5e-2])[:, None] * normal
        # the failing point opens the second chunk, so the warning names its row in the block
        first = nearsing._CHUNK
        far = np.array([1.2, 1.2, 0.3]) + 0.01 * np.arange(first + 1)[:, None]
        block = np.concatenate([far[:first], near, far[first:]])
        good = np.array([eval_S(self.pc, self.dens, pt) for pt in block])
        # 8 Newton steps are too few for one of that point's two special panels only
        monkeypatch.setattr(nearsing, "_NEWTON_MAX_ITER", 8)
        with pytest.warns(UserWarning) as caught:
            got = eval_S(self.pc, self.dens, block)
        assert [str(w.message) for w in caught] == [
            f"point {first}, panel 4: no convergence in 8 iterations; "
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
