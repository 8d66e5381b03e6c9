import numpy as np
import pytest

from helpers import (
    COPIES,
    density_derivative_per_column,
    g_row_per_column,
    legendre_deriv_coeffs_numpy_scalars,
    legendre_eval_numpy_scalars,
    qk_two_piece,
    rotation_matrix,
)
from slenderquad.finitepart import (
    LineDensity,
    SlenderParams,
    _effective_weights,
    _g_row,
    build_weight_table,
    centerline_velocity,
    eval_K,
    eval_K_all,
    eval_L,
    eval_Lambda,
    g_limit,
    qk_signkernel,
)
from slenderquad import forces
from slenderquad.cli import EIGEN_THRESHOLD
from slenderquad.forces import legendre_mixture, splitmix64_uniforms
from slenderquad.geometry import FiberCurve, discretize, make_helix, make_straight
from slenderquad.nearsing import eval_S
from slenderquad.oracle import diagonal_eigenvalues, g_pair, scaled_legendre
from slenderquad.quadcore import PanelGrid, gauss_legendre, legendre_transform_matrix

RULE = gauss_legendre(16)
TABLE = build_weight_table(RULE)


class TestQkSignKernel:
    def test_k0_closed_form(self):
        for eta_bar in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert qk_signkernel(0, eta_bar) == pytest.approx(-2.0 * eta_bar, abs=0)

    def test_k1_at_zero(self):
        assert qk_signkernel(1, 0.0) == pytest.approx(1.0, abs=0)

    def test_against_two_piece_integration(self):
        assert qk_signkernel(5, 0.3) == pytest.approx(qk_two_piece(5, 0.3), abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            qk_signkernel(-1, 0.0)
        with pytest.raises(ValueError):
            qk_signkernel(64, 0.0)
        with pytest.raises(ValueError):
            qk_signkernel(3, 1.5)


class TestWeightTable:
    def test_read_only_array(self):
        assert TABLE.shape == (16, 16)
        with pytest.raises(ValueError, match="read-only"):
            TABLE[0, 0] = 1.0

    def test_monomial_moments(self):
        vander = np.vander(RULE.nodes, increasing=True)
        for ell in range(16):
            got = TABLE[ell] @ vander
            expected = np.array([qk_signkernel(k, RULE.nodes[ell]) for k in range(16)])
            assert np.max(np.abs(got - expected)) <= 1e-10

    def test_constant_and_linear_moment_invariants(self):
        for ell in range(16):
            assert TABLE[ell].sum() == pytest.approx(
                -2.0 * RULE.nodes[ell], abs=1e-10
            )
            assert TABLE[ell] @ RULE.nodes == pytest.approx(
                1.0 - RULE.nodes[ell] ** 2, abs=1e-10
            )

    def test_odd_kernel_symmetry(self):
        # mirroring the target and reversing the samples flips the sign
        rng = np.random.default_rng(2)
        phi = rng.standard_normal(16)
        for ell in range(16):
            mirrored = TABLE[15 - ell] @ phi[::-1]
            assert mirrored == pytest.approx(-(TABLE[ell] @ phi), abs=1e-9)


def _constant_density(grid, value):
    vec = np.asarray(value, dtype=float)
    return LineDensity(samples=np.tile(vec, (grid.node_count, 1)))


def _row(pc, dens, t):
    """finitepart._g_row on the density's checked samples, as eval_K passes them."""
    return _g_row(pc, dens, dens.checked_samples((pc.grid.node_count, 3)), t)


class TestGVector:
    def test_straight_constant_vanishes(self):
        fiber = make_straight((1.0, 0.0, 0.0), 1.0)
        pc = discretize(fiber, 2, RULE)
        dens = _constant_density(pc.grid, (0.4, -1.1, 0.9))
        t = 13
        for j in (0, 5, 13, 27):
            assert np.max(np.abs(_row(pc, dens, t)[j])) <= 1e-13

    def test_straight_linear_diagonal(self):
        fiber = make_straight((1.0, 0.0, 0.0), 1.0)
        pc = discretize(fiber, 2, RULE)
        f = lambda s: np.stack(
            [np.asarray(s), np.zeros_like(np.asarray(s)), np.zeros_like(np.asarray(s))],
            axis=-1,
        )
        dens = LineDensity(f(pc.grid.global_nodes))
        t = 9
        assert _row(pc, dens, t)[t] == pytest.approx([2.0, 0.0, 0.0], abs=1e-11)

    def test_limit_linear_in_h(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, fp = forces.testf(1.5)
        s_bar = 0.8
        limit = g_pair(helix, f, fp, s_bar, s_bar)
        errs = [
            np.linalg.norm(g_pair(helix, f, fp, s_bar + h, s_bar) - limit)
            for h in (1e-2, 1e-3, 1e-4)
        ]
        assert 5.0 <= errs[0] / errs[1] <= 20.0
        assert 5.0 <= errs[1] / errs[2] <= 20.0

    def test_array_argument_matches_scalar_loop(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, fp = forces.testf(1.5)
        s_bar = 0.8
        s = np.array([0.0, 0.3, s_bar - 1e-6, s_bar, s_bar + 0.2, 1.5])
        rows = g_pair(helix, f, fp, s, s_bar)
        assert rows.shape == (len(s), 3)
        loop = np.array([g_pair(helix, f, fp, si, s_bar) for si in s])
        assert g_pair(helix, f, fp, s_bar, s_bar).shape == (3,)
        assert np.max(np.abs(rows - loop)) <= 1e-15 * max(1.0, np.max(np.abs(loop)))

    def test_discrete_matches_closure_form(self):
        helix = make_helix(8.0, 3.0, 1.5)
        pc = discretize(helix, 4, RULE)
        f, fp = forces.testf(1.5)
        dens = LineDensity(f(pc.grid.global_nodes), derivative=fp)  # the limit g_pair takes
        s = pc.grid.global_nodes
        t = 37
        for j in (2, 30, 37, 60):
            expected = g_pair(helix, f, fp, s[j], s[t])
            assert _row(pc, dens, t)[j] == pytest.approx(expected, abs=1e-11)

    def test_independent_limits_agree(self):
        # finitepart.g_limit on the row's diagonal against the oracle's own limit expression
        helix = make_helix(8.0, 3.0, 1.5)
        pc = discretize(helix, 8, RULE)
        f, fp = forces.testf(1.5)
        dens = LineDensity(f(pc.grid.global_nodes), derivative=fp)  # the limit g_pair takes
        s = pc.grid.global_nodes
        worst = 0.0
        for t in range(pc.grid.node_count):
            ref = g_pair(helix, f, fp, s[t], s[t])
            diff = np.max(np.abs(_row(pc, dens, t)[t] - ref))
            worst = max(worst, diff / max(1.0, np.max(np.abs(ref))))
        assert worst <= 1e-14


class TestEvalL:
    def test_first_mode_any_panelization(self):
        lam1 = 2.0
        for m in (1, 2, 4, 8):
            grid = PanelGrid(1.0, m, RULE)
            f, _ = legendre_mixture(np.array([0.0, 1.0]), 1.0)
            dens = LineDensity(f(grid.global_nodes))
            s = grid.global_nodes
            expected = -lam1 * scaled_legendre(1, s)
            got = np.array([eval_L(dens, grid, TABLE, t) for t in range(grid.node_count)])
            assert np.max(np.abs(got - expected)) <= 1e-13

    def test_constant_density_vanishes(self):
        grid = PanelGrid(1.0, 4, RULE)
        dens = LineDensity(samples=np.full(grid.node_count, 2.5))
        got = np.array([eval_L(dens, grid, TABLE, t) for t in range(grid.node_count)])
        assert np.max(np.abs(got)) <= 1e-14

    def test_random_mixture_diagonalization(self):
        alpha = splitmix64_uniforms(99, 5)
        lam = diagonal_eigenvalues(5)
        f, _ = legendre_mixture(alpha, 1.0)
        for m in (1, 2, 4, 8):
            grid = PanelGrid(1.0, m, RULE)
            dens = LineDensity(f(grid.global_nodes))
            s = grid.global_nodes
            expected = -sum(alpha[n] * lam[n] * scaled_legendre(n, s) for n in range(5))
            got = np.array([eval_L(dens, grid, TABLE, t) for t in range(grid.node_count)])
            assert np.max(np.abs(got - expected)) <= 1e-13

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: the monomial weight table's rounding "
                       "reaches L on full-degree densities at accepted orders")
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_full_degree_mixture_diagonalization(self, n, m):
        # eigen-test --rule-order n --force legendre:n at seed 42: 3.7e-10 / 1.3e-11, 2.1e-6 /
        # 5.4e-9 and 1.1e-2 / 3.3e-5 at M = 1 / 2 with the monomial table
        rule = gauss_legendre(n)
        alpha = splitmix64_uniforms(42, n)
        f, _ = legendre_mixture(alpha, 1.0)
        lam = diagonal_eigenvalues(n)
        grid = PanelGrid(1.0, m, rule)
        dens = LineDensity(f(grid.global_nodes))
        s = grid.global_nodes
        expected = -sum(alpha[k] * lam[k] * scaled_legendre(k, s) for k in range(n))
        table = build_weight_table(rule)
        got = np.array([eval_L(dens, grid, table, t) for t in range(grid.node_count)])
        assert np.max(np.abs(got - expected)) <= EIGEN_THRESHOLD

    def test_spectral_derivative_fallback(self):
        # no analytic derivative attached: the self-panel interpolant supplies it
        alpha = splitmix64_uniforms(5, 4)
        f, _ = legendre_mixture(alpha, 1.0)
        lam = diagonal_eigenvalues(4)
        grid = PanelGrid(1.0, 2, RULE)
        dens = LineDensity(f(grid.global_nodes))
        s = grid.global_nodes
        expected = -sum(alpha[n] * lam[n] * scaled_legendre(n, s) for n in range(4))
        got = np.array([eval_L(dens, grid, TABLE, t) for t in range(grid.node_count)])
        assert np.max(np.abs(got - expected)) <= 1e-13

    def test_reflection_symmetry(self):
        # substituting u = L - s in the defining integral shows the operator
        # commutes with reflection: L[f o reflect](L - sbar) = L[f](sbar)
        rng = np.random.default_rng(12)
        coeffs = rng.uniform(-1, 1, 6)
        grid = PanelGrid(1.0, 4, RULE)
        poly = np.polynomial.Polynomial(coeffs)
        dens = LineDensity(samples=poly(grid.global_nodes))
        reflected = LineDensity(samples=poly(1.0 - grid.global_nodes))
        n = grid.node_count
        for t in (3, 17, 40):
            mirror_t = n - 1 - t
            left = eval_L(reflected, grid, TABLE, mirror_t)
            assert left == pytest.approx(eval_L(dens, grid, TABLE, t), abs=1e-12)

    def test_rejects_vector_density(self):
        grid = PanelGrid(1.0, 1, RULE)
        dens = _constant_density(grid, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            eval_L(dens, grid, TABLE, 0)


@pytest.mark.parametrize("samples", [np.full((64, 3), 1.0 + 1e-3j), [0.5j] * 64])
def test_complex_density_samples_are_rejected(samples):
    # eval_K_all, eval_L and eval_S dropped their imaginary parts with only a ComplexWarning
    with pytest.raises(ValueError, match="density samples must be real"):
        LineDensity(samples)


class TestLineDensityIsAValue:
    def setup_method(self):
        self.pc = discretize(make_helix(8.0, 3.0, 1.5), 2, RULE)
        s = self.pc.grid.global_nodes
        self.vector = np.stack([np.cos(3.0 * s), s * s, np.exp(-s)], axis=-1)

    def test_mutating_the_callers_array_changes_nothing(self):
        # the density held the caller's array, so writing to it after construction changed K
        scalar = self.vector[:, 1].copy()
        vec, sca = LineDensity(self.vector), LineDensity(scalar)
        points = self.pc.positions[[3, 20]] + 0.01
        grid, n = self.pc.grid, self.pc.grid.node_count

        def results():
            return (eval_K_all(self.pc, vec, TABLE), eval_S(self.pc, vec, points),
                    [eval_L(sca, grid, TABLE, t) for t in range(n)])

        before = results()
        self.vector[:] = 2.0
        scalar[:] = 2.0
        for got, want in zip(results(), before):
            np.testing.assert_array_equal(got, want)

    def test_compares_by_identity_with_read_only_samples(self):
        # == compared the sample arrays and raised ValueError; hash raised TypeError
        dens, twin = LineDensity(self.vector), LineDensity(self.vector)
        assert dens == dens and dens != twin
        assert hash(dens) == hash(dens) and len({dens, twin}) == 2
        assert dens.samples is not self.vector
        with pytest.raises(ValueError, match="read-only"):
            dens.samples[0, 0] = 1.0

    @pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES)
    def test_copies_rebuild_the_density(self, duplicate):
        dens = LineDensity(self.vector.tolist())
        same = duplicate(dens)
        assert same.derivative is None and same.samples.dtype == float
        np.testing.assert_array_equal(same.samples, self.vector)
        with pytest.raises(ValueError, match="read-only"):
            same.samples[0, 0] = 1.0


class TestEvalK:
    def test_straight_constant_vanishes(self):
        fiber = make_straight((1.0, 0.0, 0.0), 1.0)
        pc = discretize(fiber, 4, RULE)
        dens = _constant_density(pc.grid, (0.2, 0.5, -0.3))
        values = eval_K_all(pc, dens, TABLE)
        assert np.max(np.abs(values)) <= 1e-14

    def test_straight_reduces_to_projected_L(self):
        fiber = make_straight((1.0, 0.0, 0.0), 1.0)
        pc = discretize(fiber, 4, RULE)

        def f(s):
            s = np.asarray(s, dtype=float)
            return np.stack([np.sin(2 * np.pi * s), np.cos(s), s**2], axis=-1)

        dens = LineDensity(f(pc.grid.global_nodes))
        projector = np.array([2.0, 1.0, 1.0])  # I + ss for the x tangent
        for t in range(0, pc.grid.node_count, 9):
            per_component = np.array(
                [
                    eval_L(LineDensity(samples=dens.samples[:, c]), pc.grid, TABLE, t)
                    for c in range(3)
                ]
            )
            assert eval_K(pc, dens, TABLE, t) == pytest.approx(
                projector * per_component, abs=1e-12
            )

    def test_rigid_motion_invariance(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf(1.5)
        pc = discretize(helix, 8, RULE)
        dens = LineDensity(f(pc.grid.global_nodes))
        base = eval_K_all(pc, dens, TABLE)

        rot = rotation_matrix((1.0, 2.0, -0.5), 1.1)
        shift = np.array([0.4, -2.0, 0.7])
        moved = FiberCurve(
            1.5,
            lambda s: helix.position(s) @ rot.T + shift,
            lambda s: helix.tangent(s) @ rot.T,
            lambda s: helix.second_derivative(s) @ rot.T,
        )
        pc_m = discretize(moved, 8, RULE)
        dens_m = LineDensity(f(pc_m.grid.global_nodes) @ rot.T)
        rotated = eval_K_all(pc_m, dens_m, TABLE)
        assert np.max(
            np.abs(np.linalg.norm(rotated, axis=1) - np.linalg.norm(base, axis=1))
        ) <= 1e-12


class TestEvalLambda:
    def setup_method(self):
        fiber = make_straight((1.0, 0.0, 0.0), 1.0)
        self.pc = discretize(fiber, 1, RULE)
        self.params = SlenderParams(epsilon=np.exp(-1.0))  # c = -1

    def test_tangential_component(self):
        # -c(1 + 1) + 2(1 - 1) = 2 at c = -1
        dens = _constant_density(self.pc.grid, (1.0, 0.0, 0.0))
        lam = eval_Lambda(self.pc, dens, self.params)
        assert lam.shape == (16, 3)
        assert np.max(np.abs(lam - [2.0, 0.0, 0.0])) <= 1e-14

    def test_normal_component(self):
        dens = _constant_density(self.pc.grid, (0.0, 1.0, 0.0))
        lam = eval_Lambda(self.pc, dens, self.params)
        assert np.max(np.abs(lam - [0.0, 3.0, 0.0])) <= 1e-14

    def test_default_is_slender_body_operator(self):
        # -c(I + ss) + 2(I - ss) on a tilted fiber, eigenvalues -2c along s and 2 - c across
        fiber = make_straight((0.6, 0.0, 0.8), 1.0)
        pc = discretize(fiber, 2, RULE)
        params = SlenderParams(epsilon=1e-2)
        c = params.c
        xs = np.array([0.6, 0.0, 0.8])
        v = np.array([0.3, -1.2, 0.5])
        along = xs * (xs @ v)
        expected = -2.0 * c * along + (2.0 - c) * (v - along)
        got = eval_Lambda(pc, _constant_density(pc.grid, v), params)
        assert got.shape == (32, 3)
        assert np.max(np.abs(got - expected)) <= 1e-13

    @pytest.mark.parametrize(
        "fiber", [make_helix(8.0, 3.0, 1.5), make_helix(2.0, -5.0, 3.0), make_helix(0.5, 0.0, 1.0)],
        ids=["helix", "left-handed", "circle-arc"],
    )
    def test_eigenvectors_on_a_curved_fiber(self, fiber):
        # at every node Lambda scales the tangent by -2c and the normal x_ss/|x_ss| by 2 - c
        pc = discretize(fiber, 4, RULE)
        params = SlenderParams(epsilon=1e-2)
        xs, xss = pc.tangents, pc.second_derivs
        normal = xss / np.linalg.norm(xss, axis=1)[:, None]
        along = eval_Lambda(pc, LineDensity(xs), params)
        across = eval_Lambda(pc, LineDensity(normal), params)
        assert np.max(np.abs(along + 2.0 * params.c * xs)) <= 1e-13
        assert np.max(np.abs(across - (2.0 - params.c) * normal)) <= 1e-13

    @pytest.mark.parametrize(
        "fiber, panels",
        [(make_helix(8.0, 3.0, 1.5), 4), (make_straight((0.6, 0.0, 0.8), 1.0), 2)],
        ids=["helix", "straight"],
    )
    def test_rows_equal_the_per_node_formula(self, fiber, panels):
        # eval_Lambda's one array expression gives every row the bits of the per-node formula,
        # and centerline_velocity takes its rows from it
        pc = discretize(fiber, panels, RULE)
        params = SlenderParams(epsilon=1e-2, mu=0.7)
        dens = LineDensity(forces.testf(fiber.length)[0](pc.grid.global_nodes))
        background = lambda x: np.array([x[0], -x[2], 0.5])
        vel = centerline_velocity(pc, dens, params, background, TABLE)
        k = eval_K_all(pc, dens, TABLE)
        lam_all = eval_Lambda(pc, dens, params)
        assert lam_all.shape == (pc.grid.node_count, 3)
        c, scale = params.c, 1.0 / (8.0 * np.pi * params.mu)
        for t in range(pc.grid.node_count):
            xs, f = pc.tangents[t], dens.samples[t]
            along = xs * (xs @ f)
            lam = -c * (f + along) + 2.0 * (f - along)
            np.testing.assert_array_equal(lam_all[t], lam)
            np.testing.assert_array_equal(vel[t], background(pc.positions[t]) - scale * (lam + k[t]))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(3)
        base = eval_Lambda(self.pc, _constant_density(self.pc.grid, v), self.params)
        scaled = eval_Lambda(self.pc, _constant_density(self.pc.grid, 3.5 * v), self.params)
        assert np.max(np.abs(scaled - 3.5 * base)) <= 1e-13

    def test_epsilon_validation(self):
        # c = log(epsilon^2 e) >= 0 is rejected when the parameters are built
        for epsilon in (0.7, 0.8, 1.5, np.inf):
            with pytest.raises(ValueError, match=r"require epsilon < e\^-0.5"):
                SlenderParams(epsilon=epsilon)
        assert SlenderParams(epsilon=0.6).c < 0
        for epsilon in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="positive"):
                SlenderParams(epsilon=epsilon)

    @pytest.mark.parametrize("mu", [np.inf, np.nan, 0.0, -1.0])
    def test_viscosity_validation(self, mu):
        # an infinite viscosity would scale K away and return the background flow
        with pytest.raises(ValueError, match="viscosity must be positive"):
            SlenderParams(epsilon=1e-3, mu=mu)


class TestCenterlineVelocity:
    def setup_method(self):
        self.helix = make_helix(8.0, 3.0, 1.5)
        self.pc = discretize(self.helix, 4, RULE)
        self.params = SlenderParams(epsilon=1e-3, mu=1.0)

    def test_zero_force_gives_background(self):
        dens = _constant_density(self.pc.grid, (0.0, 0.0, 0.0))
        background = lambda x: np.array([1.0, -2.0, 0.5])
        vel = centerline_velocity(self.pc, dens, self.params, background, TABLE)
        assert np.max(np.abs(vel - np.array([1.0, -2.0, 0.5]))) <= 1e-14

    def test_linearity_of_force_response(self):
        f, _ = forces.testf(1.5)
        d1 = LineDensity(f(self.pc.grid.global_nodes))
        d2 = _constant_density(self.pc.grid, (0.3, -0.2, 0.1))
        dsum = LineDensity(samples=d1.samples + d2.samples)
        background = lambda x: np.zeros(3)
        v1 = centerline_velocity(self.pc, d1, self.params, background, TABLE)
        v2 = centerline_velocity(self.pc, d2, self.params, background, TABLE)
        vsum = centerline_velocity(self.pc, dsum, self.params, background, TABLE)
        assert np.max(np.abs(vsum - v1 - v2)) <= 1e-12

    def test_composition_identity(self):
        # one eval_K_all call gives the same bits as K applied node by node
        f, _ = forces.testf(1.5)
        dens = LineDensity(f(self.pc.grid.global_nodes))
        background = lambda x: np.array([x[0], -x[2], 0.5])
        vel = centerline_velocity(self.pc, dens, self.params, background, TABLE)
        lam = eval_Lambda(self.pc, dens, self.params)
        scale = 1.0 / (8.0 * np.pi * self.params.mu)
        for t in range(self.pc.grid.node_count):
            k = eval_K(self.pc, dens, TABLE, t)
            expected = background(self.pc.positions[t]) - scale * (lam[t] + k)
            np.testing.assert_array_equal(vel[t], expected)

    @pytest.mark.parametrize(
        "background",
        [lambda x: 1.0, lambda x: np.zeros(2), lambda x: np.array([0.0, np.nan, 0.0]),
         lambda x: np.array([np.inf, 0.0, 0.0]) if x[2] > 0.25 else np.zeros(3)],
        ids=["scalar", "short", "nan", "inf-at-some-nodes"],
    )
    def test_rejects_background_that_is_not_a_finite_vector(self, monkeypatch, background):
        # a scalar would broadcast to u_inf = (1, 1, 1) and NaN would reach every row
        def k_must_not_run(*args):
            raise AssertionError("K applied before the background was checked")

        monkeypatch.setattr("slenderquad.finitepart.eval_K_all", k_must_not_run)
        dens = _constant_density(self.pc.grid, (0.3, -0.2, 0.1))
        with pytest.raises(ValueError, match=r"background must give a finite \(3,\) vector"):
            centerline_velocity(self.pc, dens, self.params, background, TABLE)


class TestMomentExactness:
    def test_sign_kernel_quadrature_on_monomials(self):
        # product integration reproduces the analytic sign-kernel moments
        grid = PanelGrid(1.0, 3, RULE)
        for t in (5, 20, 40):
            m, ell = grid.panel_of_target(t)
            eta_bar = RULE.nodes[ell]
            for k in range(16):
                phi = RULE.nodes**k
                got = TABLE[ell] @ phi
                assert got == pytest.approx(qk_signkernel(k, eta_bar), abs=1e-10)


class TestGLimit:
    def test_straight_reduces_to_projected_derivative(self):
        xs = np.array([0.0, 0.0, 1.0])
        out = g_limit(xs, np.zeros(3), np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0]))
        assert out == pytest.approx([1.0, 2.0, 6.0], abs=0)


# The node-major row kernel K used before the component-major one, kept as the
# reference its replacement must reproduce: f' on numpy-scalar Legendre loops,
# (N, 3) rows with a [:, None] broadcast, the kernel sign from np.sign and the
# limit through two outer products.


def _ref_density_derivative_at(grid, f, t):
    if f.derivative is not None:
        return np.asarray(f.derivative(grid.global_nodes[t]), dtype=float)
    m, ell = grid.panel_of_target(t)
    samples = np.asarray(f.samples, dtype=float).reshape(grid.node_count, -1)
    coeffs = legendre_transform_matrix(grid.rule) @ samples[grid.panel_slice(m)]
    eta = grid.rule.nodes[ell]
    vals = np.array(
        [
            legendre_eval_numpy_scalars(legendre_deriv_coeffs_numpy_scalars(coeffs[:, c]), eta)
            for c in range(samples.shape[1])
        ]
    )
    out = vals * (2.0 / grid.panel_width)
    return out if np.ndim(f.samples) > 1 else out[0]


def _ref_g_limit(xs, xss, fv, fd):
    sym = 0.5 * (np.outer(xs, xss) + np.outer(xss, xs))
    return sym @ fv + fd + xs * (xs @ fd)


def _ref_g_row(curve, f, t):
    s = curve.grid.global_nodes
    fv = np.asarray(f.samples, dtype=float)
    r = curve.positions - curve.positions[t]
    rnorm = np.linalg.norm(r, axis=1)
    rnorm[t] = 1.0
    rhat = r / rnorm[:, None]
    ds = s - s[t]
    ratio = np.abs(ds) / rnorm
    near = (fv + rhat * np.einsum("jc,jc->j", rhat, fv)[:, None]) * ratio[:, None]
    xs = curve.tangents[t]
    far = fv[t] + xs * (xs @ fv[t])
    ds[t] = 1.0
    rows = (near - far[None, :]) / ds[:, None]
    rows[t] = _ref_g_limit(
        xs, curve.second_derivs[t], fv[t], _ref_density_derivative_at(curve.grid, f, t)
    )
    return rows


def _ref_effective_weights(grid, table, t):
    s = grid.global_nodes
    w = grid.global_weights * np.sign(s - s[t])
    m, ell = grid.panel_of_target(t)
    w[grid.panel_slice(m)] = 0.5 * grid.panel_width * table[ell]
    return w


def _ref_eval_L(f, grid, table, t):
    s = grid.global_nodes
    fv = np.asarray(f.samples, dtype=float)
    ds = s - s[t]
    ds[t] = 1.0
    phi = (fv - fv[t]) / ds
    phi[t] = _ref_density_derivative_at(grid, f, t)
    return float(_ref_effective_weights(grid, table, t) @ phi)


FIBERS = {
    "helix": make_helix(8.0, 3.0, 1.5),
    "straight": make_straight((0.6, 0.0, 0.8), 1.5),
}


class TestSameNumbersAsNodeMajorRows:
    @pytest.mark.parametrize("panels", [1, 4, 64])
    @pytest.mark.parametrize("fiber", sorted(FIBERS))
    def test_eval_K_all(self, fiber, panels):
        pc = discretize(FIBERS[fiber], panels, RULE)
        f, fp = forces.testf(1.5)
        for dens in (
            LineDensity(samples=f(pc.grid.global_nodes)),
            LineDensity(f(pc.grid.global_nodes), derivative=fp),
        ):
            ref = np.array(
                [
                    _ref_effective_weights(pc.grid, TABLE, t) @ _ref_g_row(pc, dens, t)
                    for t in range(pc.grid.node_count)
                ]
            )
            got = eval_K_all(pc, dens, TABLE)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("panels", [1, 4, 64])
    def test_eval_L_and_weights_bitwise(self, panels):
        grid = PanelGrid(1.5, panels, RULE)
        f, fp = legendre_mixture(splitmix64_uniforms(3, 6), 1.5)
        for dens in (
            LineDensity(samples=f(grid.global_nodes)),
            LineDensity(f(grid.global_nodes), derivative=fp),
        ):
            for t in range(grid.node_count):
                assert np.array_equal(
                    _effective_weights(grid, TABLE, t), _ref_effective_weights(grid, TABLE, t)
                )
                assert eval_L(dens, grid, TABLE, t) == _ref_eval_L(dens, grid, TABLE, t)

    def test_g_limit_matches_outer_products(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            xs, xss, fv, fd = rng.standard_normal((4, 3))
            got = g_limit(xs, xss, fv, fd)
            ref = _ref_g_limit(xs, xss, fv, fd)
            norm = np.linalg.norm
            scale = norm(xs) * norm(xss) * norm(fv) + (1.0 + xs @ xs) * norm(fd)
            assert np.max(np.abs(got - ref)) <= 1e-15 * scale


class TestSameBitsAsPerColumnDerivatives:
    # f' from one derivative-matrix product and the limit on Python floats move only the
    # diagonal entry of a row, which the weight table scales by at most 3e-11 at order 16
    # and 2.6e-3 at order 32, so K and L keep every bit.
    @pytest.mark.parametrize("panels", [1, 4, 64])
    @pytest.mark.parametrize("fiber", sorted(FIBERS))
    @pytest.mark.parametrize("order", [8, 16, 24, 32])
    def test_eval_K_all_and_eval_L(self, order, fiber, panels):
        rule = gauss_legendre(order)
        table = build_weight_table(rule)
        pc = discretize(FIBERS[fiber], panels, rule)
        grid, s = pc.grid, pc.grid.global_nodes
        f, fp = forces.testf(1.5)
        g, gp = legendre_mixture(splitmix64_uniforms(3, 6), 1.5)
        for closure in (False, True):
            dens = LineDensity(f(grid.global_nodes), derivative=fp if closure else None)
            ref = [_effective_weights(grid, table, t) @ g_row_per_column(pc, dens, t)
                   for t in range(grid.node_count)]
            assert np.array_equal(eval_K_all(pc, dens, table), ref)
            dens = LineDensity(g(grid.global_nodes), derivative=gp if closure else None)
            for t in range(grid.node_count):
                ds = s - s[t]
                ds[t] = 1.0
                phi = (dens.samples - dens.samples[t]) / ds
                phi[t] = density_derivative_per_column(grid, dens, t)
                ref = float(_effective_weights(grid, table, t) @ phi)
                assert eval_L(dens, grid, table, t) == ref


class TestSamplesGiveTheClosureBits:
    # f' reaches K and L only through the weight table's diagonal entry, at most 3e-11 at
    # order 16 where the exact weight is 0, so a density's samples alone give the bits of
    # the same samples with the analytic f' attached
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_eval_K_all_on_the_benchmark_helix(self, seed):
        # the benchmark's k_operator pool: 8-mode vector mixtures, helix(8, 3, 1.5), M = 64
        pc = discretize(make_helix(8.0, 3.0, 1.5), 64, RULE)
        for d in range(4):
            parts = [legendre_mixture(splitmix64_uniforms(seed * 1000 + 3 * d + c, 8), 1.5)
                     for c in range(3)]
            samples = np.stack([f(pc.grid.global_nodes) for f, _ in parts], axis=-1)
            fprime = lambda s, parts=parts: np.stack([fp(s) for _, fp in parts], axis=-1)
            closure = eval_K_all(pc, LineDensity(samples, derivative=fprime), TABLE)
            assert np.array_equal(eval_K_all(pc, LineDensity(samples), TABLE), closure)

    @pytest.mark.parametrize("order", [8, 16])
    @pytest.mark.parametrize("seed, modes", [(42, 5), (7, 8), (3, 8)])
    def test_eval_L_on_eigen_test_mixtures(self, order, seed, modes):
        rule = gauss_legendre(order)
        table = build_weight_table(rule)
        f, fp = legendre_mixture(splitmix64_uniforms(seed, modes), 1.0)
        for m in (1, 2, 4, 8):
            grid = PanelGrid(1.0, m, rule)
            samples = f(grid.global_nodes)
            for t in range(grid.node_count):
                closure = eval_L(LineDensity(samples, derivative=fp), grid, table, t)
                assert eval_L(LineDensity(samples), grid, table, t) == closure


class TestInputChecks:
    def setup_method(self):
        self.pc = discretize(make_helix(8.0, 3.0, 1.5), 2, RULE)
        self.n = self.pc.grid.node_count

    @pytest.mark.parametrize("shape", [(), (32,), (31, 3), (32, 2), (32, 3, 1)])
    def test_K_rejects_density_shape(self, shape):
        dens = LineDensity(samples=np.ones(shape))
        with pytest.raises(ValueError, match=r"shape \(32, 3\)"):
            eval_K_all(self.pc, dens, TABLE)
        with pytest.raises(ValueError, match=r"shape \(32, 3\)"):
            eval_K(self.pc, dens, TABLE, 5)

    @pytest.mark.parametrize("shape", [(), (31,), (32, 3), (32, 1)])
    def test_L_rejects_density_shape(self, shape):
        dens = LineDensity(samples=np.ones(shape))
        with pytest.raises(ValueError, match=r"shape \(32,\)"):
            eval_L(dens, self.pc.grid, TABLE, 5)

    @pytest.mark.parametrize("shape", [(69, 3), (64,), (64, 1), (64, 2)])
    def test_Lambda_and_velocity_reject_density_shape(self, shape):
        pc = discretize(make_helix(8.0, 3.0, 1.5), 4, RULE)  # N = 64
        dens = LineDensity(samples=np.ones(shape))
        params = SlenderParams(epsilon=1e-2)
        with pytest.raises(ValueError, match=r"shape \(64, 3\)"):
            eval_Lambda(pc, dens, params)
        with pytest.raises(ValueError, match=r"shape \(64, 3\)"):
            centerline_velocity(pc, dens, params, lambda x: np.zeros(3), TABLE)

    @pytest.mark.parametrize(
        "index, match",
        [(-1, "-1 out of range"), (32, "32 out of range"), (3.0, "integer, got 3.0"),
         (3.5, "integer, got 3.5")],
    )
    def test_K_and_L_reject_index(self, index, match):
        dens = LineDensity(samples=np.ones((self.n, 3)))
        with pytest.raises(ValueError, match=match):
            eval_K(self.pc, dens, TABLE, index)
        with pytest.raises(ValueError, match=match):
            eval_L(LineDensity(samples=np.ones(self.n)), self.pc.grid, TABLE, index)

    def test_numpy_integer_index_is_an_index(self):
        dens = LineDensity(samples=np.arange(3.0 * self.n).reshape(self.n, 3))
        assert np.array_equal(
            eval_K(self.pc, dens, TABLE, np.int64(5)), eval_K(self.pc, dens, TABLE, 5)
        )

    def test_rejects_table_of_another_order(self):
        table8 = build_weight_table(gauss_legendre(8))
        with pytest.raises(ValueError, match="table order 8 does not match rule order 16"):
            eval_K_all(self.pc, LineDensity(samples=np.ones((self.n, 3))), table8)
        with pytest.raises(ValueError, match="table order 8 does not match rule order 16"):
            eval_L(LineDensity(samples=np.ones(self.n)), self.pc.grid, table8, 0)
