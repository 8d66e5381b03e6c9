import dataclasses

import numpy as np
import pytest

from helpers import legendre_deriv_coeffs_numpy_scalars, legendre_eval_numpy_scalars
from slenderquad.quadcore import (
    MAX_ORDER,
    PanelGrid,
    QuadratureRule,
    _legendre_table,
    _legendre_terms,
    _legendre_terms_split,
    gauss_legendre,
    interpolate_to_uniform,
    legendre_deriv_coeffs,
    legendre_eval,
    legendre_transform_matrix,
    solve_vandermonde_transpose,
)
from slenderquad.finitepart import build_weight_table, qk_signkernel


def _legendre_value_and_derivative(n, x):
    """P_n(x) and P_n'(x) by the three-term and derivative recurrences on arrays."""
    p_prev = np.ones_like(x)
    p = np.asarray(x, dtype=float).copy()
    dp_prev = np.zeros_like(x)
    dp = np.ones_like(x)
    if n == 0:
        return p_prev, dp_prev
    for k in range(2, n + 1):
        p_next = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp_next = dp_prev + (2 * k - 1) * p
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return p, dp


def _gauss_legendre_newton(n):
    """Nodes and weights by Newton on the reference recurrence, mirrored about 0."""
    k = np.arange(1, n // 2 + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_value_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if x.size == 0 or np.max(np.abs(dx)) < 1e-15:
            break
    p, dp = _legendre_value_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = np.concatenate([-x, [0.0] if n % 2 else [], x[::-1]])
    if n % 2:
        _, dp0 = _legendre_value_and_derivative(n, np.array([0.0]))
        return nodes, np.concatenate([w, [2.0 / (dp0[0] * dp0[0])], w[::-1]])
    return nodes, np.concatenate([w, w[::-1]])


def _bjorck_pereyra_loops(nodes, rhs):
    """The scalar double loop of the Bjorck-Pereyra dual solve, one entry at a time."""
    x = np.asarray(nodes, dtype=float)
    b = np.array(rhs, dtype=float)
    n = len(x)
    for k in range(n - 1):
        for i in range(n - 2, k - 1, -1):
            b[i + 1] -= x[k] * b[i]
    for k in range(n - 2, -1, -1):
        for i in range(k + 1, n):
            b[i] /= x[i] - x[i - k - 1]
        for i in range(k, n - 1):
            b[i] -= b[i + 1]
    return b


class TestGaussLegendre:
    def test_order_one_is_midpoint(self):
        rule = gauss_legendre(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_order_two_classical(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize("order", [3, 8, 16, 33, 64])
    def test_rule_invariants(self, order):
        rule = gauss_legendre(order)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-15
        assert abs(np.sum(rule.weights) - 2.0) <= 1e-14
        assert np.all(rule.weights > 0)
        assert np.all(np.abs(rule.nodes) < 1.0)

    def test_monomial_exactness_order16(self):
        rule = gauss_legendre(16)
        for k in range(0, 32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert rule.weights @ rule.nodes**k == pytest.approx(exact, abs=1e-13)

    def test_eta30_moment(self):
        rule = gauss_legendre(16)
        assert rule.weights @ rule.nodes**30 == pytest.approx(2.0 / 31.0, abs=1e-13)

    @pytest.mark.parametrize("order", [0, -3, 65])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            gauss_legendre(order)

    def test_equals_reference_newton_loop_bitwise(self):
        for n in range(1, MAX_ORDER + 1):
            rule = gauss_legendre(n)
            nodes, weights = _gauss_legendre_newton(n)
            assert np.array_equal(rule.nodes, nodes)
            assert np.array_equal(rule.weights, weights)

    def test_the_order_defines_the_rule(self):
        rule = gauss_legendre(16)
        same = QuadratureRule(np.int64(16))
        assert rule == same and hash(rule) == hash(same)
        assert rule != gauss_legendre(15)
        assert len({rule, same, gauss_legendre(15)}) == 2
        assert same.order == 16 and type(same.order) is int
        assert np.array_equal(rule.transform, same.transform)

    def test_replace_cannot_set_derived_arrays(self):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(gauss_legendre(16), nodes=np.linspace(-0.99, 0.99, 16))

    @pytest.mark.parametrize("name", ["nodes", "weights", "transform"])
    def test_arrays_are_read_only(self, name):
        array = getattr(gauss_legendre(16), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


class TestPanelGrid:
    def test_single_panel_affine_map(self):
        rule = gauss_legendre(16)
        grid = PanelGrid(1.0, 1, rule)
        assert grid.global_nodes == pytest.approx((rule.nodes + 1.0) / 2.0, abs=1e-16)

    def test_helix_study_grid_shape(self):
        grid = PanelGrid(1.5, 8, gauss_legendre(16))
        assert grid.panel_width == pytest.approx(3.0 / 16.0, abs=0)
        assert grid.node_count == 128
        assert grid.global_nodes.min() > 0.0 and grid.global_nodes.max() < 1.5

    def test_composite_integral_polynomial(self):
        grid = PanelGrid(1.0, 2, gauss_legendre(16))
        assert grid.global_weights @ grid.global_nodes**2 == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_composite_exponential(self, m):
        grid = PanelGrid(1.0, m, gauss_legendre(16))
        value = grid.global_weights @ np.exp(grid.global_nodes)
        assert abs(value - (np.e - 1.0)) < 1e-14

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            PanelGrid(0.0, 2, gauss_legendre(4))
        with pytest.raises(ValueError):
            PanelGrid(-1.0, 2, gauss_legendre(4))
        for length in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                PanelGrid(length, 2, gauss_legendre(4))
        for count in (2.5, 3.0, np.float64(3.0), 0, np.int64(-1)):
            with pytest.raises(ValueError, match="integer >= 1"):
                PanelGrid(1.5, count, gauss_legendre(4))
        assert PanelGrid(1.5, np.int64(3), gauss_legendre(4)).panel_count == 3

    @pytest.mark.parametrize("rule", [16, None, np.ones(16)], ids=["order", "none", "array"])
    def test_rule_must_be_a_quadrature_rule(self, rule):
        with pytest.raises(ValueError, match="QuadratureRule"):
            PanelGrid(1.5, 2, rule)

    def test_equal_definitions_compare_equal(self):
        grid = PanelGrid(1.5, 8, gauss_legendre(16))
        same = PanelGrid(np.float64(1.5), np.int64(8), QuadratureRule(16))
        assert grid == same and hash(grid) == hash(same)
        assert grid != PanelGrid(1.5, 4, gauss_legendre(16))
        assert grid != PanelGrid(1.5, 8, gauss_legendre(15))
        assert grid != PanelGrid(1.0, 8, gauss_legendre(16))

    @pytest.mark.parametrize("name", ["global_nodes", "global_weights"])
    def test_arrays_are_read_only(self, name):
        array = getattr(PanelGrid(1.5, 8, gauss_legendre(16)), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


class TestLegendreTransforms:
    def setup_method(self):
        self.rule = gauss_legendre(16)

    def test_basis_function_roundtrip(self):
        p3 = self.rule.nodes * (5.0 * self.rule.nodes**2 - 3.0) / 2.0
        coeffs = legendre_transform_matrix(self.rule) @ p3
        expected = np.zeros(16)
        expected[3] = 1.0
        assert np.max(np.abs(coeffs - expected)) <= 1e-14

    def test_constant_samples(self):
        coeffs = legendre_transform_matrix(self.rule) @ np.full(16, 5.0)
        assert coeffs[0] == pytest.approx(5.0, abs=1e-14)
        assert np.max(np.abs(coeffs[1:])) <= 1e-13

    def test_exp_interpolation(self):
        coeffs = legendre_transform_matrix(self.rule) @ np.exp(self.rule.nodes)
        assert legendre_eval(coeffs, 0.37) == pytest.approx(np.exp(0.37), abs=1e-12)

    def test_node_residual(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(16)
        coeffs = legendre_transform_matrix(self.rule) @ samples
        back = np.array([legendre_eval(coeffs, eta) for eta in self.rule.nodes])
        assert np.max(np.abs(back - samples)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            legendre_transform_matrix(self.rule) @ np.ones(8)

    def test_matrix_is_the_rules_read_only_transform(self):
        # every caller of one rule shares its matrix, so a write would reach them all
        transform = legendre_transform_matrix(self.rule)
        with pytest.raises(ValueError, match="read-only"):
            transform[0, 0] = 2.0
        assert transform is self.rule.transform


class TestLegendreEval:
    def test_p1(self):
        assert legendre_eval(np.array([0.0, 1.0]), 0.5) == pytest.approx(0.5, abs=0)

    def test_p2_imaginary(self):
        value = legendre_eval(np.array([0.0, 0.0, 1.0]), 1j)
        assert value == pytest.approx(-2.0, abs=1e-15)

    def test_exp_endpoint(self):
        rule = gauss_legendre(16)
        coeffs = legendre_transform_matrix(rule) @ np.exp(rule.nodes)
        assert legendre_eval(coeffs, -1.0) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_matches_explicit_polynomials(self):
        explicit = [
            lambda x: np.ones_like(x),
            lambda x: x,
            lambda x: (3 * x**2 - 1) / 2,
            lambda x: (5 * x**3 - 3 * x) / 2,
            lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
            lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
        ]
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, 20)
        for k, poly in enumerate(explicit):
            coeffs = np.zeros(6)
            coeffs[k] = 1.0
            for x in pts:
                assert legendre_eval(coeffs, x) == pytest.approx(poly(x), abs=1e-14)

    def test_eta_bound(self):
        with pytest.raises(ValueError):
            legendre_eval(np.ones(4), 10.5)
        with pytest.raises(ValueError):
            legendre_eval(np.ones(4), np.array([0.0, -10.5]))

    @pytest.mark.parametrize("coeffs", [np.array([]), np.zeros((3, 0))])
    @pytest.mark.parametrize("eta", [0.3, np.array([0.3, -0.5])])
    def test_rejects_empty_degree_axis(self, coeffs, eta):
        with pytest.raises(ValueError, match="non-empty degree axis"):
            legendre_eval(coeffs, eta)

    def test_derivative_coefficients(self):
        # P_3' = 5 P_2 + P_0
        d = legendre_deriv_coeffs(np.array([0.0, 0.0, 0.0, 1.0]))
        assert d == pytest.approx([1.0, 0.0, 5.0, 0.0], abs=0)

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_points_and_blocks_equal_scalar_calls_bitwise(self, n):
        rng = np.random.default_rng(n)
        block = rng.standard_normal((3, n))
        etas = np.concatenate([rng.uniform(-1.0, 1.0, 9), [-1.0, 1.0]])
        for coeffs in (block[0], block):
            got = legendre_eval(coeffs, etas)
            assert got.shape == etas.shape + coeffs.shape[:-1]
            loop = np.array([legendre_eval(coeffs, eta) for eta in etas])
            assert np.array_equal(got, loop)
        rows = np.array([legendre_eval(row, 0.3 - 0.2j) for row in block])
        assert np.array_equal(legendre_eval(block, 0.3 - 0.2j), rows)

    def test_scalar_point_equals_numpy_scalar_loop_bitwise(self):
        rng = np.random.default_rng(17)
        for n in range(1, MAX_ORDER + 1):
            coeffs = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
            for eta in (*rng.uniform(-1.0, 1.0, 4), *gauss_legendre(n).nodes[:3], -1.0, 1.0, 2.5):
                got = legendre_eval(coeffs, eta)
                assert np.array_equal(got, legendre_eval_numpy_scalars(coeffs, np.float64(eta)))
                assert np.array_equal(got, legendre_eval(coeffs, np.array([eta]))[0])
            for z in (0.3 - 0.2j, np.complex128(-0.7 + 0.1j)):
                ref = legendre_eval_numpy_scalars(coeffs, z)
                assert np.array_equal(legendre_eval(coeffs, z), ref)

    def test_derivative_coefficients_equal_numpy_scalar_loop_bitwise(self):
        rng = np.random.default_rng(19)
        for n in range(1, MAX_ORDER + 1):
            coeffs = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
            got = legendre_deriv_coeffs(coeffs)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.array_equal(got, legendre_deriv_coeffs_numpy_scalars(coeffs))


class TestLegendreAndDerivative:
    def test_matches_real_recurrence(self):
        n, x = MAX_ORDER + 1, np.array([-1.0, -0.73, 0.0, 0.31, 1.0, 2.5])
        got = _legendre_table(x, n)
        assert got.shape == (n, 2, len(x)) and got.dtype == float
        for k in range(n):
            p, dp = _legendre_value_and_derivative(k, x)
            assert np.all(np.abs(got[k, 0] - p) <= 1e-15 * np.maximum(1.0, np.abs(p)))
            assert np.all(np.abs(got[k, 1] - dp) <= 1e-15 * np.maximum(1.0, np.abs(dp)))

    def test_derivative_matches_centred_difference_at_complex_point(self):
        n, h = 16, 1e-6
        z = np.array([0.3 + 0.02j, -0.9 + 0.5j, 1.4 - 0.1j])
        table = _legendre_table(z, n)
        assert table.dtype == complex
        diff = (_legendre_table(z + h, n)[:, 0] - _legendre_table(z - h, n)[:, 0]) / (2 * h)
        scale = np.maximum(1.0, np.abs(table[:, 1]))
        assert np.all(np.abs(diff - table[:, 1]) <= 1e-8 * scale)

    def test_contracts_with_coefficient_block(self):
        coeffs = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.5]])
        z = 0.4 + 0.3j
        values, derivs = (coeffs @ _legendre_table(np.array(z), 3)).T
        p2 = (3 * z * z - 1) / 2
        assert values == pytest.approx([1.0 + 2.0 * p2, -z + 0.5 * p2], abs=1e-15)
        assert derivs == pytest.approx([6.0 * z, -1.0 + 1.5 * z], abs=1e-15)

    def test_real_array_equals_point_calls_bitwise(self):
        n, z = MAX_ORDER + 1, np.linspace(-1.3, 1.3, 11)
        table = _legendre_table(z, n)
        assert table.shape == (n, 2, len(z)) and table.dtype == float
        for i, point in enumerate(z.tolist()):
            assert np.array_equal(table[:, :, i], np.reshape(_legendre_terms(point, n), (n, 2)))

    def test_complex_array_equals_point_calls(self):
        # numpy's vectorised complex multiply may use fused multiply-adds, so
        # against Python complex scalars, the iterates Newton runs on, the
        # match is to rounding; against one-point arrays it is exact
        n, z = MAX_ORDER + 1, np.array([0.2 + 0.1j, -2.0 + 0.0j, 1j, 0.9 + 0.01j, -0.5 - 0.3j])
        table = _legendre_table(z, n)
        assert table.shape == (n, 2, len(z)) and table.dtype == complex
        for i, point in enumerate(z.tolist()):
            assert np.array_equal(table[:, :, i], _legendre_table(z[i : i + 1], n)[:, :, 0])
            scalar = np.reshape(_legendre_terms(point, n), (n, 2))
            tol = 64 * np.finfo(float).eps * np.maximum(1.0, np.abs(scalar))
            assert np.all(np.abs(table[:, :, i] - scalar) <= tol)


class TestLegendreTermsSplit:
    @staticmethod
    def iterates():
        """Newton's iterates: the disc |z| <= 20 that an iterate leaves by escaping, its
        rim, real points and parts of +-0.0, where the 0.0 * terms of Python's complex
        arithmetic decide a sign."""
        rng = np.random.default_rng(21)
        disc = 20.0 * np.sqrt(rng.uniform(size=3500)) * np.exp(2j * np.pi * rng.uniform(size=3500))
        rim = 20.0 * np.exp(2j * np.pi * rng.uniform(size=100))
        real = rng.uniform(-20.0, 20.0, 400)
        parts = [0.0, -0.0, 0.7, -0.7, 20.0]
        signed = [complex(a, b) for a in parts for b in parts]
        minus_zero = [complex(x, -0.0) for x in real[:100]]
        return np.concatenate([disc, rim, real + 0j, minus_zero, 1j * real[100:200], signed])

    @pytest.mark.parametrize("n", [1, 2, 3, 16, MAX_ORDER])
    def test_equals_python_complex_terms_bitwise(self, n):
        z = self.iterates()
        got = _legendre_terms_split(z, n)
        want = np.array([np.reshape(_legendre_terms(point, n), (n, 2)) for point in z.tolist()])
        assert got.shape == (len(z), n, 2) and got.dtype == complex
        assert got.tobytes() == want.astype(complex).tobytes()

    def test_empty_block(self):
        assert _legendre_terms_split(np.zeros(0, dtype=complex), 16).shape == (0, 16, 2)


class TestVandermondeTranspose:
    def test_two_by_two(self):
        b = solve_vandermonde_transpose(np.array([-1.0, 1.0]), np.array([2.0, 0.0]))
        # A = [[1, -1], [1, 1]], so A^T b = (2, 0) has the trapezoid weights
        assert b == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_column_consistency(self):
        rule = gauss_legendre(16)
        ell = 5
        rhs = rule.nodes[ell] ** np.arange(16)  # column ell of A^T
        b = solve_vandermonde_transpose(rule.nodes, rhs)
        expected = np.zeros(16)
        expected[ell] = 1.0
        assert np.max(np.abs(b - expected)) <= 1e-12

    def test_sign_kernel_residuals(self):
        rule = gauss_legendre(16)
        vander = np.vander(rule.nodes, increasing=True)
        for ell in range(16):
            rhs = np.array([qk_signkernel(k, rule.nodes[ell]) for k in range(16)])
            b = solve_vandermonde_transpose(rule.nodes, rhs)
            residual = np.max(np.abs(vander.T @ b - rhs)) / np.max(np.abs(rhs))
            assert residual <= 1e-10

    def test_matches_dense_solver_small(self):
        rng = np.random.default_rng(0)
        for n in (3, 5, 8):
            nodes = np.sort(rng.uniform(-1, 1, n))
            rhs = rng.uniform(-1, 1, n)
            direct = np.linalg.solve(np.vander(nodes, increasing=True).T, rhs)
            got = solve_vandermonde_transpose(nodes, rhs)
            assert np.max(np.abs(got - direct)) <= 1e-10

    def test_duplicate_nodes(self):
        with pytest.raises(ValueError, match="duplicate"):
            solve_vandermonde_transpose(np.array([0.5, 0.5, -0.5]), np.ones(3))
        with pytest.raises(ValueError, match="duplicate"):
            solve_vandermonde_transpose(np.array([0.0, -0.0]), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_nodes(self, bad):
        nodes = gauss_legendre(16).nodes.copy()
        nodes[7] = bad
        with pytest.raises(ValueError, match="finite") as err:
            solve_vandermonde_transpose(nodes, np.ones(16))
        assert "duplicate" not in str(err.value)

    def test_block_equals_columns_and_scalar_loops_bitwise(self):
        rng = np.random.default_rng(5)
        for n in range(1, MAX_ORDER + 1):
            nodes = gauss_legendre(n).nodes
            rhs = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
            block = solve_vandermonde_transpose(nodes, rhs)
            assert block.shape == (n, 3)
            for j in range(3):
                column = solve_vandermonde_transpose(nodes, rhs[:, j])
                assert np.array_equal(block[:, j], column)
                assert np.array_equal(column, _bjorck_pereyra_loops(nodes, rhs[:, j]))

    def test_weight_table_equals_one_block_solve(self):
        for n in range(1, MAX_ORDER + 1):
            rule = gauss_legendre(n)
            moments = np.array([[qk_signkernel(k, e) for e in rule.nodes] for k in range(n)])
            table = build_weight_table(rule)
            assert np.array_equal(solve_vandermonde_transpose(rule.nodes, moments).T, table)
            for ell in (0, n // 2, n - 1):
                reference = _bjorck_pereyra_loops(rule.nodes, moments[:, ell])
                assert np.array_equal(table[ell], reference)

    @pytest.mark.parametrize("shape", [(3,), (4, 2, 1), (5, 2)])
    def test_rhs_shape_mismatch(self, shape):
        with pytest.raises(ValueError):
            solve_vandermonde_transpose(gauss_legendre(4).nodes, np.ones(shape))


class TestInterpolateToUniform:
    def setup_method(self):
        self.rule = gauss_legendre(16)

    def test_degree15_exact(self):
        grid = PanelGrid(2.0, 3, self.rule)
        rng = np.random.default_rng(5)
        coeffs = rng.uniform(-1, 1, 16)
        poly = np.polynomial.Polynomial(coeffs)
        samples = poly(grid.global_nodes)
        targets = np.linspace(0.0, 2.0, 57)
        got = interpolate_to_uniform(samples, grid, targets)
        # per-panel interpolation of a global degree-15 polynomial is exact
        assert np.max(np.abs(got - poly(targets))) <= 1e-12 * np.max(np.abs(samples))

    def test_target_at_node(self):
        grid = PanelGrid(1.0, 4, self.rule)
        samples = np.sin(grid.global_nodes)
        idx = 23
        got = interpolate_to_uniform(samples, grid, np.array([grid.global_nodes[idx]]))
        assert got[0] == pytest.approx(samples[idx], abs=1e-13)

    def test_resolved_sine(self):
        grid = PanelGrid(1.0, 8, self.rule)
        samples = np.sin(2 * np.pi * grid.global_nodes)
        targets = np.linspace(0.0, 1.0, 400)
        got = interpolate_to_uniform(samples, grid, targets)
        assert np.max(np.abs(got - np.sin(2 * np.pi * targets))) <= 1e-10

    def test_panel_boundary_tiebreak(self):
        grid = PanelGrid(1.0, 4, self.rule)
        samples = np.exp(grid.global_nodes)
        edge = 0.5  # shared edge of panels 1 and 2
        got = interpolate_to_uniform(samples, grid, np.array([edge]))
        assert got[0] == pytest.approx(np.exp(edge), abs=1e-11)

    def test_vector_samples(self):
        grid = PanelGrid(1.0, 2, self.rule)
        samples = np.stack([grid.global_nodes, grid.global_nodes**2], axis=1)
        got = interpolate_to_uniform(samples, grid, np.array([0.25, 0.75]))
        assert got == pytest.approx(np.array([[0.25, 0.0625], [0.75, 0.5625]]), abs=1e-13)

    def test_out_of_range(self):
        grid = PanelGrid(1.0, 2, self.rule)
        with pytest.raises(ValueError):
            interpolate_to_uniform(np.ones(32), grid, np.array([1.2]))
        with pytest.raises(ValueError):
            interpolate_to_uniform(np.ones(32), grid, np.array([-0.1]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                interpolate_to_uniform(np.ones(32), grid, np.array([0.5, bad]))
