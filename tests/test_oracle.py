import ast
import heapq
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import bisect_start_sums, rotation_matrix, segment_stokeslet
from slenderquad import cli, forces, oracle
from slenderquad.finitepart import LineDensity, build_weight_table, eval_K
from slenderquad.geometry import FiberCurve, discretize, make_helix, make_straight
from slenderquad.oracle import (
    AccuracyError,
    adaptive_integrate,
    diagonal_eigenvalues,
    g_pair,
    reference_K,
    reference_S,
    scaled_legendre,
)
from slenderquad.quadcore import gauss_legendre

RULE = gauss_legendre(16)
TABLE = build_weight_table(RULE)


class TestAdaptiveIntegrate:
    def test_polynomial(self):
        assert adaptive_integrate(lambda s: s**2, 0.0, 1.0, 1e-13) == pytest.approx(
            1.0 / 3.0, abs=1e-13
        )

    def test_sharp_peak(self):
        value = adaptive_integrate(lambda e: 1.0 / np.sqrt(e * e + 1e-4), -1.0, 1.0, 1e-11)
        assert value == pytest.approx(2.0 * np.arcsinh(100.0), abs=1e-11)

    def test_split_handles_jump_exactly(self):
        integrand = lambda s: np.sign(s - 0.3)
        left = adaptive_integrate(integrand, 0.0, 0.3, 1e-12)
        right = adaptive_integrate(integrand, 0.3, 1.0, 1e-12)
        assert left + right == pytest.approx(0.4, abs=1e-13)
        # a start partition split at the jump, as reference_S builds them, does the same
        assert _bisect_one(integrand, [0.0, 0.3, 1.0], 1e-12) == pytest.approx(0.4, abs=1e-13)

    def test_vector_integrand(self):
        got = adaptive_integrate(
            lambda s: np.stack([s, s**2, np.sin(s)], axis=-1), 0.0, 1.0, 1e-12
        )
        assert got == pytest.approx([0.5, 1.0 / 3.0, 1.0 - np.cos(1.0)], abs=1e-12)

    @pytest.mark.parametrize(
        "integrand",
        [lambda s: np.array([s, s**2, np.sin(s)]), lambda s: 4.0],
        ids=["component-axis-leading", "scalar"],
    )
    def test_rejects_output_without_leading_node_axis(self, integrand):
        with pytest.raises(ValueError):
            adaptive_integrate(integrand, 0.0, 1.0, 1e-12)

    def test_one_call_per_bisection(self, monkeypatch):
        sizes = []
        pushes = []

        def peak(s):
            sizes.append(np.shape(s))
            return 1.0 / (s * s + 1e-4)

        def counting_push(heap, item):
            pushes.append(item)
            heapq.heappush(heap, item)

        monkeypatch.setattr(
            oracle, "heapq", SimpleNamespace(heappush=counting_push, heappop=heapq.heappop)
        )
        value = adaptive_integrate(peak, -1.0, 1.0, 1e-11)
        assert value == pytest.approx(2.0 * 100.0 * np.arctan(100.0), rel=1e-11)
        n = oracle._N
        assert sizes[0] == (n,) and set(sizes[1:]) <= {(2 * n,)}
        bisections = len(pushes) // 2  # each bisection pushes both halves
        assert bisections > 10
        assert len(sizes) == bisections + 1

    def test_equal_errors_split_left_end_first(self, monkeypatch):
        # the same n values on every interval: halves of one width get equal estimates
        pattern = np.cos(np.arange(float(oracle._N)))
        centres = []

        def integrand(x):
            centres.append(x.mean())
            return np.tile(pattern, x.size // oracle._N)

        monkeypatch.setattr(oracle, "MAX_INTERVALS", 6)
        with pytest.raises(AccuracyError):
            adaptive_integrate(integrand, 0.0, 1.0, 1e-12)
        # the start interval, then the split ones: [0, 1], [0, .5], [.5, 1], [0, .25], [.25, .5]
        assert centres == pytest.approx([0.5, 0.5, 0.25, 0.75, 0.125, 0.375], abs=1e-15)

    @pytest.mark.parametrize(
        "integrand, a, b, points",
        [
            (lambda s: 1.0 / (s * s + 1e-4), -1.0, 1.0, ()),
            (lambda s: 1.0 / np.sqrt(s * s + 1e-6), -1.0, 1.0, (-0.5, 0.0, 0.3)),
            (lambda s: np.stack([s, s**2, np.sin(40.0 * s)], axis=-1), 0.0, 1.0, ()),
            (lambda s: s**-0.9, 1e-300, 1.0, ()),
        ],
        ids=["peak", "breakpoints", "vector", "fails"],
    )
    def test_equals_the_one_interval_loop_bit_for_bit(self, integrand, a, b, points):
        total, err, ok = _ref_integrate(integrand, a, b, 1e-12, points)
        if points:  # the multi-interval start partition that reference_S hands _bisect
            run = lambda: _bisect_one(integrand, [a, *points, b], 1e-12)
        else:
            run = lambda: adaptive_integrate(integrand, a, b, 1e-12)
        if ok:
            assert np.array_equal(run(), total)
        else:
            with pytest.raises(AccuracyError) as info:
                run()
            assert info.value.best_estimate == total and info.value.error_estimate == err

    def test_self_consistency_under_tol_halving(self):
        f = lambda s: np.exp(-3.0 * s) * np.cos(20.0 * s)
        loose = adaptive_integrate(f, 0.0, 2.0, 1e-8)
        tight = adaptive_integrate(f, 0.0, 2.0, 1e-12)
        assert abs(loose - tight) <= 1e-8

    def test_accuracy_failure_carries_best_estimate(self):
        # endpoint algebraic singularity starves the bisection depth budget
        with pytest.raises(AccuracyError) as info:
            adaptive_integrate(lambda s: s**-0.9, 1e-300, 1.0, 1e-13)
        # exact value is 10; the best estimate misses only unresolved mass at 0
        assert 9.0 < info.value.best_estimate < 10.1
        assert info.value.error_estimate > 0

    def test_non_finite_integrand_raises(self):
        with pytest.raises(AccuracyError):
            adaptive_integrate(lambda s: np.where(s > 0.5, np.nan, s), 0.0, 1.0, 1e-10)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            adaptive_integrate(lambda s: s, 1.0, 0.0, 1e-10)

    @pytest.mark.parametrize("a, b", [(np.nan, 1.0), (0.0, np.nan), (-np.inf, 0.0), (0.0, np.inf)])
    def test_rejects_non_finite_interval(self, a, b):
        with pytest.raises(ValueError, match="finite a < b"):
            adaptive_integrate(lambda s: s, a, b, 1e-10)


class TestBadTol:
    HELIX = make_helix(8.0, 3.0, 1.5)
    F, FPRIME = forces.testf_simple(HELIX)
    CALLS = {
        "adaptive_integrate": lambda tol: adaptive_integrate(lambda s: s, 0.0, 1.0, tol),
        "reference_S": lambda tol: reference_S(
            TestBadTol.HELIX, TestBadTol.F, np.array([0.1, 0.0, 0.3]), tol
        ),
        "reference_K": lambda tol: reference_K(
            TestBadTol.HELIX, TestBadTol.F, TestBadTol.FPRIME, 0.7, tol
        ),
    }

    @pytest.mark.parametrize("tol", [0.0, -1e-12, np.nan, np.inf])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_rejected_before_any_integrand_call(self, name, tol, monkeypatch):
        def no_rule(*args):
            raise AssertionError("the integrand was evaluated")

        monkeypatch.setattr(oracle, "_gauss_kronrod", no_rule)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            self.CALLS[name](tol)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_message_names_the_callers_tol(self, name):
        # the message carries the tol as passed in, not a share of it
        with pytest.raises(ValueError, match=r"got -1e-12$"):
            self.CALLS[name](-1e-12)

    def test_accuracy_error_names_the_callers_tol_and_carries_the_loops_estimate(self, monkeypatch):
        f, fprime = forces.testf(1.5)
        loops, bisect = [], oracle._bisect
        record = lambda *a: loops.append((a[1:], bisect(*a))) or loops[-1][1]
        monkeypatch.setattr(oracle, "_bisect", record)
        # the 21-point rule certifies 1e-9 at depth 2, so a budget of 1 runs out
        monkeypatch.setattr(oracle, "MAX_DEPTH", 1)
        with pytest.raises(AccuracyError, match=r"^tolerance 1e-09 not met") as info:
            reference_K(make_helix(8.0, 3.0, 1.5), f, fprime, 0.7, 1e-9)
        # one problem at the caller's tol, split at s_bar by its start edges
        [(([edges], tol), (totals, errs, failed))] = loops
        assert edges.tolist() == [0.0, 0.7, 1.5] and tol == 1e-9 and failed.tolist() == [True]
        assert np.array_equal(info.value.best_estimate, totals[0])
        assert info.value.error_estimate == errs[0]


class TestComplexClosures:
    @pytest.mark.parametrize("name", ["adaptive_integrate", "reference_S", "reference_K", "g_pair"])
    def test_raise_rather_than_drop_the_imaginary_part(self, name):
        helix = make_helix(8.0, 3.0, 1.5)
        real_f, fp = forces.testf_simple(helix)
        f = lambda s: real_f(s) * (1 + 1j)
        calls = {
            "adaptive_integrate": lambda: adaptive_integrate(lambda s: np.exp(1j * s), 0.0, 1.0),
            "reference_S": lambda: reference_S(helix, f, np.array([0.1, 0.0, 0.3])),
            "reference_K": lambda: reference_K(helix, f, fp, 0.7),
            "g_pair": lambda: g_pair(helix, f, fp, 0.3, 0.7),
        }
        # each returned the real part alone, with only a ComplexWarning
        with pytest.raises(ValueError, match="the oracle integrates real values, got complex128"):
            calls[name]()


class TestStartSums:
    @pytest.mark.parametrize("d", [1, 3])
    def test_equal_the_interval_by_interval_loop_bit_for_bit(self, d, monkeypatch):
        rng = np.random.default_rng(d)
        partitions = [np.sort(rng.uniform(-3.0, 3.0, rng.integers(2, 40))) for _ in range(150)]
        scales = np.exp(rng.uniform(-20.0, 20.0, (len(partitions), d)))
        starts, rule = [], oracle._gauss_kronrod
        record = lambda *a: starts.append((a[3], rule(*a))) or starts[-1][1]
        monkeypatch.setattr(oracle, "_gauss_kronrod", record)

        def integrand(x, owner):
            values = scales[owner.repeat(oracle._N)] * np.cos(np.arange(1, d + 1) * x[:, None])
            return values[:, 0] if d == 1 else values

        # no problem bisects at this tol, so _bisect returns its start sums
        totals, errs, failed = oracle._bisect(integrand, partitions, 1e300)
        # the start call's 256-interval slices record first, then the whole call
        owner, (kron, err, _) = starts[-1]
        assert len(owner) > 2 * oracle._BLOCK
        want_totals, want_errs = bisect_start_sums(owner, kron, err, len(partitions))
        assert not failed.any()
        assert np.array_equal(totals.reshape(want_totals.shape), want_totals)
        assert np.array_equal(errs, want_errs)


class TestBreakpoints:
    """_bisect's multi-interval start partitions, which reference_S builds."""

    @staticmethod
    def peak(s):
        return 1.0 / (s * s + 1e-4)

    @pytest.mark.parametrize("points", [[0.0], [-0.5, -0.01, 0.0, 0.01, 0.5], [0.9]])
    def test_one_start_call_then_bisections(self, points):
        sizes = []

        def counted(s):
            sizes.append(s.size)
            return self.peak(s)

        value = _bisect_one(counted, [-1.0, *points, 1.0], 1e-11)
        plain = adaptive_integrate(self.peak, -1.0, 1.0, 1e-11)
        assert sizes[0] == oracle._N * (len(points) + 1)
        assert set(sizes[1:]) <= {2 * oracle._N}
        assert abs(value - plain) <= 1e-11 * abs(plain)


class TestClosestParameter:
    HELIX = make_helix(8.0, 3.0, 1.5)

    @staticmethod
    def closest(curve, pt):
        return oracle._closest_parameters(curve, np.asarray(pt)[None, :])[0]

    @pytest.mark.parametrize("s0", [0.3, 0.75, 1.2])
    @pytest.mark.parametrize("d", [1e-6, 2.2e-3, 0.05])
    def test_normal_offset_on_helix(self, s0, d):
        # the principal normal x_ss / kappa is orthogonal to x_s, so s0 is the foot
        pt = self.HELIX.position(s0) + d * self.HELIX.second_derivative(s0) / 8.0
        assert abs(self.closest(self.HELIX, pt) - s0) <= 1e-13

    def test_points_beyond_the_ends(self):
        h = self.HELIX
        before = h.position(0.0) - 0.1 * h.tangent(0.0)
        after = h.position(h.length) + 0.1 * h.tangent(h.length)
        assert self.closest(h, before) == 0.0
        assert self.closest(h, after) == h.length

    @pytest.mark.parametrize("s0", [0.0, 0.37, 1.3, 2.0])
    def test_straight_fiber_is_exact(self, s0):
        fiber = make_straight((0.6, 0.8, 0.0), 2.0)
        pt = fiber.position(s0) + np.array([0.0, 0.0, 0.3])
        assert self.closest(fiber, pt) == pytest.approx(s0, abs=1e-15)


class TestGaussKronrodRows:
    def test_monomial_exactness(self):
        # the 21-node Kronrod row is exact to degree 31, the embedded Gauss-10 row to 19
        for row, degree in ((0, 31), (1, 19)):
            for k in range(degree + 1):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert abs(oracle._WEIGHTS[row] @ oracle._NODES**k - exact) <= 5e-16

    def test_gauss_row_is_gauss_legendre_10(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        on = oracle._WEIGHTS[1] != 0.0
        assert np.max(np.abs(oracle._NODES[on] - nodes)) <= 2.3e-16
        assert np.max(np.abs(oracle._WEIGHTS[1][on] - weights)) <= 2.3e-16


class TestDiagonalization:
    def test_eigenvalue_recursion(self):
        lam = diagonal_eigenvalues(6)
        assert lam == pytest.approx(
            [0.0, 2.0, 3.0, 11.0 / 3.0, 25.0 / 6.0, 137.0 / 30.0], abs=1e-14
        )

    def test_scaled_legendre_values(self):
        s = np.array([0.0, 0.5, 1.0])
        assert scaled_legendre(1, s) == pytest.approx([-1.0, 0.0, 1.0], abs=0)
        assert scaled_legendre(2, 0.37) == pytest.approx(
            (3 * (-0.26) ** 2 - 1) / 2, abs=1e-15
        )

    def test_scaled_legendre_rejects_negative_order(self):
        with pytest.raises(ValueError, match="n must be non-negative, got -3"):
            scaled_legendre(-3, np.array([0.0, 0.25, 1.0]))

    @pytest.mark.parametrize("n", [2.0, 2.5])
    def test_scaled_legendre_rejects_non_integer_order(self, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
            scaled_legendre(n, np.array([0.0, 0.25, 1.0]))

    @pytest.mark.parametrize("count", [2.5, -1])
    def test_diagonal_eigenvalues_rejects_count_not_a_non_negative_integer(self, count):
        with pytest.raises(ValueError, match=f"count must be a non-negative integer, got {count}"):
            diagonal_eigenvalues(count)

    def test_numpy_integers_pass(self):
        assert diagonal_eigenvalues(np.int64(3)).tolist() == [0.0, 2.0, 3.0]
        assert scaled_legendre(np.int64(1), 0.75) == 0.5


class TestReferenceK:
    def test_straight_constant_vanishes(self):
        fiber = make_straight((1.0, 0.0, 0.0), 1.0)
        f = lambda s: np.array([0.3, -0.4, 0.5])
        fp = lambda s: np.zeros(3)
        got = reference_K(fiber, f, fp, 0.45, tol=1e-10)
        assert got == pytest.approx(np.zeros(3), abs=1e-10)

    def test_matches_panel_evaluation_on_helix(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, fp = forces.testf(1.5)
        pc = discretize(helix, 16, RULE)
        dens = LineDensity(f(pc.grid.global_nodes))
        for t in (20, 130, 220):
            s_bar = pc.grid.global_nodes[t]
            ref = reference_K(helix, f, fp, s_bar, tol=1e-10)
            assert eval_K(pc, dens, TABLE, t) == pytest.approx(ref, abs=1e-9)

    def test_rotation_invariant_norm(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, fp = forces.testf(1.5)
        rot = rotation_matrix((0.3, -1.0, 0.8), 0.9)
        moved = FiberCurve(
            1.5,
            lambda s: helix.position(s) @ rot.T,
            lambda s: helix.tangent(s) @ rot.T,
            lambda s: helix.second_derivative(s) @ rot.T,
        )
        s_bar = 0.8
        base = reference_K(helix, f, fp, s_bar, tol=1e-10)
        turned = reference_K(
            moved, lambda s: f(s) @ rot.T, lambda s: fp(s) @ rot.T, s_bar, tol=1e-10
        )
        assert np.linalg.norm(turned) == pytest.approx(np.linalg.norm(base), abs=1e-9)

    @pytest.mark.parametrize("density", ["testf", "testf-simple"])
    @pytest.mark.parametrize("panels", [16, 64])
    def test_certifies_tol_1e12_and_agrees_with_eval_K(self, panels, density):
        helix = make_helix(8.0, 3.0, 1.5)
        f, fp = forces.testf(1.5) if density == "testf" else forces.testf_simple(helix)
        pc = discretize(helix, panels, RULE)
        dens, n = LineDensity(f(pc.grid.global_nodes)), pc.grid.node_count
        for t in (0, 1, n // 2, n - 1):  # the end nodes included
            ref = reference_K(helix, f, fp, pc.grid.global_nodes[t], tol=1e-12)
            assert np.max(np.abs(eval_K(pc, dens, TABLE, t) - ref)) <= 1e-11

    @pytest.mark.parametrize("order", [24, 32])
    def test_high_orders_agree_with_eval_K(self, order):
        helix = make_helix(8.0, 3.0, 1.5)
        f, fp = forces.testf(1.5)
        rule = gauss_legendre(order)
        pc = discretize(helix, 4, rule)
        dens, n = LineDensity(f(pc.grid.global_nodes)), pc.grid.node_count
        table = build_weight_table(rule)
        for t in (0, n // 2, n - 1):
            ref = reference_K(helix, f, fp, pc.grid.global_nodes[t], tol=1e-12)
            assert np.max(np.abs(eval_K(pc, dens, table, t) - ref)) <= 1e-12 * np.max(np.abs(ref))

    # the monomial table's nonzero diagonal multiplies f' above order 32, where K erred 7.1e-12,
    # 8.1e-8 and 3.6 relative at orders 40, 48 and 64; ROADMAP item 3's exact table lifts the limit
    @pytest.mark.parametrize("order", [40, 48, 64])
    def test_orders_above_the_table_limit_raise(self, order):
        with pytest.raises(ValueError, match=f"rule orders up to 32, got {order}; ROADMAP item 3"):
            build_weight_table(gauss_legendre(order))

    def test_end_nodes_of_a_tightly_wound_helix(self):
        # 124 rad of turning: the mean tangent far from s_bar must come from the positions
        helix = make_helix(80.0, 20.0, 1.5)
        f, fp = forces.testf(1.5)
        pc = discretize(helix, 512, RULE)
        dens = LineDensity(f(pc.grid.global_nodes))
        for t in (0, pc.grid.node_count - 1):
            ref = reference_K(helix, f, fp, pc.grid.global_nodes[t], tol=1e-12)
            assert np.max(np.abs(eval_K(pc, dens, TABLE, t) - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_never_calls_fprime(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, fp = forces.testf(1.5)

        def no_fprime(s):
            raise AssertionError("fprime was called")

        got = reference_K(helix, f, no_fprime, 0.8, tol=1e-12)
        assert np.array_equal(got, reference_K(helix, f, fp, 0.8, tol=1e-12))

    @pytest.mark.parametrize("s_bar", [0.0, 1.5, -0.1, 2.0, np.nan])
    def test_rejects_s_bar_outside_the_fiber(self, s_bar):
        f, fp = forces.testf(1.5)
        with pytest.raises(ValueError, match=r"s_bar must lie strictly inside \(0, length\)"):
            reference_K(make_helix(8.0, 3.0, 1.5), f, fp, s_bar, tol=1e-10)


class TestGPair:
    @pytest.mark.parametrize("s_bar", [0.35, 0.8, 1.1])
    @pytest.mark.parametrize("density", ["testf", "testf-simple"])
    def test_first_order_toward_the_limit_down_to_1e_8(self, density, s_bar):
        helix = make_helix(8.0, 3.0, 1.5)
        f, fp = forces.testf(1.5) if density == "testf" else forces.testf_simple(helix)
        limit = g_pair(helix, f, fp, s_bar, s_bar)
        steps = 10.0 ** -np.arange(4, 9)
        slopes = [np.linalg.norm(g_pair(helix, f, fp, s_bar + h, s_bar) - limit) / h for h in steps]
        # a factor formed with cancellation has noise eps / h, so err / h leaves first order by 1e-6
        assert all(0.5 * slopes[0] <= e <= 2.0 * slopes[0] for e in slopes)


class TestReferenceS:
    def test_zero_density(self):
        helix = make_helix(8.0, 3.0, 1.5)
        got = reference_S(helix, lambda s: np.zeros(3), np.array([0.5, 0.5, 0.5]))
        assert np.all(got == 0.0)

    def test_straight_segment_closed_form(self):
        fiber = make_straight((1.0, 0.0, 0.0), 1.0)
        fconst = np.array([0.2, 0.9, -0.5])
        got = reference_S(fiber, lambda s: fconst, np.array([0.4, 0.3, 0.0]), tol=1e-13)
        assert got == pytest.approx(segment_stokeslet(0.4, 0.3, 1.0, fconst), abs=1e-12)

    def test_near_point_converges_with_splitting(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf_simple(helix)
        s0 = 0.75
        pt = helix.position(s0) + 2.2e-3 * helix.second_derivative(s0) / 8.0
        got = reference_S(helix, f, pt, tol=1e-12)
        assert np.all(np.isfinite(got))
        # halving the tolerance moves the value by less than the claimed error
        again = reference_S(helix, f, pt, tol=5e-13)
        assert np.max(np.abs(got - again)) <= 1e-11 * np.linalg.norm(got)

    def test_point_past_the_end(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf_simple(helix)
        pt = helix.position(1.5) + 3e-3 * helix.tangent(1.5)
        got = reference_S(helix, f, pt, tol=1e-12)
        tight = reference_S(helix, f, pt, tol=1e-14)
        assert np.max(np.abs(got - tight)) <= 1e-12 * max(1.0, np.max(np.abs(tight)))

    @pytest.mark.parametrize("s0", [0.37, 0.75, 0.0, 1.5])
    def test_point_on_the_centerline_raises_before_any_bisection(self, s0, monkeypatch):
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf_simple(helix)
        monkeypatch.setattr(oracle, "_bisect", None)  # never reached
        # S diverges there; bisection would reach nodes at x_bar itself and divide 0 by 0
        with pytest.raises(ValueError, match="field point 0 lies on the centerline"):
            reference_S(helix, f, helix.position(s0))

    def test_one_graded_call(self, monkeypatch):
        calls = []

        def recording(integrand, partitions, tol):
            calls.append(partitions)
            return bisect(integrand, partitions, tol)

        bisect = oracle._bisect
        monkeypatch.setattr(oracle, "_bisect", recording)
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf_simple(helix)
        s0, d = 0.75, 2.2e-3
        reference_S(helix, f, helix.position(s0) + d * helix.second_derivative(s0) / 8.0)
        ((edges,),) = calls
        assert edges[0] == 0.0 and edges[-1] == helix.length
        gaps = np.abs(edges[1:-1] - s0)
        assert s0 in edges
        # spacing doubles away from the foot, starting at the closest distance
        assert np.min(gaps[gaps > 0]) == pytest.approx(d, rel=1e-9)
        assert np.max(gaps) > helix.length / 4


def _bisect_one(integrand, edges, tol):
    """One problem through _bisect from the start partition edges, certified."""
    found = oracle._bisect(lambda x, owner: integrand(x), [np.asarray(edges, dtype=float)], tol)
    return oracle._certified(*found, tol, one=True)


def _ref_integrate(integrand, a, b, tol, points=()):
    """One interval at a time: the bisection loop that the oracle batches.

    Returns the total, the error sum and whether the tolerance was met, for
    bit-for-bit comparison; the oracle must bisect every problem in this order.
    """
    weights, nodes = oracle._WEIGHTS, oracle._NODES

    def rule(lo, hi):
        half = 0.5 * (hi - lo)
        kron, gauss = half * (weights @ np.asarray(integrand(0.5 * (lo + hi) + half * nodes)))
        return kron, float(np.max(np.abs(kron - gauss)))

    edges = np.concatenate([[a], np.asarray(points, dtype=float), [b]])
    heap, total, total_err = [], 0.0, 0.0
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        val, err = rule(lo, hi)
        heapq.heappush(heap, (-err, lo, hi, 0, val))
        total, total_err = total + val, total_err + err
    count = len(heap)
    while not total_err <= tol * max(1.0, float(np.max(np.abs(total)))):
        neg_err, lo, hi, depth, val = heapq.heappop(heap)
        if depth >= oracle.MAX_DEPTH or count >= oracle.MAX_INTERVALS or not np.isfinite(total_err):
            return total, total_err, False
        mid = 0.5 * (lo + hi)
        (vl, el), (vr, er) = rule(lo, mid), rule(mid, hi)
        total = total - val + vl + vr
        total_err += el + er + neg_err
        heapq.heappush(heap, (-el, lo, mid, depth + 1, vl))
        heapq.heappush(heap, (-er, mid, hi, depth + 1, vr))
        count += 1
    return total, total_err, True


def _ref_reference_S(curve, f, x_bar, tol):
    """reference_S for one point through _ref_integrate and a scalar Newton closest point."""
    s = np.linspace(0.0, curve.length, oracle._CLOSEST_SAMPLES)
    i = int(np.argmin(np.sum((curve.position(s) - x_bar) ** 2, axis=-1)))
    lo, hi, t = s[max(i - 1, 0)], s[min(i + 1, len(s) - 1)], s[i]
    for _ in range(60):
        r, xs = curve.position(t) - x_bar, curve.tangent(t)
        lo, hi = (t, hi) if r @ xs < 0 else (lo, t)
        dphi = xs @ xs + r @ curve.second_derivative(t)
        nxt = t - (r @ xs) / dphi if dphi > 0 else np.nan
        nxt = nxt if lo <= nxt <= hi else 0.5 * (lo + hi)
        t, step = nxt, abs(nxt - t)
        if step <= 1e-15 * curve.length:
            break
    h = max(float(np.linalg.norm(curve.position(t) - x_bar)), 1e-12 * curve.length)
    offsets = h * 2.0 ** np.arange(int(np.log2(curve.length / h)) + 1)
    points = np.concatenate([t - offsets[::-1], [t], t + offsets])

    def integrand(s):
        r = x_bar - curve.position(s)
        rnorm = np.sqrt(np.einsum("nc,nc->n", r, r))[:, None]
        return f(s) / rnorm + r * np.einsum("nc,nc->n", r, f(s))[:, None] / rnorm**3

    inside = points[(points > 0.0) & (points < curve.length)]
    return _ref_integrate(integrand, 0.0, curve.length, tol, inside)


def _near_points(count, seed=5):
    """Seeded points 2.2e-3 to 2e-2 off the (8, 3, 1.5) helix, along random normals."""
    helix = make_helix(8.0, 3.0, 1.5)
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.05, 1.45, count)
    dist = np.exp(rng.uniform(np.log(2.2e-3), np.log(2e-2), count))
    angle = rng.uniform(0.0, 2.0 * np.pi, count)
    tangent = helix.tangent(s)
    normal = helix.second_derivative(s) / 8.0
    offset = np.cos(angle)[:, None] * normal + np.sin(angle)[:, None] * np.cross(tangent, normal)
    return helix.position(s) + dist[:, None] * offset


class TestReferenceSBlock:
    HELIX = make_helix(8.0, 3.0, 1.5)
    F = staticmethod(forces.testf_simple(HELIX)[0])
    GRID = cli.helix_field_grid(HELIX, radial_count=5, angular_count=6, z_count=5)

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 33, 128, 129])
    @pytest.mark.parametrize("where", ["grid", "near"])
    def test_block_equals_single_points_bit_for_bit(self, count, where):
        points = self.GRID[:count] if where == "grid" else _near_points(count)
        block = reference_S(self.HELIX, self.F, points, tol=1e-12)
        single = np.array([reference_S(self.HELIX, self.F, p, tol=1e-12) for p in points])
        assert block.shape == (count, 3)
        assert np.array_equal(block, single)

    def test_block_equals_the_one_interval_loop_bit_for_bit(self):
        points = np.concatenate([_near_points(12, seed=9), self.GRID[::9]])
        block = reference_S(self.HELIX, self.F, points, tol=1e-12)
        for got, pt in zip(block, points):
            want, _, ok = _ref_reference_S(self.HELIX, self.F, pt, 1e-12)
            assert ok and np.array_equal(got, want)

    def test_field_test_block_moves_less_than_tol_at_tol_1e14(self):
        # test_point_past_the_end's tol check on every point of the benchmark's 5x5x4 field-test
        points = cli.helix_field_grid(self.HELIX, radial_count=5, angular_count=5, z_count=4)
        got = reference_S(self.HELIX, self.F, points, tol=1e-12)
        tight = reference_S(self.HELIX, self.F, points, tol=1e-14)
        scale = np.maximum(1.0, np.max(np.abs(tight), axis=1))
        assert np.all(np.max(np.abs(got - tight), axis=1) <= 1e-12 * scale)

    def test_points_bisect_in_loops_of_128_under_the_interval_cap(self, monkeypatch):
        loops, calls = [], []

        def recording(integrand, partitions, tol):
            def counted(x, owner):
                calls.append(len(owner))
                return integrand(x, owner)

            loops.append(partitions)
            return bisect(counted, partitions, tol)

        bisect = oracle._bisect
        monkeypatch.setattr(oracle, "_bisect", recording)
        reference_S(self.HELIX, self.F, self.GRID[:33], tol=1e-12)
        assert [len(p) for p in loops] == [33]
        loops.clear()
        calls.clear()
        reference_S(self.HELIX, self.F, self.GRID[:129], tol=1e-12)
        assert [len(p) for p in loops] == [128, 1]
        cap = 2 * oracle._BLOCK
        assert max(calls) <= cap
        # the 128 points' start intervals overflow one call, so they fill full calls first
        start = sum(len(e) - 1 for e in loops[0])
        assert start > cap and calls[: start // cap] == [cap] * (start // cap)

    @pytest.mark.parametrize("offset", [1e-15, 1e-9], ids=["1e-15-off", "1e-9-off"])
    def test_one_bad_point_does_not_stop_the_block(self, monkeypatch, offset):
        # 1e-9 off the centerline cannot be certified at tol 1e-12; a small
        # interval budget makes it run out in a fraction of the full budget's time
        monkeypatch.setattr(oracle, "MAX_INTERVALS", 400)
        s0 = 0.75
        bad = self.HELIX.position(s0) + offset * self.HELIX.second_derivative(s0) / 8.0
        points = np.concatenate([_near_points(5), [bad], self.GRID[:4]])
        with pytest.raises(AccuracyError) as info:
            reference_S(self.HELIX, self.F, points, tol=1e-12)
        with pytest.raises(AccuracyError) as alone:
            reference_S(self.HELIX, self.F, bad, tol=1e-12)
        err = info.value
        assert err.failed.tolist() == [False] * 5 + [True] + [False] * 4
        assert err.best_estimate.shape == (10, 3) and err.error_estimate.shape == (10,)
        assert np.array_equal(err.best_estimate[5], alone.value.best_estimate, equal_nan=True)
        for i in np.flatnonzero(~err.failed):
            assert np.array_equal(err.best_estimate[i], reference_S(self.HELIX, self.F, points[i]))
        assert alone.value.failed is None and np.ndim(alone.value.error_estimate) == 0

    def test_point_on_the_centerline_fails_the_block_before_any_bisection(self, monkeypatch):
        monkeypatch.setattr(oracle, "_bisect", None)  # never reached
        # past the first loop of 128 points, which does not bisect either
        points = np.concatenate([self.GRID[:140], [self.HELIX.position(0.37)], self.GRID[140:]])
        with pytest.raises(ValueError, match="field point 140 lies on the centerline"):
            reference_S(self.HELIX, self.F, points)

    @pytest.mark.parametrize(
        "points",
        [np.ones((4, 2)), np.ones((4, 3, 1)), np.ones(2), np.array([[0.1, 0.2, np.nan]]), np.array([np.inf, 0.0, 0.0]),
         np.ones(3) + 1e-3j, np.ones((2, 3), dtype=complex)],
        # a complex point's imaginary part was dropped with only a ComplexWarning
        ids=["P-2", "P-3-1", "2", "nan", "inf", "complex", "P-complex"],
    )
    def test_rejects_bad_points_up_front(self, points, monkeypatch):
        monkeypatch.setattr(oracle, "_closest_parameters", None)  # never reached
        with pytest.raises(ValueError, match="field points"):
            reference_S(self.HELIX, self.F, points)


class TestConvergenceStudy:
    # the uniform-grid self-convergence study of K against a fine reference
    # discretization, run through the k-convergence command that owns it
    def _study(self, tmp_path, panels, reference, uniform):
        out = tmp_path / "conv.csv"
        argv = ["k-convergence", "--fiber", "helix:8,3,1.5", "--force", "testf"]
        argv += ["--panels", panels, "--reference-panels", str(reference)]
        argv += ["--uniform-count", str(uniform), "--out", str(out)]
        return cli.main(argv), out

    def test_decrease_against_a_finer_reference(self, tmp_path):
        code, out = self._study(tmp_path, "4,8,16,32", 64, 100)
        assert code == cli.EXIT_PASS
        errs = json.loads(out.with_suffix(".json").read_text())["errors"]
        assert errs[0] > errs[1] > errs[2]
        # doubling panels in the pre-asymptotic range gains at least 10x
        assert errs[0] / errs[1] >= 10.0

    @pytest.mark.parametrize("reference", [6, 8])
    def test_requires_a_strictly_finer_reference(self, tmp_path, capsys, reference):
        # at 8, M = 8 would be compared with itself and read e_M = 0 whatever K does
        code, out = self._study(tmp_path, "4,8", reference, 50)
        assert code == cli.EXIT_CONFIG
        assert "--reference-panels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [0, -3])
    def test_requires_a_uniform_point(self, tmp_path, capsys, count):
        code, out = self._study(tmp_path, "4", 8, count)
        assert code == cli.EXIT_CONFIG
        assert "--uniform-count" in capsys.readouterr().err
        assert not out.exists()


def test_oracle_imports_only_the_curve_type_from_the_package():
    # agreement with the oracle is evidence only while it shares no code with
    # the panel quadrature (finitepart, nearsing, quadcore)
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("slenderquad")
        ):
            module = (node.module or "").removeprefix("slenderquad.")
            imported |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.name, "*") for a in node.names if a.name.startswith("slenderquad")}
    assert imported == {("geometry", "FiberCurve")}
