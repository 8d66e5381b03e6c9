import heapq
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import rotation_matrix, segment_stokeslet
from slenderquad import forces, oracle
from slenderquad.finitepart import LineDensity, build_weight_table, eval_K
from slenderquad.geometry import discretize, make_custom, make_helix, make_straight
from slenderquad.oracle import (
    AccuracyError,
    adaptive_integrate,
    convergence_study,
    diagonal_eigenvalues,
    reference_K,
    reference_L,
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
        assert set(sizes) <= {(15,), (30,)}
        bisections = len(pushes) // 2  # each bisection pushes both halves
        assert bisections > 10
        assert len(sizes) == bisections + 1

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

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            adaptive_integrate(lambda s: s, 1.0, 0.0, 1e-10)


class TestDiagonalization:
    def test_eigenvalue_recursion(self):
        lam = diagonal_eigenvalues(6)
        assert lam == pytest.approx(
            [0.0, 2.0, 3.0, 11.0 / 3.0, 25.0 / 6.0, 137.0 / 30.0], abs=1e-14
        )

    def test_scaled_legendre_values(self):
        s = np.array([0.0, 0.5, 1.0])
        assert scaled_legendre(1, s, 1.0) == pytest.approx([-1.0, 0.0, 1.0], abs=0)
        assert scaled_legendre(2, 0.37, 1.0) == pytest.approx(
            (3 * (-0.26) ** 2 - 1) / 2, abs=1e-15
        )


class TestReferenceL:
    def test_second_mode(self):
        f = lambda s: scaled_legendre(2, s, 1.0)
        fp = lambda s: 6.0 * (2.0 * s - 1.0)  # d/ds P2(2s-1)
        got = reference_L(f, fp, 1.0, 0.37, tol=1e-12)
        assert got == pytest.approx(-3.0 * scaled_legendre(2, 0.37, 1.0), abs=1e-11)

    def test_constant(self):
        got = reference_L(lambda s: 4.0, lambda s: 0.0, 1.0, 0.7, tol=1e-12)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_fifth_mode_eigenvalue(self):
        f, fp = forces.legendre_mixture(np.array([0, 0, 0, 0, 0, 1.0]), 1.0)
        got = reference_L(f, fp, 1.0, 0.41, tol=1e-12)
        assert got == pytest.approx(-(137.0 / 30.0) * scaled_legendre(5, 0.41, 1.0), abs=1e-11)

    def test_diagonalization_property(self):
        rng = np.random.default_rng(8)
        lam = diagonal_eigenvalues(11)
        for n in range(11):
            unit = np.zeros(n + 1)
            unit[n] = 1.0
            f, fp = forces.legendre_mixture(unit, 1.0)
            for s_bar in rng.uniform(0.05, 0.95, 2):
                got = reference_L(f, fp, 1.0, s_bar, tol=1e-12)
                assert got == pytest.approx(
                    -lam[n] * scaled_legendre(n, s_bar, 1.0), abs=1e-11
                )

    def test_requires_interior_point(self):
        with pytest.raises(ValueError):
            reference_L(lambda s: s, lambda s: 1.0, 1.0, 0.0)


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
        dens = LineDensity.from_closure(f, pc.grid, derivative=fp)
        for t in (20, 130, 220):
            s_bar = pc.grid.global_nodes[t]
            ref = reference_K(helix, f, fp, s_bar, tol=1e-10)
            assert eval_K(pc, dens, TABLE, t) == pytest.approx(ref, abs=1e-9)

    def test_rotation_invariant_norm(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, fp = forces.testf(1.5)
        rot = rotation_matrix((0.3, -1.0, 0.8), 0.9)
        moved = make_custom(
            lambda s: helix.position(s) @ rot.T,
            lambda s: helix.tangent(s) @ rot.T,
            lambda s: helix.second_derivative(s) @ rot.T,
            1.5,
        )
        s_bar = 0.8
        base = reference_K(helix, f, fp, s_bar, tol=1e-10)
        turned = reference_K(
            moved, lambda s: f(s) @ rot.T, lambda s: fp(s) @ rot.T, s_bar, tol=1e-10
        )
        assert np.linalg.norm(turned) == pytest.approx(np.linalg.norm(base), abs=1e-9)


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


class TestConvergenceStudy:
    def test_self_comparison_and_decrease(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf(1.5)
        study = convergence_study(helix, f, [4, 8, 16, 32], 32, 100, RULE, TABLE)
        errs = study.errors
        assert errs[-1] <= 1e-12  # reference compared with itself
        assert errs[0] > errs[1] > errs[2]
        # doubling panels in the pre-asymptotic range gains at least 10x
        assert errs[0] / errs[1] >= 10.0

    def test_requires_reference_at_least_as_fine(self):
        helix = make_helix(8.0, 3.0, 1.5)
        f, _ = forces.testf(1.5)
        with pytest.raises(ValueError):
            convergence_study(helix, f, [4, 8], 6, 50, RULE, TABLE)
