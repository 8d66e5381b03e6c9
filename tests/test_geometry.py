import copy
import dataclasses

import numpy as np
import pytest

from helpers import COPIES
from slenderquad.geometry import FiberCurve, PanelizedCurve, discretize, make_helix, make_straight
from slenderquad.quadcore import PanelGrid, QuadratureRule, gauss_legendre, legendre_eval

HELIX = make_helix(8.0, 3.0, 1.5)


class TestFiberCurve:
    def test_rejects_nan_length(self):
        helix = make_helix(8.0, 3.0, 1.5)
        with pytest.raises(ValueError, match="length must be positive and finite, got nan"):
            FiberCurve(
                kind="custom",
                length=float("nan"),
                position=helix.position,
                tangent=helix.tangent,
                second_derivative=helix.second_derivative,
                parameters={},
            )

    @pytest.mark.parametrize("length", [np.inf, np.nan])
    def test_nonfinite_length(self, length):
        helix = make_helix(2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            FiberCurve(length, helix.position, helix.tangent, helix.second_derivative)

    def test_accepts_arclength_closures_as_custom(self):
        helix = make_helix(2.0, 1.0, 1.0)
        custom = FiberCurve(1.0, helix.position, helix.tangent, helix.second_derivative)
        assert custom.kind == "custom"
        assert custom.parameters == {}

    def test_rejects_non_arclength(self):
        def position(s):
            s = np.asarray(s, dtype=float)
            return np.stack([s**2, np.zeros_like(s), np.zeros_like(s)], axis=-1)

        def tangent(s):
            s = np.asarray(s, dtype=float)
            return np.stack([2 * s, np.zeros_like(s), np.zeros_like(s)], axis=-1)

        def second(s):
            s = np.asarray(s, dtype=float)
            return np.stack([2 * np.ones_like(s), np.zeros_like(s), np.zeros_like(s)], axis=-1)

        with pytest.raises(ValueError, match="not arclength-parameterized"):
            FiberCurve(1.0, position, tangent, second)

    @pytest.mark.parametrize(
        "length, position, tangent, second, match",
        [
            # the helix traced at twice the speed, |x_s| = 2: K would come back finite and wrong
            (
                0.75,
                lambda s: HELIX.position(2.0 * np.asarray(s)),
                lambda s: 2.0 * HELIX.tangent(2.0 * np.asarray(s)),
                lambda s: 4.0 * HELIX.second_derivative(2.0 * np.asarray(s)),
                "not arclength-parameterized",
            ),
            (1.5, HELIX.position, HELIX.tangent, HELIX.tangent, "x_s . x_ss"),
            (1.5, HELIX.position, lambda s: np.nan * HELIX.tangent(s), HELIX.second_derivative,
             "finite"),
            (1.5, lambda s: HELIX.position(s).T, HELIX.tangent, HELIX.second_derivative,
             r"\(n, 3\)"),
        ],
        ids=["double-speed", "x_ss-along-x_s", "nan-tangent", "coordinate-major-position"],
    )  # fmt: skip
    def test_rejects_bad_closures(self, length, position, tangent, second, match):
        with pytest.raises(ValueError, match=match):
            FiberCurve(length, position, tangent, second)

    def test_orthogonality_bound_is_relative_to_curvature(self):
        # x_s . x_ss reads ~1e-10 here in floating point, against |x_ss| = 2e6
        helix = make_helix(2e6, 1.0, 1e-5)
        assert helix.kind == "helix"

    def test_replace_rechecks(self):
        with pytest.raises(ValueError, match="not arclength-parameterized"):
            dataclasses.replace(HELIX, tangent=lambda s: 2.0 * HELIX.tangent(s))

    def test_parameters_are_a_read_only_copy(self):
        helix = make_helix(8.0, 3.0, 1.5)
        with pytest.raises(TypeError):
            helix.parameters["radius"] = 99.0  # would move every field-test point
        assert dataclasses.replace(helix, position=helix.position).parameters == helix.parameters
        given = {"label": 1}
        custom = FiberCurve(
            1.5, HELIX.position, HELIX.tangent, HELIX.second_derivative, parameters=given
        )
        given["label"] = 2
        assert custom.parameters == {"label": 1}
        # a deep copy rebuilds the curve, so its parameters are read-only too
        copied = copy.deepcopy(helix)
        assert copied.kind == "helix" and copied.parameters == helix.parameters
        with pytest.raises(TypeError):
            copied.parameters["radius"] = 99.0


class TestMakeHelix:
    def test_study_helix_parameters(self):
        helix = make_helix(8.0, 3.0, 1.5)
        assert helix.parameters == {
            "curvature": 8.0,
            "torsion": 3.0,
            "radius": 8.0 / 73.0,
            "pitch": 2.0 * np.pi * 3.0 / 73.0,
        }
        s = np.linspace(0.0, 1.5, 50)
        pos = helix.position(s)
        # one turn, arclength 2 pi / sqrt(kappa^2 + tau^2), rises by the pitch
        turn = helix.position(s + 2.0 * np.pi / np.sqrt(73.0)) - pos
        assert turn[:, 2] == pytest.approx(np.full(50, helix.parameters["pitch"]), abs=1e-14)
        # projects onto the circle of radius kappa/(kappa^2 + tau^2)
        assert np.hypot(pos[:, 0], pos[:, 1]) == pytest.approx(np.full(50, 8.0 / 73.0), abs=1e-15)
        assert np.linalg.norm(helix.tangent(s), axis=-1) == pytest.approx(
            np.ones(50), abs=1e-13
        )
        assert np.linalg.norm(helix.second_derivative(s), axis=-1) == pytest.approx(
            np.full(50, 8.0), abs=1e-12
        )

    def test_zero_torsion_is_circle(self):
        circle = make_helix(1.0, 0.0, np.pi)
        s = np.linspace(0.0, np.pi, 20)
        pos = circle.position(s)
        assert np.hypot(pos[:, 0], pos[:, 1]) == pytest.approx(np.ones(20), abs=1e-15)
        assert pos[:, 2] == pytest.approx(np.zeros(20), abs=0)
        ends = circle.position(np.array([0.0, np.pi]))
        # half the circumference of the unit circle
        assert np.linalg.norm(ends[1] - ends[0]) == pytest.approx(2.0, abs=1e-12)

    def test_tangent_curvature_orthogonality(self):
        helix = make_helix(8.0, 3.0, 1.5)
        rng = np.random.default_rng(1)
        s = rng.uniform(0.0, 1.5, 50)
        dots = np.sum(helix.tangent(s) * helix.second_derivative(s), axis=-1)
        assert np.max(np.abs(dots)) <= 1e-14

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_helix(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_helix(-2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_helix(1.0, 1.0, 0.0)
        for args, match in (
            ((np.inf, 3.0, 1.5), "curvature"),
            ((8.0, np.nan, 1.5), "torsion"),
            ((8.0, np.inf, 1.5), "torsion"),
            ((8.0, 3.0, np.inf), "length"),
            ((8.0, 3.0, np.nan), "length"),
        ):
            with pytest.raises(ValueError, match=match):
                make_helix(*args)


class TestMakeStraight:
    def test_positions(self):
        fiber = make_straight((1.0, 0.0, 0.0), 1.0)
        assert fiber.position(0.3) == pytest.approx([0.3, 0.0, 0.0], abs=0)

    def test_derivatives(self):
        fiber = make_straight((0.0, 1.0, 0.0), 2.0)
        s = np.linspace(0.0, 2.0, 9)
        assert np.max(np.abs(fiber.second_derivative(s))) == 0.0
        assert fiber.tangent(s) == pytest.approx(
            np.broadcast_to([0.0, 1.0, 0.0], (9, 3)), abs=0
        )

    def test_non_unit_direction(self):
        with pytest.raises(ValueError):
            make_straight((1.0, 1.0, 0.0), 1.0)

    @pytest.mark.parametrize("length", [np.inf, np.nan])
    def test_nonfinite_length(self, length):
        with pytest.raises(ValueError, match="positive and finite"):
            make_straight((1.0, 0.0, 0.0), length)

    @pytest.mark.parametrize("direction", [(np.nan, 0.0, 0.0), (0.0, 0.0, 0.0)])
    def test_nan_or_zero_direction(self, direction):
        with pytest.raises(ValueError, match="unit 3-vector"):
            make_straight(direction, 1.0)


class TestDerivativeConsistency:
    @pytest.mark.parametrize(
        "curve",
        [make_helix(8.0, 3.0, 1.5), make_helix(1.0, 0.0, 2.0), make_straight((0, 0, 1.0), 1.0)],
        ids=["helix", "circle", "straight"],
    )
    def test_central_differences(self, curve):
        rng = np.random.default_rng(7)
        s = rng.uniform(0.05, 0.95, 20) * curve.length
        h = 1e-5
        fd_tangent = (curve.position(s + h) - curve.position(s - h)) / (2 * h)
        assert np.max(np.abs(fd_tangent - curve.tangent(s))) <= 1e-8
        fd_second = (
            curve.position(s + h) - 2 * curve.position(s) + curve.position(s - h)
        ) / h**2
        assert np.max(np.abs(fd_second - curve.second_derivative(s))) <= 1e-4


class TestDiscretize:
    def setup_method(self):
        self.rule = gauss_legendre(16)

    def test_straight_coeffs_are_linear(self):
        fiber = make_straight((1.0, 0.0, 0.0), 1.0)
        pc = discretize(fiber, 3, self.rule)
        tail = pc.panel_coeffs[:, :, 2:]
        assert np.max(np.abs(tail)) <= 1e-14

    def test_helix_reconstruction_off_nodes(self):
        helix = make_helix(8.0, 3.0, 1.5)
        pc = discretize(helix, 8, self.rule)
        worst = 0.0
        for m in range(8):
            lo = m * pc.grid.panel_width
            for eta in (-0.55, 0.1, 0.72):
                s = lo + 0.5 * pc.grid.panel_width * (eta + 1.0)
                exact = helix.position(s)
                got = [legendre_eval(pc.panel_coeffs[m, c], eta) for c in range(3)]
                worst = max(worst, np.max(np.abs(np.asarray(got) - exact)))
        assert worst <= 1e-10

    def test_tangent_norms(self):
        helix = make_helix(8.0, 3.0, 1.5)
        pc = discretize(helix, 8, self.rule)
        assert np.linalg.norm(pc.tangents, axis=1) == pytest.approx(
            np.ones(pc.grid.node_count), abs=1e-13
        )

    def test_deterministic(self):
        helix = make_helix(8.0, 3.0, 1.5)
        a = discretize(helix, 4, self.rule)
        b = discretize(helix, 4, self.rule)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.panel_coeffs, b.panel_coeffs)
        assert np.array_equal(a.grid.global_nodes, b.grid.global_nodes)


class TestPanelizedCurve:
    GRID = PanelGrid(1.5, 2, gauss_legendre(4))

    def samples(self):
        s = self.GRID.global_nodes
        return [HELIX.position(s), HELIX.tangent(s), HELIX.second_derivative(s)]

    def test_samples_are_copied(self):
        samples = self.samples()
        curve = PanelizedCurve(self.GRID, *samples)
        for given, stored in zip(samples, (curve.positions, curve.tangents, curve.second_derivs)):
            assert given.flags.writeable and stored is not given
            given[:] = 0.0
        assert np.array_equal(curve.positions, self.samples()[0])

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["positions", "tangents", "second_derivs"])
    @pytest.mark.parametrize("cut", ["node-short", "coordinate-major"])
    def test_rejects_samples_off_the_grid(self, which, cut):
        samples = self.samples()
        samples[which] = samples[which][:-1] if cut == "node-short" else samples[which].T
        with pytest.raises(ValueError, match=r"shape \(8, 3\)"):
            PanelizedCurve(self.GRID, *samples)

    @pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES)
    @pytest.mark.parametrize(
        "name", ["positions", "tangents", "second_derivs", "panel_coeffs", "coords"]
    )
    def test_arrays_are_read_only(self, name, duplicate):
        curve = discretize(HELIX, 2, gauss_legendre(4))
        same = duplicate(curve)
        assert same.grid == curve.grid
        array = getattr(same, name)
        assert np.array_equal(array, getattr(curve, name))
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0

    def test_curves_compare_by_identity(self):
        curve = discretize(HELIX, 2, gauss_legendre(4))
        assert curve == curve and curve != discretize(HELIX, 2, gauss_legendre(4))
        assert len({curve, curve}) == 1

    def test_a_foreign_rule_leaves_discretize_unchanged(self):
        # with the transform cached by order alone, this one foreign rule shifted
        # every later order-16 discretization by up to 0.80
        before = discretize(HELIX, 8, gauss_legendre(16))
        with pytest.raises(TypeError):
            QuadratureRule(16, np.linspace(-0.99, 0.99, 16), np.full(16, 0.125))
        after = discretize(HELIX, 8, gauss_legendre(16))
        assert after.panel_coeffs.tobytes() == before.panel_coeffs.tobytes()
