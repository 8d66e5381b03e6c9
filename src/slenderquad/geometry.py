"""Arclength-parameterized fiber centerlines and their panel discretization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadcore import PanelGrid, QuadratureRule, legendre_transform_matrix, panelize

Curve3 = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FiberCurve:
    """A centerline x(s) on s in [0, length] with |x_s| = 1 everywhere.

    The three closures accept scalar or array arguments and return arrays with
    a trailing coordinate axis of size 3. A length that is not positive and
    finite raises ValueError.
    """

    kind: str
    length: float
    position: Curve3
    tangent: Curve3
    second_derivative: Curve3
    parameters: dict

    def __post_init__(self):
        if not 0 < self.length < np.inf:  # NaN fails too
            raise ValueError(f"length must be positive and finite, got {self.length}")


@dataclass(frozen=True)
class PanelizedCurve:
    """A fiber sampled on a panel grid.

    panel_coeffs[m, c] holds the Legendre coefficients of coordinate c of the
    position over panel m, in the local variable eta in [-1, 1]. coords is a
    contiguous (3, N) copy of positions, for the component-major K rows.
    """

    grid: PanelGrid
    positions: np.ndarray
    tangents: np.ndarray
    second_derivs: np.ndarray
    panel_coeffs: np.ndarray
    coords: np.ndarray


def make_helix(curvature: float, torsion: float, length: float) -> FiberCurve:
    """Circular helix with the given constant curvature and torsion.

    Uses the standard representation x(s) = (a cos(s/c), a sin(s/c), b s/c)
    with a = kappa/(kappa^2+tau^2), b = tau/(kappa^2+tau^2) and
    c = 1/sqrt(kappa^2+tau^2), which is arclength-parameterized exactly.
    Torsion zero degenerates to a circle of radius 1/kappa. parameters carry
    the radius a of the projected circle and the pitch.
    """
    if not 0 < curvature < np.inf:
        raise ValueError(f"curvature must be positive and finite, got {curvature}")
    if not np.isfinite(torsion):
        raise ValueError(f"torsion must be finite, got {torsion}")
    k2t2 = curvature**2 + torsion**2
    a = curvature / k2t2
    b = torsion / k2t2
    c = 1.0 / np.sqrt(k2t2)
    pitch = 2.0 * np.pi * torsion / k2t2  # rise per turn, 2 pi b

    def position(s):
        phi = np.asarray(s) / c
        return np.stack([a * np.cos(phi), a * np.sin(phi), b * phi], axis=-1)

    def tangent(s):
        phi = np.asarray(s) / c
        return np.stack(
            [-(a / c) * np.sin(phi), (a / c) * np.cos(phi), np.full_like(phi, b / c)],
            axis=-1,
        )

    def second_derivative(s):
        phi = np.asarray(s) / c
        return np.stack(
            [-(a / c**2) * np.cos(phi), -(a / c**2) * np.sin(phi), np.zeros_like(phi)],
            axis=-1,
        )

    return FiberCurve(
        kind="helix",
        length=float(length),
        position=position,
        tangent=tangent,
        second_derivative=second_derivative,
        parameters={"curvature": curvature, "torsion": torsion, "radius": a, "pitch": pitch},
    )


def make_straight(direction, length: float) -> FiberCurve:
    """Straight fiber x(s) = s * direction for a unit direction vector."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,) or not abs(np.linalg.norm(d) - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("direction must be a unit 3-vector")

    def position(s):
        return np.multiply.outer(np.asarray(s, dtype=float), d)

    def tangent(s):
        return np.broadcast_to(d, np.shape(s) + (3,)).copy()

    def second_derivative(s):
        return np.zeros(np.shape(s) + (3,))

    return FiberCurve(
        kind="straight",
        length=float(length),
        position=position,
        tangent=tangent,
        second_derivative=second_derivative,
        parameters={"direction": tuple(d)},
    )


def make_custom(
    position: Curve3, tangent: Curve3, second_derivative: Curve3, length: float
) -> FiberCurve:
    """Wrap user closures as a fiber that must be arclength-parameterized.

    Unit tangents and tangent-curvature orthogonality are checked at 13
    arclengths; a curve failing either check raises ValueError.
    """
    curve = FiberCurve(
        kind="custom",
        length=float(length),
        position=position,
        tangent=tangent,
        second_derivative=second_derivative,
        parameters={},
    )
    s = np.linspace(0.05, 0.95, 13) * length
    ts = curve.tangent(s)
    xss = curve.second_derivative(s)
    if np.max(np.abs(np.linalg.norm(ts, axis=-1) - 1.0)) > 1e-10:
        raise ValueError("custom curve is not arclength-parameterized")
    if np.max(np.abs(np.sum(ts * xss, axis=-1))) > 1e-10:
        raise ValueError("custom curve has x_s . x_ss != 0")
    return curve


def discretize(curve: FiberCurve, panel_count: int, rule: QuadratureRule) -> PanelizedCurve:
    """Sample a fiber on a panel grid and fit per-panel position expansions."""
    grid = panelize(curve.length, panel_count, rule)
    s = grid.global_nodes
    positions = curve.position(s)
    tangents = curve.tangent(s)
    second = curve.second_derivative(s)

    transform = legendre_transform_matrix(rule)
    n = rule.order
    per_panel = positions.reshape(panel_count, n, 3)
    coeffs = np.einsum("kl,mlc->mck", transform, per_panel)
    return PanelizedCurve(
        grid=grid,
        positions=positions,
        tangents=tangents,
        second_derivs=second,
        panel_coeffs=coeffs,
        coords=np.ascontiguousarray(positions.T),
    )
