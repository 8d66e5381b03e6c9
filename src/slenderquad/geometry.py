"""Arclength-parameterized fiber centerlines and their panel discretization."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .quadcore import PanelGrid, QuadratureRule, _store

Curve3 = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FiberCurve:
    """A centerline x(s) on s in [0, length] with |x_s| = 1 everywhere.

    The three closures accept scalar or array arguments and return arrays with
    a trailing coordinate axis of size 3. Every curve is checked where it is
    built, and ValueError is raised for a length that is not positive and
    finite, or for closures that at 13 arclengths in [0.05, 0.95] * length
    return anything but finite (13, 3) arrays, a tangent off unit length by
    more than 1e-10, or x_s . x_ss off zero by more than 1e-10 * max(1, |x_ss|).
    A custom fiber is FiberCurve(length, position, tangent, second_derivative).
    parameters is stored as a read-only copy of the mapping passed in.
    """

    length: float
    position: Curve3
    tangent: Curve3
    second_derivative: Curve3
    kind: str = "custom"
    parameters: Mapping = field(default_factory=dict)

    def __post_init__(self):
        _store(self, parameters=MappingProxyType(dict(self.parameters)))
        if not 0 < self.length < np.inf:  # NaN fails too
            raise ValueError(f"length must be positive and finite, got {self.length}")
        s = np.linspace(0.05, 0.95, 13) * self.length
        samples = [np.asarray(g(s)) for g in (self.position, self.tangent, self.second_derivative)]
        if any(x.shape != (13, 3) or not np.all(np.isfinite(x)) for x in samples):
            raise ValueError("curve closures must return finite (n, 3) arrays")
        _, ts, xss = samples
        # written as `not err <= tol` so that NaN fails too
        if not np.max(np.abs(np.linalg.norm(ts, axis=-1) - 1.0)) <= 1e-10:
            raise ValueError("curve is not arclength-parameterized")
        scale = max(1.0, float(np.max(np.linalg.norm(xss, axis=-1))))
        if not np.max(np.abs(np.sum(ts * xss, axis=-1))) <= 1e-10 * scale:
            raise ValueError("curve has x_s . x_ss != 0")

    def __reduce__(self):  # copies rebuild and re-check the curve; parameters stay read-only
        fields = self.position, self.tangent, self.second_derivative, self.kind
        return FiberCurve, (self.length, *fields, dict(self.parameters))


@dataclass(frozen=True, eq=False)
class PanelizedCurve:
    """A fiber sampled on a panel grid; curves compare by identity.

    positions, tangents and second_derivs are the (N, 3) samples at the grid's
    nodes. They are checked (real, shape, finite values) and copied where the curve is
    built, and the rest is derived from them there. panel_coeffs[m, c] holds the Legendre
    coefficients of coordinate c of the position over panel m, in the local
    variable eta in [-1, 1]. coords is a contiguous (3, N) copy of positions,
    for the component-major K rows. chord_starts (M, 3) and chords (M, 3)
    hold each panel's expansion at eta = -1 and its change up to eta = 1,
    and chord_lengths (M,) the chords' lengths, for the near field's
    half-chord filter. Every array is read-only.
    """

    grid: PanelGrid
    positions: np.ndarray = field(repr=False)
    tangents: np.ndarray = field(repr=False)
    second_derivs: np.ndarray = field(repr=False)
    panel_coeffs: np.ndarray = field(init=False, repr=False)
    coords: np.ndarray = field(init=False, repr=False)
    chord_starts: np.ndarray = field(init=False, repr=False)
    chords: np.ndarray = field(init=False, repr=False)
    chord_lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = self.grid
        given = (self.positions, self.tangents, self.second_derivs)
        if any(np.iscomplexobj(x) for x in given):
            raise ValueError("curve positions, tangents and second derivatives must be real")
        positions, tangents, second = (np.array(x, dtype=float) for x in given)
        if not positions.shape == tangents.shape == second.shape == (grid.node_count, 3):
            got = ", ".join(str(np.shape(x)) for x in given)
            raise ValueError(f"curve samples must have shape ({grid.node_count}, 3), got {got}")
        if not all(np.isfinite(x).all() for x in (positions, tangents, second)):
            raise ValueError("curve positions, tangents and second derivatives must be finite")
        per_panel = positions.reshape(grid.panel_count, grid.rule.order, 3)
        coeffs = np.einsum("kl,mlc->mck", grid.rule.transform, per_panel)
        _store(self, positions=positions, tangents=tangents, second_derivs=second)
        _store(self, panel_coeffs=coeffs, coords=np.ascontiguousarray(positions.T))
        starts = coeffs @ (-1.0) ** np.arange(grid.rule.order)
        chords = coeffs.sum(axis=2) - starts
        lengths = np.sqrt(np.einsum("mc,mc->m", chords, chords))
        _store(self, chord_starts=starts, chords=chords, chord_lengths=lengths)

    def __reduce__(self):  # copies and pickles rebuild the curve from its samples
        return PanelizedCurve, (self.grid, self.positions, self.tangents, self.second_derivs)


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


def discretize(curve: FiberCurve, panel_count: int, rule: QuadratureRule) -> PanelizedCurve:
    """Sample a fiber on a panel grid and fit per-panel position expansions."""
    grid = PanelGrid(curve.length, panel_count, rule)
    s = grid.global_nodes
    return PanelizedCurve(grid, curve.position(s), curve.tangent(s), curve.second_derivative(s))
