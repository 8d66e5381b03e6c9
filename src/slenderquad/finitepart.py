"""Finite-part operators on the fiber centerline.

The non-local operator K and its scalar model L are integrals of a smooth
factor against the sign kernel (s - sbar)/|s - sbar|. On the panel holding
the collocation point the integral is done by product integration: the smooth
factor is interpolated by a polynomial whose sign-kernel moments are known in
closed form, which collapses to a plain weighted sum with precomputed,
target-specific weights. All other panels see a smooth integrand and use the
regular Gauss-Legendre weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import FiberCurve, PanelizedCurve
from .quadcore import (
    PanelGrid,
    QuadratureRule,
    legendre_deriv_coeffs,
    legendre_eval,
    legendre_transform_matrix,
    solve_vandermonde_transpose,
)

LOCAL_VARIANTS = ("matrix", "projector")


@dataclass(frozen=True)
class SlenderParams:
    """Slenderness ratio and viscosity entering the local operator."""

    epsilon: float
    mu: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not self.mu > 0:
            raise ValueError(f"viscosity must be positive, got {self.mu}")

    @property
    def c(self) -> float:
        """log(epsilon^2 e), negative for epsilon < e^{-1/2}."""
        return 2.0 * np.log(self.epsilon) + 1.0


@dataclass(frozen=True)
class ModifiedWeightTable:
    """Target-specific sign-kernel weights for one reference panel.

    weights[l, k] multiplies the sample at node k when the collocation point
    sits at node l of the same panel. Row l reproduces the sign-kernel moments
    q_k(eta_l) exactly on monomial samples up to the rule order.
    """

    order: int
    weights: np.ndarray


@dataclass(frozen=True)
class LineDensity:
    """Force-per-length samples at all grid nodes, optionally with closures.

    samples has shape (N,) for scalar densities or (N, 3) for vector ones.
    When an analytic closure and derivative are attached they are preferred
    over spectral differentiation of the node samples.
    """

    samples: np.ndarray
    closure: Callable | None = None
    derivative: Callable | None = None

    @classmethod
    def from_closure(cls, f: Callable, grid: PanelGrid, derivative: Callable | None = None):
        return cls(samples=np.asarray(f(grid.global_nodes)), closure=f, derivative=derivative)

    @property
    def is_vector(self) -> bool:
        return self.samples.ndim > 1


def qk_signkernel(k: int, eta_bar: float) -> float:
    """Moment of eta^k against the sign kernel over [-1, 1].

    Closed form (1 + (-1)^{k+1} - 2*eta_bar^{k+1})/(k+1).
    """
    if not 0 <= k <= 63:
        raise ValueError(f"k must be in [0, 63], got {k}")
    if not -1.0 <= eta_bar <= 1.0:
        raise ValueError(f"eta_bar must lie in [-1, 1], got {eta_bar}")
    return (1.0 + (-1.0) ** (k + 1) - 2.0 * eta_bar ** (k + 1)) / (k + 1)


def build_weight_table(rule: QuadratureRule) -> ModifiedWeightTable:
    """Solve the transposed monomial Vandermonde systems for every node target.

    One solve per collocation node of a reference panel; the same table serves
    every panel of every grid built with this rule.
    """
    n = rule.order
    table = np.empty((n, n))
    for ell in range(n):
        q = np.array([qk_signkernel(k, rule.nodes[ell]) for k in range(n)])
        table[ell] = solve_vandermonde_transpose(rule.nodes, q)
    return ModifiedWeightTable(order=n, weights=table)


def g_limit(tangent, second_deriv, f_value, f_deriv) -> np.ndarray:
    """Limit of the regularized K integrand factor as s -> sbar."""
    xs = np.asarray(tangent, dtype=float)
    xss = np.asarray(second_deriv, dtype=float)
    fv = np.asarray(f_value, dtype=float)
    fd = np.asarray(f_deriv, dtype=float)
    sym = 0.5 * (np.outer(xs, xss) + np.outer(xss, xs))
    return sym @ fv + fd + xs * (xs @ fd)


def g_pair(curve: FiberCurve, f: Callable, fprime: Callable, s, s_bar: float) -> np.ndarray:
    """Regularized K integrand factor between arclengths s and s_bar, from closures.

    s is a scalar, giving shape (3,), or a 1-D array, giving one row per entry;
    entries equal to s_bar take the analytic limit. Used by reference
    computations and limit tests; the Nystrom evaluation path uses node
    samples instead (see _g_row).
    """
    s_in = np.asarray(s, dtype=float)
    s_arr = np.atleast_1d(s_in)
    xs = np.asarray(curve.tangent(s_bar), dtype=float)
    fbar = np.asarray(f(s_bar), dtype=float)
    ds = s_arr - s_bar
    on_bar = ds == 0.0
    r = np.asarray(curve.position(s_arr), dtype=float) - np.asarray(
        curve.position(s_bar), dtype=float
    )
    rnorm = np.sqrt(np.einsum("nc,nc->n", r, r))
    rnorm[on_bar] = 1.0
    rhat = r / rnorm[:, None]
    fv = np.broadcast_to(np.asarray(f(s_arr), dtype=float), r.shape)
    # |s - sbar|/|R| as one ratio before multiplying, to limit cancellation
    ratio = np.abs(ds) / rnorm
    near = (fv + rhat * np.einsum("nc,nc->n", rhat, fv)[:, None]) * ratio[:, None]
    far = fbar + xs * (xs @ fbar)
    out = (near - far) / np.where(on_bar, 1.0, ds)[:, None]
    if on_bar.any():
        out[on_bar] = g_limit(xs, curve.second_derivative(s_bar), fbar, fprime(s_bar))
    return out if s_in.ndim else out[0]


def _density_derivative_at(grid: PanelGrid, f: LineDensity, target_index: int):
    """f'(sbar) at a node, scalar or (3,): the analytic closure if attached,
    else the spectral derivative of the self-panel Legendre interpolant."""
    if f.derivative is not None:
        return np.asarray(f.derivative(grid.global_nodes[target_index]), dtype=float)
    m, ell = grid.panel_of_target(target_index)
    samples = np.asarray(f.samples, dtype=float).reshape(grid.node_count, -1)
    coeffs = legendre_transform_matrix(grid.rule) @ samples[grid.panel_slice(m)]
    eta = grid.rule.nodes[ell]
    vals = np.array(
        [legendre_eval(legendre_deriv_coeffs(coeffs[:, c]), eta) for c in range(samples.shape[1])]
    )
    out = vals * (2.0 / grid.panel_width)  # d/ds from d/deta
    return out if f.is_vector else out[0]


def _g_row(curve: PanelizedCurve, f: LineDensity, target_index: int) -> np.ndarray:
    """g(s_j, sbar) for all source nodes j against one collocation node."""
    grid = curve.grid
    s = grid.global_nodes
    t = target_index
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
    rows[t] = g_limit(
        xs, curve.second_derivs[t], fv[t], _density_derivative_at(grid, f, target_index)
    )
    return rows


def _effective_weights(grid: PanelGrid, table: ModifiedWeightTable, target_index: int) -> np.ndarray:
    """Per-node quadrature weights for a sign-kernel integral collocated at a node.

    Off-target panels carry the regular weights times the constant kernel sign;
    the target's panel row comes from the modified table, scaled by ds/2.
    """
    s = grid.global_nodes
    w = grid.global_weights * np.sign(s - s[target_index])
    m, ell = grid.panel_of_target(target_index)
    w[grid.panel_slice(m)] = 0.5 * grid.panel_width * table.weights[ell]
    return w


def eval_L(f: LineDensity, grid: PanelGrid, table: ModifiedWeightTable, target_index: int) -> float:
    """Scalar finite-part operator at one collocation node."""
    if f.is_vector:
        raise ValueError("eval_L expects a scalar density")
    s = grid.global_nodes
    t = target_index
    fv = np.asarray(f.samples, dtype=float)
    ds = s - s[t]
    ds[t] = 1.0
    phi = (fv - fv[t]) / ds
    phi[t] = _density_derivative_at(grid, f, t)
    return float(_effective_weights(grid, table, t) @ phi)


def eval_K(
    curve: PanelizedCurve, f: LineDensity, table: ModifiedWeightTable, target_index: int
) -> np.ndarray:
    """Non-local operator K at one collocation node."""
    w = _effective_weights(curve.grid, table, target_index)
    return w @ _g_row(curve, f, target_index)


def eval_K_all(curve: PanelizedCurve, f: LineDensity, table: ModifiedWeightTable) -> np.ndarray:
    """K at every collocation node, shape (N, 3)."""
    out = np.empty((curve.grid.node_count, 3))
    for t in range(curve.grid.node_count):
        out[t] = eval_K(curve, f, table, t)
    return out


def eval_Lambda(
    curve: PanelizedCurve,
    f: LineDensity,
    params: SlenderParams,
    target_index: int,
    variant: str = "matrix",
) -> np.ndarray:
    """Local slender-body operator at one node.

    variant selects how the non-logarithmic term acts on the density:
    "matrix" applies 2I - ss, "projector" applies 2(I - ss). The two differ
    only in the tangential eigenvalue.
    """
    if variant not in LOCAL_VARIANTS:
        raise ValueError(f"variant must be one of {LOCAL_VARIANTS}")
    c = params.c
    if not c < 0:
        raise ValueError(f"epsilon = {params.epsilon} gives c = {c} >= 0; require epsilon < e^-0.5")
    fv = np.asarray(f.samples, dtype=float)[target_index]
    xs = curve.tangents[target_index]
    along = xs * (xs @ fv)
    if variant == "matrix":
        return -c * (fv + along) + 2.0 * fv - along
    return -c * (fv + along) + 2.0 * (fv - along)


def centerline_velocity(
    curve: PanelizedCurve,
    f: LineDensity,
    params: SlenderParams,
    background: Callable,
    table: ModifiedWeightTable,
    variant: str = "matrix",
) -> np.ndarray:
    """Fiber velocity at every node: u_inf - (Lambda[f] + K[f]) / (8 pi mu)."""
    n = curve.grid.node_count
    out = np.empty((n, 3))
    scale = 1.0 / (8.0 * np.pi * params.mu)
    for t in range(n):
        lam = eval_Lambda(curve, f, params, t, variant=variant)
        k = eval_K(curve, f, table, t)
        out[t] = np.asarray(background(curve.positions[t]), dtype=float) - scale * (lam + k)
    return out
