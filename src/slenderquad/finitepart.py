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

from .geometry import PanelizedCurve
from .quadcore import (MAX_ORDER, PanelGrid, QuadratureRule, _derivative_matrix, _rowdot, _store,
                       legendre_eval, legendre_transform_matrix, solve_vandermonde_transpose)

MAX_TABLE_ORDER = 32  # above it the monomial table's rounding reaches K and L

@dataclass(frozen=True)
class SlenderParams:
    """Slenderness ratio and viscosity entering the local operator."""

    epsilon: float
    mu: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.c < 0:
            raise ValueError(
                f"epsilon = {self.epsilon} gives c = {self.c} >= 0; require epsilon < e^-0.5"
            )
        if not 0 < self.mu < np.inf:  # NaN fails too
            raise ValueError(f"viscosity must be positive, got {self.mu}")

    @property
    def c(self) -> float:
        """log(epsilon^2 e), negative because epsilon < e^{-1/2}."""
        return 2.0 * np.log(self.epsilon) + 1.0


@dataclass(frozen=True, eq=False)
class LineDensity:
    """Force-per-length samples at all grid nodes, optionally with a derivative closure.

    samples has shape (N,) for scalar densities or (N, 3) for vector ones; a
    closure f gives LineDensity(f(grid.global_nodes)). They are checked to be real and
    stored as a read-only float copy where the density is built, not per K row; densities
    compare by identity. K and L read f' only at the collocation node, through the
    weight table's diagonal, whose exact value is zero. An attached derivative
    replaces the samples' spectral one there, which changes no accepted result's accuracy.
    """

    samples: np.ndarray
    derivative: Callable | None = None

    def __post_init__(self):
        if np.iscomplexobj(self.samples):
            raise ValueError("density samples must be real, got a complex array")
        _store(self, samples=np.array(self.samples, dtype=float))

    def __reduce__(self):  # copies and pickles rebuild the density, read-only samples and all
        return LineDensity, (self.samples, self.derivative)

    def checked_samples(self, shape: tuple) -> np.ndarray:
        """The samples, after checking that they have the given shape."""
        if self.samples.shape != shape:
            raise ValueError(f"density samples must have shape {shape}, got {self.samples.shape}")
        return self.samples


def qk_signkernel(k: int, eta_bar: float) -> float:
    """Moment of eta^k against the sign kernel over [-1, 1].

    Closed form (1 + (-1)^{k+1} - 2*eta_bar^{k+1})/(k+1).
    """
    if not 0 <= k < MAX_ORDER:
        raise ValueError(f"k must be in [0, {MAX_ORDER - 1}], got {k}")
    if not -1.0 <= eta_bar <= 1.0:
        raise ValueError(f"eta_bar must lie in [-1, 1], got {eta_bar}")
    return (1.0 + (-1.0) ** (k + 1) - 2.0 * eta_bar ** (k + 1)) / (k + 1)


def build_weight_table(rule: QuadratureRule) -> np.ndarray:
    """Sign-kernel weights for one reference panel, a read-only (n, n) array.

    Entry [l, k] weights the sample at node k when the collocation point sits
    at node l; row l is one transposed monomial Vandermonde solve for the
    moments q_k(eta_l). The table serves every panel of every grid of this rule.
    Orders above MAX_TABLE_ORDER raise ValueError.
    """
    n = rule.order
    if n > MAX_TABLE_ORDER:
        raise ValueError(f"weight table supports rule orders up to {MAX_TABLE_ORDER}, got {n}; "
                         "ROADMAP item 3's exact Legendre table lifts the limit")
    table = np.empty((n, n))
    for ell in range(n):
        q = np.array([qk_signkernel(k, rule.nodes[ell]) for k in range(n)])
        table[ell] = solve_vandermonde_transpose(rule.nodes, q)
    table.flags.writeable = False
    return table


def g_limit(tangent, second_deriv, f_value, f_deriv) -> np.ndarray:
    """Limit of the regularized K integrand factor as s -> sbar."""
    vecs = (tangent, second_deriv, f_value, f_deriv)
    xs, xss, fv, fd = [np.asarray(v, dtype=float).tolist() for v in vecs]  # Python floats
    # sym(xs xss^T) fv without forming the two outer products
    a, b, c = [u[0] * v[0] + u[1] * v[1] + u[2] * v[2] for u, v in ((xss, fv), (xs, fv), (xs, fd))]
    return np.array([0.5 * (x * a + y * b) + d + x * c for x, y, d in zip(xs, xss, fd)])


def _density_derivative_at(grid: PanelGrid, f: LineDensity, samples: np.ndarray, t: int):
    """f'(sbar) at a checked node, scalar or (3,): the analytic closure if attached, else
    the spectral derivative of the self-panel Legendre interpolant of the checked samples."""
    if f.derivative is not None:
        return np.asarray(f.derivative(grid.global_nodes[t]), dtype=float)
    m, ell = divmod(t, grid.rule.order)
    values = samples.reshape(grid.node_count, -1)[grid.panel_slice(m)]
    coeffs = _derivative_matrix(grid.rule.order) @ (legendre_transform_matrix(grid.rule) @ values)
    eta = grid.rule.nodes[ell]
    vals = np.array([legendre_eval(coeffs[:, c], eta) for c in range(coeffs.shape[1])])
    out = vals * (2.0 / grid.panel_width)  # d/ds from d/deta
    return out if samples.ndim > 1 else out[0]


def _g_row(curve: PanelizedCurve, f: LineDensity, samples: np.ndarray, t: int) -> np.ndarray:
    """g(s_j, sbar) for all source nodes j against one checked collocation node, shape (N, 3).

    Computed component-major and in place, so every step is one contiguous pass
    over the N nodes; only the last step writes the node-major result.
    """
    grid = curve.grid
    fv = np.ascontiguousarray(samples.T)
    r = curve.coords - curve.coords[:, t : t + 1]
    rnorm = r[0] * r[0]  # |R|^2 as (x^2 + y^2) + z^2: einsum("cj,cj->j")'s order and bits
    rnorm += r[1] * r[1]
    rnorm += r[2] * r[2]
    np.sqrt(rnorm, out=rnorm)
    rnorm[t] = 1.0
    ds = grid.global_nodes - grid.global_nodes[t]
    ratio = np.abs(ds)
    ratio /= rnorm  # |s - sbar|/|R| as one ratio, to limit cancellation
    r /= rnorm
    # rhat . f summed (0 + 2) + 1, the order numpy's einsum takes over an (N, 3) row,
    # so K keeps the bits of the node-major formula
    near = np.multiply(r, (r[0] * fv[0] + r[2] * fv[2]) + r[1] * fv[1], out=r)
    near += fv
    near *= ratio
    xs, ft = curve.tangents[t], fv[:, t]
    near -= (ft + xs * (xs @ ft))[:, None]
    ds[t] = 1.0
    rows = np.empty((grid.node_count, 3))
    np.divide(near, ds, out=rows.T)
    rows[t] = g_limit(xs, curve.second_derivs[t], ft, _density_derivative_at(grid, f, samples, t))
    return rows


def _effective_weights(grid: PanelGrid, table: np.ndarray, target_index: int) -> np.ndarray:
    """Per-node quadrature weights for a sign-kernel integral collocated at a node.

    Off-target panels carry the regular weights times the constant kernel sign,
    -1 before the target's panel; the target's panel row comes from the
    modified table, scaled by ds/2. A table of another order than the grid's
    rule raises ValueError.
    """
    n = grid.rule.order
    if np.shape(table) != (n, n):
        raise ValueError(f"table order {len(table)} does not match rule order {n}")
    m, ell = grid.panel_of_target(target_index)
    sl = grid.panel_slice(m)
    w = grid.global_weights.copy()
    w[: sl.start] *= -1.0
    w[sl] = 0.5 * grid.panel_width * table[ell]
    return w


def eval_L(f: LineDensity, grid: PanelGrid, table: np.ndarray, target_index: int) -> float:
    """Scalar finite-part operator at one collocation node."""
    w = _effective_weights(grid, table, target_index)  # rejects a bad index or table
    fv = f.checked_samples((grid.node_count,))
    t = target_index
    ds = grid.global_nodes - grid.global_nodes[t]
    ds[t] = 1.0
    phi = (fv - fv[t]) / ds
    phi[t] = _density_derivative_at(grid, f, fv, t)
    return float(w @ phi)


def eval_K(
    curve: PanelizedCurve, f: LineDensity, table: np.ndarray, target_index: int
) -> np.ndarray:
    """Non-local operator K at one collocation node."""
    fv = f.checked_samples((curve.grid.node_count, 3))
    w = _effective_weights(curve.grid, table, target_index)
    return w @ _g_row(curve, f, fv, target_index)


def eval_K_all(curve: PanelizedCurve, f: LineDensity, table: np.ndarray) -> np.ndarray:
    """K at every collocation node, shape (N, 3)."""
    n = curve.grid.node_count
    return np.fromiter((eval_K(curve, f, table, t) for t in range(n)), (float, 3), count=n)


def _local_operator(tangents: np.ndarray, fv: np.ndarray, c: float) -> np.ndarray:
    """-c(I + ss) f + 2(I - ss) f row by row over (P, 3) tangents s and samples f."""
    along = tangents * _rowdot(tangents, fv)[:, None]
    return -c * (fv + along) + 2.0 * (fv - along)


def eval_Lambda(
    curve: PanelizedCurve, f: LineDensity, params: SlenderParams, target_index: int
) -> np.ndarray:
    """Local slender-body operator -c(I + ss) f + 2(I - ss) f at one node."""
    curve.grid.panel_of_target(target_index)  # rejects indices that are not integers in [0, N)
    row = slice(target_index, target_index + 1)
    fv = f.checked_samples((curve.grid.node_count, 3))[row]
    return _local_operator(curve.tangents[row], fv, params.c)[0]


def centerline_velocity(
    curve: PanelizedCurve,
    f: LineDensity,
    params: SlenderParams,
    background: Callable,
    table: np.ndarray,
) -> np.ndarray:
    """Fiber velocity at every node: u_inf - (Lambda[f] + K[f]) / (8 pi mu).

    background(x) gives u_inf at node position x, a finite (3,) vector checked before K."""
    u_inf = [np.asarray(background(x), dtype=float) for x in curve.positions]
    if not all(u.shape == (3,) and np.isfinite(u).all() for u in u_inf):
        raise ValueError("background must give a finite (3,) vector at every node")
    k = eval_K_all(curve, f, table)
    lam = _local_operator(curve.tangents, f.samples, params.c)  # eval_K_all checked the shape
    return np.array(u_inf) - 1.0 / (8.0 * np.pi * params.mu) * (lam + k)
