"""Shared independent oracles for the test suite."""

import cmath
import copy
import functools
import math
import pickle
from fractions import Fraction

import numpy as np

from slenderquad.quadcore import gauss_legendre, legendre_eval, legendre_transform_matrix

# the ways a value type can be duplicated; each must rebuild it as it was first built
COPIES = {
    "original": lambda x: x,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def qk_two_piece(k: int, eta_bar: float) -> float:
    """Sign-kernel moment by exact monomial integration of the two pieces.

    int_{-1}^{eta_bar} -eta^k deta + int_{eta_bar}^{1} eta^k deta, each piece
    via the antiderivative eta^{k+1}/(k+1).
    """
    upper = (1.0 - eta_bar ** (k + 1)) / (k + 1)
    lower = (eta_bar ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
    return upper - lower


def segment_stokeslet(x0: float, d_perp: float, length: float, f_const) -> np.ndarray:
    """Closed-form Stokeslet integral of a constant density over a straight segment.

    Segment runs along x from 0 to length; the target sits at (x0, d_perp, 0).
    Built from the standard antiderivatives of u^m / (u^2 + d^2)^{p/2}.
    """
    f1, f2, f3 = f_const

    def anti(u):
        r = np.hypot(u, d_perp)
        return (
            np.arcsinh(u / d_perp),  # int du / r
            u / (d_perp**2 * r),     # int du / r^3
            -1.0 / r,                # int u du / r^3
            np.arcsinh(u / d_perp) - u / r,  # int u^2 du / r^3
        )

    hi = anti(x0)
    lo = anti(x0 - length)
    i1 = hi[0] - lo[0]
    j0 = hi[1] - lo[1]
    j1 = hi[2] - lo[2]
    j2 = hi[3] - lo[3]
    sx = f1 * i1 + f1 * j2 + f2 * d_perp * j1
    sy = f2 * i1 + f1 * d_perp * j1 + f2 * d_perp**2 * j0
    sz = f3 * i1
    return np.array([sx, sy, sz])


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def legendre_eval_numpy_scalars(coeffs, eta):
    """Legendre series at one point, accumulated on numpy scalars.

    The loop quadcore.legendre_eval ran before its scalar path moved to Python
    floats; kept as the bit-for-bit reference for that path.
    """
    c = np.asarray(coeffs)
    total = c[0]
    p_prev, p = 1.0, eta
    if len(c) > 1:
        total = total + c[1] * eta
    for k in range(2, len(c)):
        p_prev, p = p, ((2 * k - 1) * eta * p - (k - 1) * p_prev) / k
        total = total + c[k] * p
    return total


def legendre_deriv_coeffs_numpy_scalars(coeffs):
    """Derivative-series coefficients, accumulated on numpy scalars (reference loop).

    d_k = (2k + 1)(c_{k+1} + c_{k+3} + ...), summed from the top: the bits of
    the Python-float loop that spectral f' and the densities' f' ran on before
    they took one product with the derivative matrix.
    """
    c = np.asarray(coeffs)
    n = len(c)
    d = np.zeros(n)
    s = 0.0
    s_next = 0.0
    for k in range(n - 2, -1, -1):
        s, s_next = c[k + 1] + s_next, s
        d[k] = (2 * k + 1) * s
    return d


def legendre_monomials_exact(n):
    """Monomial coefficients of P_0..P_{n-1} by Bonnet's recurrence in exact rationals."""
    zero, one = Fraction(0), Fraction(1)
    rows = [[one] + [zero] * (n - 1), [zero, one] + [zero] * (n - 2)]
    for d in range(1, n - 1):
        shifted = [zero] + rows[d][:-1]
        rows.append([((2 * d + 1) * x - d * y) / (d + 1) for x, y in zip(shifted, rows[d - 1])])
    return rows[:n]


def legendre_table_sum(coeffs, x):
    """Legendre series at x summed over a table of P_0(x), P_1(x), ... (reference loop).

    The sum forces.legendre_mixture made before it ran on legendre_eval's
    loop: the recurrence on x's own type, then c_0 P_0 + c_1 P_1 + ... in
    order; kept as the bit-for-bit reference for the densities.
    """
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    values = [np.ones_like(x), x]
    for k in range(2, len(c)):
        values.append(((2 * k - 1) * x * values[-1] - (k - 1) * values[-2]) / k)
    total = c[0] * values[0]
    for k in range(1, len(c)):
        total = total + c[k] * values[k]
    return total


def bisect_start_sums(owner, kron, err, count):
    """Each problem's start totals and error sums, added interval by interval.

    The loop oracle._bisect ran before its start sums moved to np.add.at; kept
    as the bit-for-bit reference for them. owner[k] is the problem of start
    interval k, kron its (K, d) estimates and err its (K,) error estimates.
    """
    sums, err_sums = [[0.0] * kron.shape[1] for _ in range(count)], [0.0] * count
    for p, e, val in zip(owner.tolist(), err.tolist(), kron):
        sums[p] = [t + v for t, v in zip(sums[p], val.tolist())]  # in the partition's order
        err_sums[p] += e
    return np.array(sums), np.array(err_sums)


def graded_moments_two_sided(a: float, b: float, count: int) -> np.ndarray:
    """q_k^p = int_{-1}^{1} eta^k / |eta - (a+ib)|^p deta by a graded rule around the root.

    Composite 32-point Gauss-Legendre on panels halving from both ends toward
    the root's projection c onto [-1, 1], until a panel is shorter than the
    root distance. The breaks are offsets u from c, so eta - a = (c - a) + u
    keeps its digits however close the root. Columns 0 and 1 hold p = 1 and
    3, each moment one exact math.fsum of its terms. The rule
    nearsing.qkp_moments ran for roots near a panel end before its graded
    rule refined toward eta = 1 alone, with its sums made exact; kept as a
    reference for the roots of both routes, since adaptive Gauss-Kronrod
    cannot certify 1e-14 at Im z1 = 1e-10.
    """
    rule = gauss_legendre(32)
    c = min(max(a, -1.0), 1.0)
    delta = math.hypot(a - c, b)
    breaks = [-1.0 - c, 1.0 - c]
    for dist, side in ((1.0 + c, -1.0), (1.0 - c, 1.0)):
        if dist > 0.0:
            levels = math.ceil(math.log2(dist / delta)) if dist > delta else 0
            breaks.extend(side * dist * 0.5**j for j in range(1, levels + 1))
    if -1.0 < c < 1.0:
        breaks.append(0.0)
    u = np.array(sorted(set(breaks)))
    mids = 0.5 * (u[1:] + u[:-1])
    halves = 0.5 * (u[1:] - u[:-1])
    offsets = (mids[:, None] + halves[:, None] * rule.nodes[None, :]).ravel()
    wts = (halves[:, None] * rule.weights[None, :]).ravel()
    t = (c - a) + offsets
    w2 = t * t + b * b
    powers = np.vander(c + offsets, count, increasing=True).T
    k1, k3 = wts / np.sqrt(w2), wts / w2**1.5
    return np.array([[math.fsum(row * k1), math.fsum(row * k3)] for row in powers])


# qkp_moments' two routes as first written, verbatim but for their names: the recursion's
# preamble on numpy scalars and its columns through np.column_stack, the graded rule's
# kernels through np.concatenate, with their own constants and table cache. Kept as the
# byte-for-byte reference for the moments, which the tolerance tests against 120-digit
# values would let drift by a rounding.
_GRADED_ORDER = 32
_PANEL_RHO = 2.05
MAX_MOMENT_COUNT = 16


def moments_recursion_numpy_scalars(a: float, b: float, count: int) -> np.ndarray:
    """Upward recursions for int eta^k / |eta - (a+ib)|^p, p = 1 and 3, stable for near roots.

    Boundary terms with opposite-sign endpoint weights are rewritten through
    w(1)^2 - w(-1)^2 = -4a so that small |a| does not trigger cancellation.
    Column 0 holds p = 1, column 1 holds p = 3, which recurs on column 0.
    """
    w1, wm1 = np.hypot(1.0 - a, b), np.hypot(1.0 + a, b)
    w_diff = -4.0 * a / (w1 + wm1)  # w(1) - w(-1)
    w_sum = w1 + wm1
    winv_diff = w_diff / (w1 * wm1)  # 1/w(-1) - 1/w(1)
    winv_sum = 1.0 / w1 + 1.0 / wm1

    first0 = np.arcsinh((1.0 - a) / b) - np.arcsinh((-1.0 - a) / b)
    third0 = ((1.0 - a) / w1 + (1.0 + a) / wm1) / (b * b)
    # the upward recursions run on Python floats: the bits of numpy scalars at half the cost
    first, third = [float(first0)], [float(third0)]
    w_diff, w_sum, winv_diff, winv_sum = map(float, (w_diff, w_sum, winv_diff, winv_sum))
    if count > 1:
        first.append(w_diff + a * first[0])
        third.append(a * third[0] + winv_diff)
    ab2 = a * a + b * b
    for k in range(2, count):
        odd = k % 2
        boundary = w_diff if odd else w_sum
        first.append((boundary + a * (2 * k - 1) * first[k - 1] - (k - 1) * ab2 * first[k - 2]) / k)
        boundary = -winv_diff if odd else winv_sum
        third.append(a * third[k - 1] + (k - 1) * first[k - 2] - boundary)
    # C order, as np.stack gave: the special sums' products round by layout
    return np.column_stack((first, third))


_GRADED_RULE = gauss_legendre(_GRADED_ORDER)


@functools.lru_cache(maxsize=None)
def _graded_table(level: int) -> np.ndarray:
    """The graded rule's read-only (level + 1, 2 + MAX_MOMENT_COUNT, 32) table, panel by panel.

    Level L splits [-1, 1] at 0, 1/2, ..., 1 - 2^(1-L), so the panel next to
    eta = 1 has length 2^(1-L), and puts the 32-point rule on every panel.
    Each panel's row 0 holds its nodes as offsets u = eta - 1, row 1 the
    weights and rows 2.. the powers eta^k = (1 + u)^k, k < MAX_MOMENT_COUNT.
    Level 0 is the 32-point rule on [-1, 1].
    """
    ends = np.append(-(0.5 ** np.arange(-1.0, level)), 0.0)  # -2, -1, ..., -2^(1-L), 0 in u
    mids, halves = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
    scaled = halves[:, None] * _GRADED_RULE.nodes
    eta = (1.0 + mids)[:, None] + scaled  # 1 + mids is exact: level 0 keeps the nodes' bits
    table = np.concatenate([(mids[:, None] + scaled)[:, None],
                            (halves[:, None] * _GRADED_RULE.weights)[:, None],
                            eta[:, None] ** np.arange(MAX_MOMENT_COUNT)[:, None]], axis=1)
    table.flags.writeable = False  # one cached array serves every call
    return table


def moments_graded_concatenate(a: float, b: float, count: int) -> np.ndarray:
    """Composite 32-point Gauss-Legendre on panels halving toward eta = 1, for roots off [-1, 1].

    A root with a < 0 is mirrored onto -a + ib: eta -> -eta takes q_k to
    (-1)^k q_k, an exact sign flip of the odd rows. The panel next to 1
    halves until the root's Bernstein radius over it reaches _PANEL_RHO;
    the coarser panels then see it at radius 3 + sqrt(8) or more. The nodes
    are offsets u from 1, so eta - a = (1 - a) + u keeps its digits however
    close the root sits to the end. Each panel takes one product for both
    columns, and the panels' sums add up: one product over all nodes rounds
    the deepest roots' moments to 2.2e-15 where these reach 1.1e-15.
    """
    mirror, a = a < 0.0, abs(a)
    level, w = 0, complex(a, b)  # the root over the finest panel, mapped to [-1, 1]
    while abs(w + cmath.sqrt(w - 1.0) * cmath.sqrt(w + 1.0)) < _PANEL_RHO:
        level += 1
        w = complex((a - 1.0) * 2.0**level + 1.0, b * 2.0**level)
    table = _graded_table(level)
    t = (1.0 - a) + table[:, 0]
    w2 = t * t + b * b
    k1 = table[:, 1] / np.sqrt(w2)
    kernels = np.concatenate((k1, k1 / w2), axis=1).reshape(level + 1, 2, _GRADED_ORDER)
    sums = table[:, 2 : 2 + count] @ kernels.transpose(0, 2, 1)
    q = sums.sum(axis=0) if level else sums[0]
    if mirror:
        odd = q[1::2]
        np.negative(odd, out=odd)
    return q


# The K row of finitepart before f' came from one cached derivative matrix: three
# derivative-coefficient loops per node, the samples re-read per call, the limit on
# stacked numpy 3-vectors and |R| through einsum. Kept as the bit-for-bit reference for
# K and L at rule orders up to 32, where f' and the limit reach them only through the
# weight table's small diagonal entry.


def g_limit_stacked(tangent, second_deriv, f_value, f_deriv):
    xs, xss, fv, fd = np.asarray([tangent, second_deriv, f_value, f_deriv], dtype=float)
    return 0.5 * (xs * (xss @ fv) + xss * (xs @ fv)) + fd + xs * (xs @ fd)


def density_derivative_per_column(grid, f, target_index):
    """f'(sbar) at a node: the closure if attached, else three derivative-coefficient loops."""
    if f.derivative is not None:
        return np.asarray(f.derivative(grid.global_nodes[target_index]), dtype=float)
    m, ell = grid.panel_of_target(target_index)
    samples = np.asarray(f.samples, dtype=float).reshape(grid.node_count, -1)
    coeffs = legendre_transform_matrix(grid.rule) @ samples[grid.panel_slice(m)]
    eta = grid.rule.nodes[ell]
    vals = np.array(
        [legendre_eval(legendre_deriv_coeffs_numpy_scalars(coeffs[:, c]), eta)
         for c in range(samples.shape[1])]
    )
    out = vals * (2.0 / grid.panel_width)
    return out if np.ndim(f.samples) > 1 else out[0]


def g_row_per_column(curve, f, target_index):
    """g(s_j, sbar) against one collocation node, shape (N, 3), component-major."""
    grid = curve.grid
    t = target_index
    fv = np.ascontiguousarray(np.asarray(f.samples, dtype=float).T)
    r = curve.coords - curve.coords[:, t : t + 1]
    rnorm = np.sqrt(np.einsum("cj,cj->j", r, r))
    rnorm[t] = 1.0
    ds = grid.global_nodes - grid.global_nodes[t]
    ratio = np.abs(ds) / rnorm
    r /= rnorm
    near = r * ((r[0] * fv[0] + r[2] * fv[2]) + r[1] * fv[1])
    near += fv
    near *= ratio
    xs, ft = curve.tangents[t], fv[:, t]
    near -= (ft + xs * (xs @ ft))[:, None]
    ds[t] = 1.0
    rows = np.empty((grid.node_count, 3))
    np.divide(near, ds, out=rows.T)
    rows[t] = g_limit_stacked(
        xs, curve.second_derivs[t], ft, density_derivative_per_column(grid, f, target_index)
    )
    return rows


def interpolate_per_panel(panel_samples, grid, targets):
    """The per-panel interpolation loop quadcore.interpolate_to_uniform ran before it made one
    pass over all targets: one legendre_eval call per owner panel; kept as its bit-for-bit
    reference. Input checks are left out."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    samples = np.asarray(panel_samples, dtype=float)
    vector = samples.ndim > 1
    samples = samples.reshape(grid.node_count, -1)
    out = np.empty((targets.size, samples.shape[1]))
    owners = np.clip(np.ceil(targets / grid.panel_width).astype(int) - 1, 0, grid.panel_count - 1)
    for m in np.unique(owners):
        pick = owners == m
        local = -1.0 + 2.0 * (targets[pick] - m * grid.panel_width) / grid.panel_width
        coeffs = legendre_transform_matrix(grid.rule) @ samples[grid.panel_slice(m)]  # (n, cols)
        out[pick] = legendre_eval(coeffs.T, local)
    return out if vector else out[:, 0]
