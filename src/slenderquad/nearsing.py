"""Stokeslet line integral at field points, with near-evaluation special quadrature.

Far from the fiber the integral is smooth and composite Gauss-Legendre handles
it. Close to a panel the kernel is nearly singular: the squared distance
R^2(eta), continued to complex eta through the panel's Legendre expansion, has
a conjugate root pair z1, conj(z1) hugging the interval. Dividing out
omega(eta) = (eta - z1)(eta - conj z1) leaves a smooth factor whose node
samples are contracted with node weights from the moments of
eta^k/|eta-z1|^p, through Legendre moments. The moments take one of two
routes: an upward recursion for roots over the interval, and a graded
Gauss-Legendre rule, refined toward the nearer end, for every other root.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings

import numpy as np

from .finitepart import LineDensity
from .geometry import PanelizedCurve
from .quadcore import QuadratureRule, _legendre_terms, _legendre_terms_split, gauss_legendre

_GRADED_ORDER = 32
_PANEL_RHO = 2.05  # Bernstein radius of the root over the graded rule's finest panel
MAX_MOMENT_COUNT = 16  # highest moment count q_k^p is computed to; caps eval_S's rule order
_NEWTON_TOL = 1e-13
_DIRECT_TOL = 1e-14  # error of the direct rule, about rho^(-2n), below which a pair keeps it
_GUESS_MARGIN = 1.05  # guesses this far past rho_max still start a root find: a guess errs too
_NEWTON_MAX_ITER = 30
_ARRAY_PAIRS = 32  # pairs from which the screen, Newton tables and moments run on float arrays
REAL_ROOT_FLOOR = 1e-10  # find_root calls a converged root with a smaller Im(z1) real
_ON_CENTERLINE = "converged to a real root on the panel; point lies on the centerline"
_ON_EXTENSION = "converged to a real root; point lies on the curve extension"
_CHUNK = 128  # field points per pass, the oracle's _BLOCK; bounds the (T, N, 3) offset array


def _model_step(f, d, g):
    """On Python scalars, the step z - w to the nearer root w of f + 2 d delta + g delta^2:
    f over the larger of d -+ sqrt(d^2 - f g), 0.0 at f = 0, None for a stationary model."""
    if f == 0:
        return 0.0
    sq = cmath.sqrt(d * d - f * g)
    den = d + sq if abs(d + sq) >= abs(d - sq) else d - sq
    return f / den if den else None


def _osculating_model(r, t, k, half):
    """f, d and g of the osculating quadratic from offset r, tangent t and second derivative k:
    Python floats for one pair, or rows for many from (3, P) arrays, with the same bits."""
    (x, y, z), (tx, ty, tz), (kx, ky, kz) = r, t, k
    f, d = x * x + y * y + z * z, -half * (x * tx + y * ty + z * tz)
    return f, d, half * half * (tx * tx + ty * ty + tz * tz - (x * kx + y * ky + z * kz))


def _osculating_guesses(curve: PanelizedCurve, nodes: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Root guesses for P pairs from global node indices and (P, 3) offsets x_bar - x_j to them.

    With the node's tangent and second derivative scaled to x' and x'' on
    its panel's [-1, 1], R^2(eta_j + delta) is close to f + 2 d delta +
    g delta^2, f = |r|^2, d = -r . x' and g = x' . x' - r . x''. The guess
    is this quadratic's root, reached as find_root's first step from eta_j,
    with Im made positive and at least 1e-8; on a straight panel it is the
    root. The steps run per pair on Python scalars.
    """
    half = 0.5 * curve.grid.panel_width
    eta = curve.grid.rule.nodes[nodes % curve.grid.rule.order]
    # take() gathers rows at a third of the cost of fancy indexing
    tangents, second = (x.take(nodes, 0) for x in (curve.tangents, curve.second_derivs))
    rows = zip(r.tolist(), tangents.tolist(), second.tolist(), eta.tolist())
    guesses = []
    for rj, tj, kj, e in rows:
        step = _model_step(*_osculating_model(rj, tj, kj, half))
        w = e if step is None else e - step / max(abs(step), 1.0)  # stationary: stay at the node
        guesses.append(complex(w.real, max(abs(w.imag), 1e-8)))
    return np.array(guesses, dtype=complex)


def _bernstein_radius(z: complex) -> float:
    """rho(z) = |z + sqrt(z - 1) sqrt(z + 1)| of a Python complex: z lies on the Bernstein
    ellipse E_rho with foci -1 and 1, where the n-point direct rule errs about rho^(-2n)."""
    return abs(z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0))


def _direct_radius(n: int) -> float:
    """rho_max(n) = _DIRECT_TOL^(-1/(2n)): the n-point direct rule serves roots from here on."""
    return _DIRECT_TOL ** (-0.5 / n)


def _screen(curve: PanelizedCurve, nodes: np.ndarray, r: np.ndarray, limit: float) -> np.ndarray:
    """False for the pairs whose `_osculating_guesses` surely lie at rho >= limit.

    The osculating model on (3, P) rows and its root in real float
    arithmetic, with rho from the focal distances d1 and d2: the ellipse
    through w has rho + 1/rho = d1 + d2. A 1e-6 relative margin dwarfs the
    rounding by which these steps differ from the Python-complex ones, so a
    pair it drops fails the per-pair test too; a non-finite rho keeps its pair.
    """
    half = 0.5 * curve.grid.panel_width
    eta = curve.grid.rule.nodes[nodes % curve.grid.rule.order]
    rows = (a.T for a in (r, curve.tangents.take(nodes, 0), curve.second_derivs.take(nodes, 0)))
    with np.errstate(all="ignore"):  # overflows as the Python floats do, silently
        f, d, g = _osculating_model(*rows, half)
        disc = d * d - f * g
        sq = np.sqrt(np.abs(disc))
        # _model_step's denominator: d + i sq below a zero discriminant, else d -+ sq, the larger
        den_re = np.where(disc < 0.0, d, np.where(d >= 0.0, d + sq, d - sq))
        den_im = np.where(disc < 0.0, sq, 0.0)
        size = np.hypot(den_re, den_im)
        over = f / size  # a stationary model, size 0, stays at the node
        step_re = np.where(size > 0.0, over * (den_re / size), 0.0)
        step_im = np.where(size > 0.0, -over * (den_im / size), 0.0)
        cut = np.maximum(np.hypot(step_re, step_im), 1.0)
        w_re, w_im = eta - step_re / cut, np.maximum(np.abs(step_im / cut), 1e-8)
        a = 0.5 * (np.hypot(w_re - 1.0, w_im) + np.hypot(w_re + 1.0, w_im))
        rho = a + np.sqrt(np.maximum(a * a - 1.0, 0.0))
    return ~(np.isfinite(rho) & (rho > limit * (1.0 + 1e-6)))


def _near_pairs(curve: PanelizedCurve, points: np.ndarray, r: np.ndarray, r2: np.ndarray):
    """The rows, panels and `_osculating_guesses` of a chunk's pairs that start a root find.

    points (T, 3) come with offsets r (T, N, 3) and squared distances r2
    (T, N) to every node. A panel is a candidate when its closest node, the
    one the guess starts from, lies within one panel arclength, and starts a
    root find when its guess lies inside the direct rule's radius with a
    margin for the guess's own error, rho < _GUESS_MARGIN * `_direct_radius(n)`:
    a guess extrapolated from a panel's end node can lie a few per cent
    farther out than its root. From _ARRAY_PAIRS candidates on, `_screen`
    first drops the pairs whose guesses surely lie outside, which spares the
    per-pair guesses of most of a field-test block's candidates; every pair
    kept is kept in its one-point call too.
    """
    grid, n = curve.grid, curve.grid.rule.order
    per_panel = r2.reshape(len(points), grid.panel_count, n)
    # a one-node panel is a point: R^2(eta) is constant and has no root
    tt, mm = (np.sqrt(per_panel.min(axis=2)) <= grid.panel_width).nonzero() if n > 1 else ((), ())
    if not len(tt):  # far points leave here, at the cost of the distance test alone
        return tt, mm, ()
    nodes = mm * n + per_panel[tt, mm].argmin(axis=1)
    offsets, limit = r[tt, nodes], _GUESS_MARGIN * _direct_radius(n)
    if len(tt) >= _ARRAY_PAIRS:
        keep = _screen(curve, nodes, offsets, limit)
        tt, mm, nodes, offsets = tt[keep], mm[keep], nodes[keep], offsets[keep]
    guesses = _osculating_guesses(curve, nodes, offsets)
    inside = np.array([_bernstein_radius(g) < limit for g in guesses.tolist()], dtype=bool)
    return tt[inside], mm[inside], guesses[inside]


def find_root(
    curve: PanelizedCurve, panels, x_bar: np.ndarray, guess: np.ndarray
) -> tuple[np.ndarray, list]:
    """Cauchy's method for the upper-half roots z1 of f(eta) = R^2(eta) = |x_bar - x(eta)|^2.

    Takes the curve and P pairs, as (P,) integer panel indices, (P, 3) points
    and (P,) guesses, and returns (roots, reasons): the (P,) complex roots,
    NaN where the iteration failed, and the P reason strings, "" for a pair
    that converged; one pair is a one-row block. Shapes that do not match,
    panels outside [0, M) and non-finite points or guesses raise ValueError
    before any step. A converged root with Im(z1) < REAL_ROOT_FLOOR is real
    and fails its pair: on the centerline when |Re(z1)| <= 1 +
    REAL_ROOT_FLOOR, on the curve extension otherwise.

    Each step moves to the nearer root of the local quadratic model
    f + f' delta + f'' delta^2 / 2 = 0 (Cauchy's method), with
    f' = -2 (x_bar - x) . x' and f'' = 2 (x' . x' - (x_bar - x) . x''), which
    holds both roots of the conjugate pair where Newton's steps only halve.
    x_bar leaves the constant coefficient of each pair's rows of x and x''
    (the curve's `cauchy_rows`), so one product gives x - x_bar, x' and x''.
    Every iteration builds each live pair's (n, 2) Legendre table on its
    Python-complex iterate (from _ARRAY_PAIRS live pairs on, on float arrays
    with the same bits) and contracts them all in one stacked product, which
    with the Gram product gives every pair the bits of its one-row block.
    Step, damping and stopping tests stay per pair on Python scalars; a pair
    leaves the live set when it converges or fails, so a failed pair does not
    stop the others. A pair converges at a step of at most _NEWTON_TOL, or
    once its step times the square of its ratio to the step before is that
    small: the steps shrink cubically, so the next one would be smaller
    still, and the round that would confirm it is saved.
    """
    mm = np.asarray(panels)
    xb = np.asarray(x_bar, dtype=float)
    z0 = np.asarray(guess, dtype=complex)
    if not (mm.ndim == 1 and mm.dtype.kind in "iu" and xb.shape == mm.shape + (3,)
            and z0.shape == mm.shape):
        raise ValueError("find_root takes (P,) integer panels, (P, 3) points and (P,) guesses; "
                         f"got {mm.shape} {mm.dtype}, {xb.shape} and {z0.shape}")
    panel_count = curve.grid.panel_count
    if not all(0 <= m < panel_count for m in mm.tolist()):
        raise ValueError(f"panel indices must lie in [0, {panel_count}), got {mm.tolist()}")
    z = z0.tolist()
    # math.isfinite and cmath.isfinite on the few points and guesses cost less than numpy's
    if not (all(map(math.isfinite, xb.ravel().tolist())) and all(map(cmath.isfinite, z))):
        raise ValueError("points and guesses must be finite")
    count, n = len(z), curve.grid.rule.order
    roots = [complex(math.nan, math.nan)] * count
    reasons = [""] * count
    live = list(range(count))
    last = [0.0] * count  # each pair's previous step length, 0.0 before its first
    # row 2c gives x_c - x_bar_c (P_0 = 1 carries the shift) and x_c', row 2c + 1 gives x_c''
    # and an unused third derivative: each pair's product reads as the (3, 4) rows of
    # x - x_bar, x', x'' and x''' by coordinate
    c_live = curve.cauchy_rows.take(mm, 0).reshape(count, 6, n)
    c_live[:, 0::2, 0] -= xb
    for _ in range(_NEWTON_MAX_ITER):
        if not live:
            break
        if len(live) >= _ARRAY_PAIRS:
            table = _legendre_terms_split(np.array([z[i] for i in live]), n)
        else:
            terms = []
            for i in live:
                terms += _legendre_terms(z[i], n)
            table = np.array(terms, dtype=complex).reshape(len(live), n, 2)
        vecs = (c_live @ table).reshape(len(live), 3, 4)
        # the Gram matrix of u = x - x_bar, x', x'' and x''' holds u.u, u.x', u.x'' and x'.x';
        # a contiguous left factor keeps it on the table product's BLAS kernel
        gram = (np.ascontiguousarray(vecs.transpose(0, 2, 1)) @ vecs).reshape(len(live), 16)
        still = []
        for j, (i, g) in enumerate(zip(live, gram.tolist())):
            # f = R^2 = u.u, f' = 2 u.x' and f'' = 2(x'.x' + u.x'')
            step = _model_step(g[0], g[1], g[5] + g[2])
            if step is None:
                reasons[i] = "stationary R^2, Newton step undefined"
                continue
            # overshoots past unit length leave the panel's basin; damp them
            size = abs(step)
            if size > 1.0:
                step /= size
            z[i] = z[i] - step
            # Cauchy's steps shrink cubically: the next would be about size (size/last)^2 or less
            if size <= _NEWTON_TOL or (last[i] and size * (size / last[i]) ** 2 <= _NEWTON_TOL):
                root = z[i].conjugate() if z[i].imag < 0 else z[i]
                if root.imag < REAL_ROOT_FLOOR:
                    on_panel = abs(root.real) - 1.0 <= REAL_ROOT_FLOOR
                    reasons[i] = _ON_CENTERLINE if on_panel else _ON_EXTENSION
                else:
                    roots[i] = root
                continue
            if abs(z[i]) > 20.0:
                reasons[i] = "Newton iterate escaped the panel neighborhood"
                continue
            last[i] = min(size, 1.0)
            still.append(j)
        if len(still) < len(live):
            live = [live[j] for j in still]
            c_live = c_live.take(still, axis=0)
    for i in live:
        reasons[i] = f"no convergence in {_NEWTON_MAX_ITER} iterations"
    return np.array(roots, dtype=complex), reasons


def _moments_recursion(a, b, count: int) -> np.ndarray:
    """Upward recursions for int eta^k / |eta - (a+ib)|^p, p = 1 and 3, stable for near roots.

    Boundary terms with opposite-sign endpoint weights are rewritten through
    w(1)^2 - w(-1)^2 = -4a so that small |a| does not trigger cancellation.
    Column 0 holds p = 1, column 1 holds p = 3, which recurs on column 0.
    a and b are Python floats, giving a (count, 2) array, or (S,) float
    arrays of S roots, giving (S, count, 2) with each root's bits.
    """
    # numpy's hypot and arcsinh, one call each on both arguments; one root's values then
    # become Python floats, whose arithmetic rounds as numpy's does, where math.hypot and
    # math.asinh may round differently
    one = isinstance(a, float)
    w, s = np.hypot((1.0 - a, 1.0 + a), b), np.arcsinh(((1.0 - a) / b, (-1.0 - a) / b))
    (w1, wm1), (s1, sm1) = (w.tolist(), s.tolist()) if one else (w, s)
    w_sum = w1 + wm1
    w_diff = -4.0 * a / w_sum  # w(1) - w(-1)
    winv_diff = w_diff / (w1 * wm1)  # 1/w(-1) - 1/w(1)
    # the boundary terms of each recursion at even and at odd k
    bounds = ((w_sum, -(1.0 / w1 + 1.0 / wm1)), (w_diff, winv_diff))
    first, third = s1 - sm1, ((1.0 - a) / w1 + (1.0 + a) / wm1) / (b * b)
    q = [first, third]  # (q_k^1, q_k^3) pairs, flat
    if count > 1:
        prev, first, third = first, w_diff + a * first, a * third + winv_diff
        q += (first, third)
    ab2 = a * a + b * b
    for k in range(2, count):
        b1, b3 = bounds[k % 2]
        prev, first, third = (first, (b1 + a * (2 * k - 1) * first - (k - 1) * ab2 * prev) / k,
                              a * third + (k - 1) * prev + b3)
        q += (first, third)
    # C order: the special sums' products round by layout
    return np.array(q).reshape(count, 2) if one else np.array(q).T.reshape(-1, count, 2)


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


def _graded_level(a: float, b: float) -> int:
    """The graded rule's level for a root a + ib, a >= 0: the panel next to 1 halves until
    the root's Bernstein radius over it reaches _PANEL_RHO."""
    level, w = 0, complex(a, b)  # the root over the finest panel, mapped to [-1, 1]
    while _bernstein_radius(w) < _PANEL_RHO:
        level += 1
        w = complex((a - 1.0) * 2.0**level + 1.0, b * 2.0**level)
    return level


def _graded_sums(a, b, level: int, count: int) -> np.ndarray:
    """The graded rule at one level for roots a + ib with a >= 0: Python floats give a
    (count, 2) array, (S, 1, 1) float arrays (S, count, 2) with each root's bits."""
    table = _graded_table(level)
    t = (1.0 - a) + table[:, 0]
    w2 = t * t + b * b
    # both columns' kernels in one (..., level + 1, 2, 32) array, filled in place
    kernels = np.empty(w2.shape[:-1] + (2, _GRADED_ORDER))
    k1 = np.divide(table[:, 1], np.sqrt(w2), out=kernels[..., 0, :])
    np.divide(k1, w2, out=kernels[..., 1, :])
    sums = table[:, 2 : 2 + count] @ kernels.swapaxes(-1, -2)
    # the panels' sums add up one after the other
    return sums.sum(axis=-3) if level else sums[..., 0, :, :]


def _moments_graded(a: float, b: float, count: int) -> np.ndarray:
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
    q = _graded_sums(a, b, _graded_level(a, b), count)
    if mirror:
        odd = q[1::2]
        np.negative(odd, out=odd)
    return q


def qkp_moments(z1: complex, count: int) -> np.ndarray:
    """Moments q_k^p = int_{-1}^{1} eta^k / |eta - z1|^p deta, k = 0..count-1.

    Returns a (count, 2) array with p = 1 in column 0 and p = 3 in column 1.
    The route follows an accuracy map measured at count 16 against the
    recursion in 60- to 120-digit arithmetic, as errors relative to each
    column's largest moment. Roots over the interval, |Re z1| <= 1 and
    Im z1 <= 1, take the upward recursion: 1.8e-14 up to Im z1 = 0.5 and
    1.8e-13 up to 1. Every other root takes the graded rule: 1.1e-15 over
    687 roots past either end at |Re z1| - 1 from 1e-15 to 2 and Im z1 from
    1e-10 to 2.5 and over the interval at Im z1 from 1 to 2.5, and 6.4e-16
    out to |Re z1| = 100 and Im z1 = 10. Past an end the recursion cancels,
    3.5e-3 at (|Re z1| - 1, Im z1) = (0.4, 1e-6), and above Im z1 = 1 it
    drifts, 1.1e-11 at Im z1 = 1.8. Roots below REAL_ROOT_FLOOR, which
    find_root calls real, raise ValueError: q_0^3 ~ 2 / Im(z1)^2 overflows
    from Im z1 ~ 1e-154 on, and the floor bounds the graded rule at level 33.
    So do roots from |z1| ~ 1.3e154 on, whose |eta - z1|^2 overflows and zeros the moments.
    eval_S's roots pass these checks and take the routes unchecked, bit for
    bit: by `_root_moments`, or from _ARRAY_PAIRS on by `_stacked_moments`.
    """
    if not isinstance(count, (int, np.integer)) or not 1 <= count <= MAX_MOMENT_COUNT:
        raise ValueError(f"count must be an integer in [1, {MAX_MOMENT_COUNT}], got {count!r}")
    z1 = complex(z1)
    a, b = z1.real, z1.imag
    if not (b >= REAL_ROOT_FLOOR and math.isfinite((abs(a) + 1.0) * (abs(a) + 1.0) + b * b)):
        raise ValueError(f"z1 must be finite with Im(z1) >= REAL_ROOT_FLOOR = {REAL_ROOT_FLOOR} "
                         f"and |eta - z1|^2 finite on [-1, 1], got {z1}")
    return _root_moments(a, b, count)


def _root_moments(a: float, b: float, count: int) -> np.ndarray:
    """qkp_moments' route, unchecked: the recursion over the interval, else the graded rule."""
    return (_moments_recursion if abs(a) <= 1.0 and b <= 1.0 else _moments_graded)(a, b, count)


def _stacked_moments(z1: np.ndarray, count: int) -> np.ndarray:
    """qkp_moments of S roots from find_root, which pass its checks, as one (S, count, 2) array.

    Each row has the bits of its root's call: the recursion runs once on
    float arrays of all roots over the interval, the graded rule once per
    level on that level's roots, mirrored ones flipped after.
    """
    a, b = z1.real, z1.imag
    q = np.empty((len(z1), count, 2))
    over = (np.abs(a) <= 1.0) & (b <= 1.0)
    if over.any():
        q[over] = _moments_recursion(a[over], b[over], count)
    graded = np.flatnonzero(~over)
    ag, bg = np.abs(a[graded]), b[graded]
    levels = np.array([_graded_level(x, y) for x, y in zip(ag.tolist(), bg.tolist())], dtype=int)
    for level in set(levels.tolist()):
        at = levels == level
        q[graded[at]] = _graded_sums(ag[at, None, None], bg[at, None, None], level, count)
    mirrored = graded[a[graded] < 0.0]
    q[mirrored, 1::2] = -q[mirrored, 1::2]
    return q


def _offsets(positions: np.ndarray, x_bar, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Vectors x_bar - x_j to the given node positions and their squared lengths.

    x_bar is one point (3,) or a block (T, 3); the results gain its leading axis.
    A point on a node raises ValueError naming its row, counted from start.
    """
    r = np.asarray(x_bar, dtype=float)[..., None, :] - positions
    r2 = np.einsum("...c,...c->...", r, r)
    if np.count_nonzero(r2) < r2.size:  # a third of the cost of (r2 == 0.0).any()
        *row, node = np.argwhere(r2 == 0.0)[0].tolist()
        raise ValueError(f"field point {start + sum(row)} coincides with quadrature node {node}, "
                         "where S diverges")
    return r, r2


def _regular_sum(curve: PanelizedCurve, fv, r, r2, w=None) -> np.ndarray:
    """Plain Gauss-Legendre Stokeslet sum of samples fv over all nodes.

    r and r2 are one point's offsets, (N, 3) and (N,), or a block's, (T, N, 3)
    and (T, N), one sum per row with its one-point bits. w replaces the grid's
    weights, (N,) or one row per point; a zero weight leaves its node out.
    """
    w = curve.grid.global_weights if w is None else w
    rnorm = np.sqrt(r2)
    rdotf = np.einsum("...jc,jc->...j", r, fv)
    return ((w / rnorm)[..., None, :] @ fv + (w * rdotf / rnorm**3)[..., None, :] @ r)[..., 0, :]


def _blockwise(curve: PanelizedCurve, x_bar, sums) -> np.ndarray:
    """Run sums over x_bar, one point (3,) or a block (T, 3), _CHUNK points at a time.

    sums(points, r, r2, start) gets a (t, 3) chunk, its offsets to every
    node and the index of its first row, and returns the chunk's (t, 3) sums.
    Complex arrays, other shapes and non-finite points raise ValueError before any work.
    """
    if np.iscomplexobj(x_bar):
        raise ValueError("field points must be real, got a complex array")
    xb = np.asarray(x_bar, dtype=float)
    # math.isfinite on Python floats costs a one-point call a third of np.isfinite(xb).all()
    finite = all(map(math.isfinite, xb.ravel().tolist()))
    if xb.ndim not in (1, 2) or xb.shape[-1] != 3 or not finite:
        raise ValueError(f"field points must be finite with shape (3,) or (T, 3), got {xb.shape}")
    block = xb.reshape(-1, 3)
    if 0 < len(block) <= _CHUNK:  # one chunk, as every one-point call is: no output buffer
        out = sums(block, *_offsets(curve.positions, block), 0)
    else:
        out = np.empty(block.shape)
        for start in range(0, len(block), _CHUNK):
            part = block[start : start + _CHUNK]
            out[start : start + _CHUNK] = sums(part, *_offsets(curve.positions, part, start), start)
    return out[0] if xb.ndim == 1 else out


def eval_S_regular(curve: PanelizedCurve, f: LineDensity, x_bar) -> np.ndarray:
    """Stokeslet integral by composite Gauss-Legendre over all panels, at x_bar (3,) or (T, 3)."""
    fv = f.checked_samples((curve.grid.node_count, 3))
    return _blockwise(curve, x_bar, lambda points, r, r2, start: _regular_sum(curve, fv, r, r2))


@functools.lru_cache(maxsize=None)
def _legendre_monomials(n: int) -> np.ndarray:
    """The read-only (n, n) matrix C of P_d(eta) = sum_m C[d, m] eta^m, d < n.

    C[d, d - 2k] = (-1)^k comb(d, k) comb(2d - 2k, d) / 2^d, exact in floating
    point up to n = 26, maps monomial moments to Legendre moments.
    """
    c = np.zeros((n, n))
    for d in range(n):
        for k in range(d // 2 + 1):
            c[d, d - 2 * k] = (-1) ** k * math.comb(d, k) * math.comb(2 * d - 2 * k, d) / 2**d
    c.flags.writeable = False  # one cached array serves every call
    return c


def _moment_weights(rule: QuadratureRule, moments: np.ndarray) -> np.ndarray:
    """Node weights of S pairs from their (S, n, 2) monomial moments, pair by pair.

    C q gives each pair's Legendre moments and rule.transform^T turns them into
    weights w: w . g integrates the degree < n interpolant of node samples g
    against the kernel. Stacked per pair, every pair gets its one-pair bits;
    the product T^T C formed once loses 3-4 digits to its cancellation.
    """
    return rule.transform.T @ (_legendre_monomials(rule.order) @ moments)


def _special_sums(curve: PanelizedCurve, fv, panels, z1, r, r2) -> np.ndarray:
    """Product-integration Stokeslet contributions of S (point, panel) pairs, one row each.

    panels and z1 hold each pair's panel index and root; r (S, n, 3) and
    r2 (S, n) its point's offsets to that panel's nodes. The smooth factors
    g_p * (omega/R^2)^{p/2} at the nodes, contracted with the
    `_moment_weights` of the kernel moments, integrate their interpolants
    against the kernel. At real nodes omega/R^2 > 0: the principal root.
    Below _ARRAY_PAIRS pairs each root takes one `_root_moments` call; from
    there on all take one `_stacked_moments` stack with the same bits.
    """
    grid = curve.grid
    eta = grid.rule.nodes
    n = grid.rule.order
    roots = np.asarray(z1, dtype=complex)
    if len(roots) >= _ARRAY_PAIRS:
        moments = _stacked_moments(roots, n)
    else:
        moments = np.array([_root_moments(z.real, z.imag, n) for z in roots.tolist()])
    w = _moment_weights(grid.rule, moments)
    roots = roots[:, None]
    ratio = ((eta - roots.real) ** 2 + roots.imag * roots.imag) / r2

    fv = fv.reshape(grid.panel_count, n, 3).take(panels, axis=0)
    smooth1 = fv * np.sqrt(ratio)[..., None]
    rdotf = np.einsum("sjc,sjc->sj", r, fv)
    smooth3 = r * (rdotf * ratio**1.5)[..., None]
    w1, w3 = w[:, None, :, 0], w[:, None, :, 1]
    return 0.5 * grid.panel_width * (w1 @ smooth1 + w3 @ smooth3)[:, 0]


def eval_S(curve: PanelizedCurve, f: LineDensity, x_bar) -> np.ndarray:
    """Stokeslet integral with per-panel dispatch between regular and special quadrature.

    x_bar is one point (3,) or a block (T, 3); the result has the same shape,
    and every row equals the one-point call bit for bit. The near pairs of
    each chunk (`_near_pairs`) share one find_root call. A pair is special
    while its root's Bernstein radius rho(z1) lies below rho_max(n) =
    _DIRECT_TOL^(-1/(2n)), beyond which the n-point direct rule errs about
    rho^(-2n) <= 1e-14: the test runs on the guess before the root find,
    with _GUESS_MARGIN for the guess's error, and on the root after it.
    Pairs without a root, each warned of, and roots at rho >= rho_max take
    the regular rule for that pair only. A point on a node raises ValueError
    naming its row and the node. A real root on a panel (find_root's
    REAL_ROOT_FLOOR) puts the point on the centerline, where S diverges, and
    raises ValueError naming the point's row and the panel before its chunk
    sums or warns. Points 1e-9 off pass (Im(z1) >= 1e-8 at order 16), and
    nothing flags them yet (ROADMAP item 23): on helix(8, 3, 1.5) at M = 8,
    S errs about 4e-11 / 4e-9 / 4e-7 relative 1e-4 / 1e-5 / 1e-6 off the
    centerline. A real root on a panel's extension fails its pair like any
    other failed root. The regular rule is eval_S_regular's one contraction
    over all nodes, with zero weights on a point's special panels, so a
    point with no near panel gets eval_S_regular's value exactly. Rule
    orders above MAX_MOMENT_COUNT, where the moments stop, are rejected.
    """
    grid, n = curve.grid, curve.grid.rule.order
    if n > MAX_MOMENT_COUNT:
        raise ValueError(f"eval_S supports rule orders up to {MAX_MOMENT_COUNT}, the q_k^p "
                         f"moment limit; got rule order {n}")
    fv = f.checked_samples((grid.node_count, 3))

    def chunk_sums(points, r, r2, start):
        tt, mm, guess = _near_pairs(curve, points, r, r2)
        if not len(tt):
            return _regular_sum(curve, fv, r, r2)
        # one run per chunk
        z1, reasons = find_root(curve, mm, points.take(tt, 0), guess)
        if _ON_CENTERLINE in reasons:
            i = reasons.index(_ON_CENTERLINE)
            raise ValueError(f"point {start + tt[i]}, panel {mm[i]}: {reasons[i]}, where S diverges")
        # a failed pair has a reason and a NaN root
        for i in np.flatnonzero(np.isnan(z1)) if any(reasons) else ():
            warnings.warn(f"point {start + tt[i]}, panel {mm[i]}: {reasons[i]}; "
                          "falling back to regular quadrature")
        limit = _direct_radius(n)  # the NaN roots of failed pairs compare False
        near = [i for i, z in enumerate(z1.tolist()) if _bernstein_radius(z) < limit]
        if not near:
            return _regular_sum(curve, fv, r, r2)
        tp, mp = tt.take(near), mm.take(near)
        # one sum for the chunk; zero weights leave out each point's special panels, and a
        # point without any keeps the grid's weights and eval_S_regular's bits
        count = len(points)
        flat = tp * grid.panel_count + mp  # each pair's (point, panel) row of n nodes
        weights = grid.global_weights[None].repeat(count, 0)
        weights.reshape(-1, n)[flat] = 0.0
        out = _regular_sum(curve, fv, r, r2, weights)
        rp, r2p = r.reshape(-1, n, 3).take(flat, 0), r2.reshape(-1, n).take(flat, 0)
        total = np.zeros((count, 3))
        # in pair order, the bits of adding each point's special rows one by one
        np.add.at(total, tp, _special_sums(curve, fv, mp, z1.take(near), rp, r2p))
        return out + total

    return _blockwise(curve, x_bar, chunk_sums)
