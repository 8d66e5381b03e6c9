"""Stokeslet line integral at field points, with near-evaluation special quadrature.

Far from the fiber the integral is smooth and composite Gauss-Legendre handles
it. Close to a panel the kernel is nearly singular: the squared distance
R^2(eta), continued to complex eta through the panel's Legendre expansion, has
a conjugate root pair z1, conj(z1) hugging the interval. Dividing out
omega(eta) = (eta - z1)(eta - conj z1) leaves a smooth factor that is expanded
in monomials and contracted against the analytic moments of eta^k/|eta-z1|^p.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from .finitepart import LineDensity
from .geometry import PanelizedCurve
from .quadcore import (
    _legendre_terms,
    _legendre_terms_split,
    gauss_legendre,
    solve_vandermonde_transpose,
)

_RECURSION_RANGE = 0.5  # root-to-interval distance where upward recursion stays accurate
_GRADED_ORDER = 32
MAX_MOMENT_COUNT = 16  # highest moment count q_k^p is computed to; caps eval_S's rule order
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 30
_ARRAY_PAIRS = 32  # live Newton pairs from which float-array tables beat per-pair Python ones
_CHUNK = 128  # field points per pass, the oracle's _BLOCK; bounds the (T, N, 3) offset array


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (P, 3) arrays, each with the bits of `a[i] @ b[i]`."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _chord_guesses(coeffs: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Initial root guesses for (P, 3, n) panel coefficients and (P, 3) points, pair by pair.

    The real part comes from the projection parameter and the imaginary part
    is 2d/h for point-to-chord distance d and chord length h; exact for
    straight panels. Returns the (P,) complex guesses.
    """
    p_left = coeffs @ (-1.0) ** np.arange(coeffs.shape[2])
    chord = coeffs.sum(axis=2) - p_left
    h = np.sqrt(_rowdot(chord, chord))
    tpar = _rowdot(xb - p_left, chord) / (h * h)
    foot = xb - (p_left + tpar[:, None] * chord)
    im = np.maximum(2.0 * np.sqrt(_rowdot(foot, foot)) / h, 1e-8)
    return np.clip(2.0 * tpar - 1.0, -1.0, 1.0) + 1j * im


def find_root(
    panel_coeffs: np.ndarray, x_bar: np.ndarray, guess: np.ndarray
) -> tuple[np.ndarray, list]:
    """Newton iteration for the upper-half roots z1 of R^2(eta) = |x_bar - x(eta)|^2.

    Takes P pairs, (P, 3, n) panel coefficients, (P, 3) points and (P,)
    guesses, and returns (roots, reasons): the (P,) complex roots, NaN where
    Newton failed, and the P reason strings, "" for a pair that converged;
    one pair is a one-row block. Shapes that do not match and non-finite
    input raise ValueError before any Newton step. Newton runs on all pairs
    together: every iteration builds each live pair's (n, 2) Legendre table
    on its Python-complex iterate (from _ARRAY_PAIRS live pairs on, all of
    them at once on float arrays, with the same bits) and contracts all of
    them in one stacked product, which with the row dots gives every pair
    the bits of its one-row block. Step, damping and stopping tests stay per
    pair on Python scalars, and a pair leaves the live set when it converges
    or fails, so a failed pair does not stop the others.
    """
    coeffs = np.asarray(panel_coeffs, dtype=float)
    xb = np.asarray(x_bar, dtype=float)
    z0 = np.asarray(guess, dtype=complex)
    if not (
        coeffs.ndim == 3
        and coeffs.shape[1] == 3
        and coeffs.shape[2] >= 1
        and xb.shape == coeffs.shape[:2]
        and z0.shape == coeffs.shape[:1]
    ):
        raise ValueError(
            "find_root takes (P, 3, n) coefficients, (P, 3) points and (P,) guesses; "
            f"got {coeffs.shape}, {xb.shape} and {z0.shape}"
        )
    if not (np.isfinite(coeffs).all() and np.isfinite(xb).all() and np.isfinite(z0).all()):
        raise ValueError("panel coefficients, points and guesses must be finite")
    count, n = len(z0), coeffs.shape[2]
    z = z0.tolist()
    roots = [complex(math.nan, math.nan)] * count
    reasons = [""] * count
    live = list(range(count))
    c_live, x_live = coeffs.astype(complex), xb
    for _ in range(_NEWTON_MAX_ITER):
        if not live:
            break
        if len(live) >= _ARRAY_PAIRS:
            table = _legendre_terms_split(np.array([z[i] for i in live]), n)
        else:
            terms = itertools.chain.from_iterable(_legendre_terms(z[i], n) for i in live)
            table = np.fromiter(terms, complex, 2 * n * len(live)).reshape(len(live), n, 2)
        vals_ders = c_live @ table
        diff = x_live - vals_ders[:, :, 0]
        still = []
        for j, (i, r2, d) in enumerate(
            zip(live, _rowdot(diff, diff).tolist(), _rowdot(diff, vals_ders[:, :, 1]).tolist())
        ):
            dr2 = -2.0 * d
            if dr2 == 0:
                reasons[i] = "stationary R^2, Newton step undefined"
                continue
            step = r2 / dr2
            # overshoots past unit length leave the panel's basin; damp them
            if abs(step) > 1.0:
                step /= abs(step)
            z[i] = z[i] - step
            if abs(step) <= _NEWTON_TOL:
                root = z[i].conjugate() if z[i].imag < 0 else z[i]
                if root.imag == 0:
                    reasons[i] = "converged to a real root; point lies on the curve extension"
                else:
                    roots[i] = root
                continue
            if abs(z[i]) > 20.0:
                reasons[i] = "Newton iterate escaped the panel neighborhood"
                continue
            still.append(j)
        if len(still) < len(live):
            live = [live[j] for j in still]
            c_live, x_live = c_live[still], x_live[still]
    for i in live:
        reasons[i] = f"no convergence in {_NEWTON_MAX_ITER} iterations"
    return np.array(roots, dtype=complex), reasons


def _moments_recursion(a: float, b: float, count: int) -> np.ndarray:
    """Upward recursions for int eta^k / |eta - (a+ib)|^p, p = 1 and 3, stable for near roots.

    Boundary terms with opposite-sign endpoint weights are rewritten through
    w(1)^2 - w(-1)^2 = -4a so that small |a| does not trigger cancellation.
    Column 0 holds p = 1, column 1 holds p = 3, which recurs on column 0.
    """
    w1 = np.hypot(1.0 - a, b)
    wm1 = np.hypot(1.0 + a, b)
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


def _moments_graded(a: float, b: float, count: int) -> np.ndarray:
    """Composite Gauss-Legendre with panels halving toward the root's projection.

    Refinement stops once the panel length drops below the root distance, after
    which the integrand is analytic well clear of each panel. Returns the
    p = 1 and p = 3 moments as columns 0 and 1, one matrix-vector product each.
    """
    c = float(np.clip(a, -1.0, 1.0))
    delta = np.hypot(a - c, b)
    breaks = [-1.0]
    if c > -1.0:
        dist = c + 1.0
        levels = int(np.ceil(np.log2(dist / delta))) if dist > delta else 0
        breaks.extend(c - dist * 0.5**j for j in range(1, levels + 1))
    if -1.0 < c < 1.0:
        breaks.append(c)
    if c < 1.0:
        dist = 1.0 - c
        levels = int(np.ceil(np.log2(dist / delta))) if dist > delta else 0
        breaks.extend(c + dist * 0.5**j for j in range(levels, 0, -1))
    breaks.append(1.0)
    pts = np.array(sorted(set(breaks)))  # np.unique's points at a fraction of its cost

    mids = 0.5 * (pts[1:] + pts[:-1])
    halves = 0.5 * (pts[1:] - pts[:-1])
    nodes = (mids[:, None] + halves[:, None] * _GRADED_RULE.nodes[None, :]).ravel()
    wts = (halves[:, None] * _GRADED_RULE.weights[None, :]).ravel()
    w2 = (nodes - a) ** 2 + b * b
    powers = np.vander(nodes, count, increasing=True).T
    # a single (N, 2) block product would change the bits; keep two products
    return np.stack([powers @ (wts / np.sqrt(w2)), powers @ (wts / w2**1.5)], axis=1)


def qkp_moments(z1: complex, count: int) -> np.ndarray:
    """Moments q_k^p = int_{-1}^{1} eta^k / |eta - z1|^p deta, k = 0..count-1.

    Returns a (count, 2) array with p = 1 in column 0 and p = 3 in column 1.
    Upward recursion is used while the root sits within _RECURSION_RANGE of
    the interval, where it holds near machine accuracy; beyond that it sheds
    digits and the graded quadrature takes over.
    """
    if not isinstance(count, (int, np.integer)) or not 1 <= count <= MAX_MOMENT_COUNT:
        raise ValueError(f"count must be an integer in [1, {MAX_MOMENT_COUNT}], got {count!r}")
    z1 = complex(z1)
    if not (z1.imag > 0 and math.isfinite(z1.real) and math.isfinite(z1.imag)):
        raise ValueError(f"z1 must be finite with positive imaginary part, got {z1}")
    a, b = z1.real, z1.imag
    distance = np.hypot(max(abs(a) - 1.0, 0.0), b)
    if distance <= _RECURSION_RANGE:
        return _moments_recursion(a, b, count)
    return _moments_graded(a, b, count)


def _offsets(positions: np.ndarray, x_bar) -> tuple[np.ndarray, np.ndarray]:
    """Vectors x_bar - x_j to the given node positions and their squared lengths.

    x_bar is one point (3,) or a block (T, 3); the results gain its leading axis.
    """
    r = np.asarray(x_bar, dtype=float)[..., None, :] - positions
    r2 = np.einsum("...c,...c->...", r, r)
    if (r2 == 0.0).any():
        raise ZeroDivisionError("field point coincides with a quadrature node")
    return r, r2


def _regular_sum(curve: PanelizedCurve, fv, r, r2, keep=slice(None)) -> np.ndarray:
    """Plain Gauss-Legendre Stokeslet sum of samples fv over the nodes that keep selects.

    r and r2 are one point's offsets, (N, 3) and (N,), or a block's, (T, N, 3)
    and (T, N); a block gets one sum per row, each with its one-point bits.
    """
    r, rnorm = r[..., keep, :], np.sqrt(r2[..., keep])
    fv = fv[keep]
    w = curve.grid.global_weights[keep]
    rdotf = np.einsum("...jc,jc->...j", r, fv)
    return ((w / rnorm)[..., None, :] @ fv + (w * rdotf / rnorm**3)[..., None, :] @ r)[..., 0, :]


def _blockwise(curve: PanelizedCurve, x_bar, sums) -> np.ndarray:
    """Run sums over x_bar, one point (3,) or a block (T, 3), _CHUNK points at a time.

    sums(points, r, r2, start) gets a (t, 3) chunk, its offsets to every
    node and the index of its first row, and returns the chunk's (t, 3) sums.
    Other shapes and non-finite points raise ValueError before any work.
    """
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
            points = block[start : start + _CHUNK]
            out[start : start + _CHUNK] = sums(points, *_offsets(curve.positions, points), start)
    return out[0] if xb.ndim == 1 else out


def eval_S_regular(curve: PanelizedCurve, f: LineDensity, x_bar) -> np.ndarray:
    """Stokeslet integral by composite Gauss-Legendre over all panels.

    x_bar is one point (3,) or a block (T, 3); the result has the same shape.
    """
    fv = f.checked_samples((curve.grid.node_count, 3))
    return _blockwise(curve, x_bar, lambda points, r, r2, start: _regular_sum(curve, fv, r, r2))


def _special_sums(curve: PanelizedCurve, fv, panels, z1, r, r2) -> np.ndarray:
    """Product-integration Stokeslet contributions of S (point, panel) pairs, one row each.

    panels and z1 hold each pair's panel index and root; r (S, n, 3) and
    r2 (S, n) its point's offsets to that panel's nodes. The smooth factors
    g_p * (omega/R^2)^{p/2} are known at the panel nodes; contracting them
    with the weights solving A^T w = q^p integrates their monomial
    interpolants against the exact kernel moments. The p = 1 and p = 3
    weights of every pair come from one block solve, which equals the
    column-by-column solves bit for bit. At real nodes omega/R^2 is a
    positive real number, so the principal square root is the right branch
    automatically.
    """
    grid = curve.grid
    eta = grid.rule.nodes
    n = grid.rule.order
    moments = np.concatenate([qkp_moments(z, n) for z in z1], axis=1)
    w = solve_vandermonde_transpose(eta, moments).reshape(n, len(z1), 2)
    a = np.array([z.real for z in z1])[:, None]
    b = np.array([z.imag for z in z1])[:, None]
    ratio = ((eta - a) ** 2 + b * b) / r2

    fv = fv.reshape(grid.panel_count, n, 3)[panels]
    smooth1 = fv * np.sqrt(ratio)[..., None]
    rdotf = np.einsum("sjc,sjc->sj", r, fv)
    smooth3 = r * (rdotf * ratio**1.5)[..., None]
    w1, w3 = w[:, :, 0].T[:, None, :], w[:, :, 1].T[:, None, :]
    return 0.5 * grid.panel_width * (w1 @ smooth1 + w3 @ smooth3)[:, 0]


def eval_S(curve: PanelizedCurve, f: LineDensity, x_bar) -> np.ndarray:
    """Stokeslet integral with per-panel dispatch between regular and special quadrature.

    x_bar is one point (3,) or a block (T, 3); the result has the same shape,
    and every row equals the one-point call bit for bit. A panel is treated
    as near a point when its closest node lies within one panel arclength.
    The near pairs of each chunk of points share one find_root call.
    Pairs without a root, each warned of, and roots with Im(z1) >= 1 fall
    back to the regular rule for that (point, panel) pair only. All panels a
    point leaves to the regular rule are summed in one contraction, the same
    one eval_S_regular makes, so a point with no near panel gets
    eval_S_regular's value exactly. Rule orders above MAX_MOMENT_COUNT are
    rejected, since the moments stop there.
    """
    grid = curve.grid
    n = grid.rule.order
    if n > MAX_MOMENT_COUNT:
        raise ValueError(
            f"eval_S supports rule orders up to {MAX_MOMENT_COUNT}, the q_k^p moment limit; "
            f"got rule order {n}"
        )
    fv = f.checked_samples((grid.node_count, 3))

    def chunk_sums(points, r, r2, start):
        count = len(points)
        dist = np.sqrt(r2.reshape(count, grid.panel_count, n).min(axis=2))
        # a one-node panel is a point: R^2(eta) is constant and has no root
        tt, mm = np.nonzero(dist <= grid.panel_width) if n > 1 else ((), ())
        tp = mp = ()
        if len(tt):
            guess = _chord_guesses(curve.panel_coeffs[mm], points[tt])
            # a chord-estimated root with Im >= 1 is not near; skip the Newton run
            run = guess.imag < 1.0
            tt, mm, guess = tt[run], mm[run], guess[run]
        if len(tt):  # one Newton run for all of the chunk's pairs
            z1, reasons = find_root(curve.panel_coeffs[mm], points[tt], guess)
            for i in np.flatnonzero(np.isnan(z1)):
                warnings.warn(
                    f"point {start + tt[i]}, panel {mm[i]}: {reasons[i]}; "
                    "falling back to regular quadrature"
                )
            near = z1.imag < 1.0  # False for the NaN roots of failed pairs
            tp, mp, z1 = tt[near], mm[near], z1[near].tolist()
        total = np.zeros((count, 3))
        out = _regular_sum(curve, fv, r, r2)
        if len(tp):
            rp = r.reshape(count, grid.panel_count, n, 3)[tp, mp]
            r2p = r2.reshape(count, grid.panel_count, n)[tp, mp]
            for t, value in zip(tp, _special_sums(curve, fv, mp, z1, rp, r2p)):
                total[t] += value
            special = np.zeros((count, grid.panel_count), dtype=bool)
            special[tp, mp] = True
            # a point with special panels sums the rest of its nodes on its own
            for t in set(tp):
                out[t] = _regular_sum(curve, fv, r[t], r2[t], np.repeat(~special[t], n))
        return out + total

    return _blockwise(curve, x_bar, chunk_sums)
