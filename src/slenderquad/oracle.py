"""Independent reference computations used to validate the production operators.

The adaptive integrator is a self-contained Gauss-Kronrod 10/21 bisection
scheme sharing no code with the panel quadrature, so agreement between the
two routes is meaningful evidence: the module imports nothing from the
package but the FiberCurve type. Also hosts the diagonalization ground truth
of the scalar finite-part operator.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

from .geometry import FiberCurve

MAX_DEPTH = 50
MAX_INTERVALS = 20000
_CLOSEST_SAMPLES = 256  # centerline samples bracketing the closest point
_CLOSEST_SLICE = 16  # points whose (slice, samples) distances are formed at once
_BLOCK = 128  # field points bisected in one loop; bounds its heaps and node arrays

# The Gauss-Kronrod 10/21 rule on [-1, 1], positive half with the outermost node
# first: the 33-digit literals of QUADPACK's qk21 (Piessens et al., 1983). Row 0
# holds the nodes, row 1 the Kronrod weights and row 2 the weights of the
# embedded Gauss-10 rule, whose nodes are every other Kronrod node from the
# second on (zero weight on the Kronrod-only nodes).
_HALF = np.array(
    [
        [
            0.995657163025808080735527280689003,
            0.973906528517171720077964012084452,
            0.930157491355708226001207180059508,
            0.865063366688984510732096688423493,
            0.780817726586416897063717578345042,
            0.679409568299024406234327365114874,
            0.562757134668604683339000099272694,
            0.433395394129247190799265943165784,
            0.294392862701460198131126603103866,
            0.148874338981631210884826001129720,
            0.000000000000000000000000000000000,
        ],
        [
            0.011694638867371874278064396062192,
            0.032558162307964727478818972459390,
            0.054755896574351996031381300244580,
            0.075039674810919952767043140916190,
            0.093125454583697605535065465083366,
            0.109387158802297641899210590325805,
            0.123491976262065851077958109831074,
            0.134709217311473325928054001771707,
            0.142775938577060080797094273138717,
            0.147739104901338491374841515972068,
            0.149445554002916905664936468389821,
        ],
        [
            0.0,
            0.066671344308688137593568809893332,
            0.0,
            0.149451349150580593145776339657697,
            0.0,
            0.219086362515982043995534934228163,
            0.0,
            0.269266719309996355091226921569469,
            0.0,
            0.295524224714752870173892994651338,
            0.0,
        ],
    ]
)
# All 21 nodes in increasing order, mirrored about the middle one. Row 0 of
# _WEIGHTS holds the Kronrod weights, row 1 the embedded Gauss-10 weights.
_NODES = np.concatenate([-_HALF[0], _HALF[0, -2::-1]])
_WEIGHTS = np.concatenate([_HALF[1:], _HALF[1:, -2::-1]], axis=1)
_N = _NODES.size  # the rule's node count


class AccuracyError(RuntimeError):
    """Raised when the requested tolerance cannot be certified.

    Carries the best available value in best_estimate and the estimated error
    in error_estimate; for a block of field points, one row per point of each
    and the boolean mask `failed` of the uncertified points.
    """

    def __init__(self, message: str, best_estimate, error_estimate, failed=None):
        super().__init__(message)
        self.best_estimate, self.error_estimate, self.failed = best_estimate, error_estimate, failed


def _real(values) -> np.ndarray:
    """Closure values as floats; complex ones raise ValueError, not lose their imaginary part."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"the oracle integrates real values, got {values.dtype}")
    return values.astype(float, copy=False)


def _gauss_kronrod(integrand: Callable, centres: np.ndarray, halves: np.ndarray, owner: np.ndarray):
    """Kronrod estimates (K, d) on the K intervals centres -+ halves, in one call.

    Also returns each gap to the embedded Gauss estimate and the values'
    shape past the node axis; the stacked matmul gives every interval the
    bits of its own `_WEIGHTS @ values`. owner[k] is the problem of interval k.
    More intervals than the 2 * _BLOCK halves of one round are split over
    several calls of that many, which only a loop's start call can need.
    """
    cap = 2 * _BLOCK
    if len(centres) > cap:
        parts = [
            _gauss_kronrod(integrand, *(v[i : i + cap] for v in (centres, halves, owner)))
            for i in range(0, len(centres), cap)
        ]
        kron, err, shapes = zip(*parts)
        return np.concatenate(kron), np.concatenate(err), shapes[0]
    x = (centres[:, None] + halves[:, None] * _NODES).reshape(-1)
    values = _real(integrand(x, owner))
    if values.ndim not in (1, 2) or values.shape[0] != x.size:
        raise ValueError(
            f"integrand returned shape {values.shape} for {x.size} abscissae; "
            f"expected ({x.size},) or ({x.size}, d)"
        )
    both = halves[:, None, None] * (_WEIGHTS @ values.reshape(len(halves), _N, -1))
    return both[:, 0], np.abs(both[:, 0] - both[:, 1]).max(axis=-1), values.shape[1:]


def _bisect(integrand: Callable, partitions: Sequence[np.ndarray], tol: float):
    """Worst-first Gauss-Kronrod bisection of several integrals in one loop.

    partitions[p] holds the increasing edges of problem p's start intervals.
    Each problem keeps its own heap, sums and interval count, so it bisects
    exactly as it would alone; a round pops the worst interval of every
    unconverged problem and evaluates all halves in one integrand call. A
    heap entry is (-error, left end, index), ties on error going to the left
    end, and the index points into flat stores of every interval's right
    end, depth and value, which grow by the halves of each round. A problem
    out of depth or intervals, or with a non-finite error sum, leaves with
    its best estimate. Returns the totals, error sums and failure mask.
    A tol that is not positive and finite raises ValueError before any call.
    """
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    counts = [len(e) - 1 for e in partitions]
    lo, hi = (np.concatenate([e[i:j] for e in partitions]) for i, j in ((0, -1), (1, None)))
    owner = np.repeat(np.arange(len(partitions)), counts)
    kron, err, shape = _gauss_kronrod(integrand, 0.5 * (lo + hi), 0.5 * (hi - lo), owner)
    totals, errs = np.zeros((len(partitions), kron.shape[1])), np.zeros(len(partitions))
    # add.at adds row after row in index order: each problem sums in its partition's order
    np.add.at(totals, owner, kron)
    np.add.at(errs, owner, err)
    # the flat store: interval i's right end, depth and value; its heap entry holds the left end
    right, depth, values, size = hi.tolist(), [0] * len(lo), kron, len(lo)
    heaps = [[] for _ in partitions]
    for i, (p, e, a) in enumerate(zip(owner.tolist(), err.tolist(), lo.tolist())):
        heapq.heappush(heaps[p], (-e, a, i))
    failed = np.zeros(len(partitions), dtype=bool)
    rows = np.arange(len(partitions))  # the problems still looping
    while True:
        popped, centres, halves = [], [], []
        bigs = np.abs(totals[rows]).max(axis=1).tolist()
        for p, e, big in zip(rows.tolist(), errs[rows].tolist(), bigs):
            if e <= tol * max(1.0, big):  # False for a NaN estimate, which stays to fail
                continue
            neg, a, i = heapq.heappop(heaps[p])
            failed[p] = depth[i] >= MAX_DEPTH or counts[p] >= MAX_INTERVALS or not math.isfinite(e)
            if not failed[p]:
                b = right[i]
                mid = 0.5 * (a + b)
                popped.append((p, neg, i, a, mid, b))
                centres += (0.5 * (a + mid), 0.5 * (mid + b))
                halves += (0.5 * (mid - a), 0.5 * (b - mid))
                counts[p] += 1
        if not popped:
            return totals.reshape((len(partitions),) + shape), errs, failed
        rows, neg, index = (np.array(v) for v in list(zip(*popped))[:3])
        kron, err, _ = _gauss_kronrod(integrand, *np.array([centres, halves]), rows.repeat(2))
        totals[rows] = totals[rows] - values[index] + kron[0::2] + kron[1::2]
        # neg drops the split interval's error
        errs[rows] = errs[rows] + (err[0::2] + err[1::2] + neg)
        end = size + len(kron)
        if end > len(values):  # the value store doubles when the halves do not fit
            values = np.concatenate([values, np.empty((end,) + values.shape[1:])])
        values[size:end] = kron
        e = err.tolist()
        for j, (p, _, i, a, mid, b) in enumerate(popped):
            right += (mid, b)
            depth += (depth[i] + 1,) * 2
            heapq.heappush(heaps[p], (-e[2 * j], a, size))
            heapq.heappush(heaps[p], (-e[2 * j + 1], mid, size + 1))
            size += 2


def adaptive_integrate(integrand: Callable, a: float, b: float, tol: float = 1e-10):
    """Globally adaptive Gauss-Kronrod integration of a scalar or vector integrand.

    The integrand receives a 1-D array of n abscissae and returns its values
    with the node axis leading: shape (n,) for a scalar integrand, (n, d) for
    a vector one; any other output shape raises ValueError. The first call
    evaluates [a, b] on the 21 Kronrod nodes, then each bisection makes one
    call on the 42 nodes of both halves. An interval that is empty, reversed
    or not finite raises ValueError, and so does a tol that is not positive
    and finite.

    Bisects the worst interval until the summed error estimate drops below
    tol scaled by max(1, |result|). Raises AccuracyError, carrying the best
    estimate, when the bisection depth or the interval budget runs out, or
    when an integrand value is not finite.
    """
    if not -math.inf < a < b < math.inf:  # NaN fails too
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    edges = np.array([a, b], dtype=float)
    return _certified(*_bisect(lambda x, owner: integrand(x), [edges], tol), tol, one=True)


def _certified(totals, errs, failed, tol: float, one: bool):
    """The totals, or AccuracyError with the best estimates; `one` unwraps problem 0."""
    if one:
        totals, errs = (totals[0] if totals.ndim > 1 else float(totals[0])), float(errs[0])
    if np.any(failed):
        where = f"error estimate {errs:.3e}" if one else f"at {failed.sum()} of {failed.size} points"
        raise AccuracyError(f"tolerance {tol} not met ({where})", totals, errs, None if one else failed)
    return totals


def scaled_legendre(n: int, s):
    """P_n mapped to [0, 1]: P_n(-1 + 2 s). A bad n raises ValueError."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x = -1.0 + 2.0 * np.asarray(s, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p


def diagonal_eigenvalues(count: int) -> np.ndarray:
    """Eigenvalues lambda_n of the scalar operator on scaled Legendre modes.

    lambda_0 = 0 and lambda_n = lambda_{n-1} + 2/n. A count that is not a
    non-negative integer raises ValueError.
    """
    if not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    lam = np.zeros(count)
    for n in range(1, count):
        lam[n] = lam[n - 1] + 2.0 / n
    return lam


def g_pair(curve: FiberCurve, f: Callable, fprime: Callable, s, s_bar: float) -> np.ndarray:
    """Regularized K integrand factor between arclengths s and s_bar, from closures.

    s is a scalar, giving shape (3,), or a 1-D array, giving one row per entry.
    With D = s - s_bar, the chord is R = D m, m = x_s + dm the mean tangent
    over [s_bar, s]; dm comes from the positions where |D| >= 1e-3 L and,
    nearer, as the mean of x_s(u) - x_s by the Kronrod rule on four subpanels. The
    factor is then a sum of terms that each carry an O(D) factor formed
    without cancellation, divided by D, so its rounding noise grows only
    like eps / |D|. Entries equal to s_bar take the analytic limit
    sym(x_s x_ss^T) f + f' + x_s (x_s . f'), the only reader of fprime. The
    limit is written here from the formula rather than taken from
    finitepart, so the reference shares no code with the Nystrom rows it
    checks. A complex value of f raises ValueError.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    xs = np.asarray(curve.tangent(s_bar), dtype=float)
    fbar = _real(f(s_bar))
    ds = s_arr - s_bar
    on_bar = ds == 0.0
    d = np.where(on_bar, 1.0, ds)[:, None]
    dm = (np.asarray(curve.position(s_arr), dtype=float) - curve.position(s_bar)) / d - xs
    near = np.abs(ds) < 1e-3 * curve.length
    if near.any():
        u = s_bar + ds[near, None] * (np.arange(0.5, 4.0)[:, None] + 0.5 * _NODES).ravel() / 4.0
        tangents = np.asarray(curve.tangent(u.ravel()), dtype=float).reshape(u.shape + (3,))
        dm[near] = np.tile(_WEIGHTS[0], 4) @ (tangents - xs) / 8.0
    m = xs + dm
    fv = np.broadcast_to(_real(f(s_arr)), m.shape)
    df = fv - fbar
    norm, mf = np.sqrt(_rowdot(m, m))[:, None], _rowdot(m, fv)[:, None]
    nu = -(2.0 * dm @ xs + _rowdot(dm, dm))[:, None] / (norm * (1.0 + norm))  # 1/|m| - 1
    out = (
        df / norm + fbar * nu + m * mf * nu * (1.0 / norm**2 + 1.0 / norm + 1.0)
        + dm * mf + xs * (_rowdot(dm, fv) + df @ xs)[:, None]
    ) / d
    if on_bar.any():
        xss = np.asarray(curve.second_derivative(s_bar), dtype=float)
        fd = _real(fprime(s_bar))
        out[on_bar] = 0.5 * (xs * (xss @ fbar) + xss * (xs @ fbar)) + fd + xs * (xs @ fd)
    return out if np.ndim(s) else out[0]


def reference_K(
    curve: FiberCurve, f: Callable, fprime: Callable, s_bar: float, tol: float = 1e-9
) -> np.ndarray:
    """Adaptive evaluation of the K operator at one arclength.

    One problem bisects the start edges [0, s_bar, L] with the integrand
    g_pair(s) sign(s - s_bar), smooth on either side of s_bar. Every node
    lies inside its interval, so none sits on s_bar (short of some 45
    bisections) and the integral never calls fprime; it stays in the
    signature until benchmark v2 (ROADMAP item 1).
    """
    if not 0.0 < s_bar < curve.length:
        raise ValueError("s_bar must lie strictly inside (0, length)")

    def integrand(s, owner):
        return g_pair(curve, f, fprime, s, s_bar) * np.sign(s - s_bar)[:, None]

    edges = np.array([0.0, s_bar, curve.length])
    return _certified(*_bisect(integrand, [edges], tol), tol, one=True)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (P, 3) arrays, each with the bits of `a[i] @ b[i]`."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _closest_parameters(curve: FiberCurve, x_bar: np.ndarray) -> np.ndarray:
    """Arclengths of the centerline points closest to the (P, 3) points x_bar.

    A sampled argmin per point brackets the minimum of |x(s) - x_bar|^2;
    safeguarded Newton on phi(s) = (x(s) - x_bar) . x_s(s), with phi' =
    x_s . x_s + (x(s) - x_bar) . x_ss, refines all points at once. A step
    that leaves the bracket, or meets phi' <= 0, bisects instead. An end of
    the fiber at which phi points outward is returned exactly.
    """
    s = np.linspace(0.0, curve.length, _CLOSEST_SAMPLES)
    samples = curve.position(s).T
    i = np.empty(len(x_bar), dtype=int)
    # every slice reuses two (slice, samples) arrays, which bound the memory
    buffers = np.empty((2, min(len(x_bar), _CLOSEST_SLICE), _CLOSEST_SAMPLES))
    for start in range(0, len(x_bar), _CLOSEST_SLICE):
        xb = x_bar[start : start + _CLOSEST_SLICE]
        d, dist2 = buffers[:, : len(xb)]
        # (dx^2 + dy^2) + dz^2 adds in the order of np.sum(d**2, axis=-1), so it has its bits
        np.square(np.subtract(samples[0], xb[:, :1], out=d), out=dist2)
        for c in (1, 2):
            dist2 += np.square(np.subtract(samples[c], xb[:, c : c + 1], out=d), out=d)
        i[start : start + len(xb)] = np.argmin(dist2, axis=1)
    t, lo, hi = s[i], s[np.maximum(i - 1, 0)], s[np.minimum(i + 1, _CLOSEST_SAMPLES - 1)]
    live = np.ones(len(x_bar), dtype=bool)  # a converged point keeps its t
    for _ in range(60):  # bisection alone narrows the sample bracket to 1e-15 L in ~40
        r, xs = curve.position(t) - x_bar, curve.tangent(t)
        phi = _rowdot(r, xs)
        below = phi < 0  # distance still falling: the minimum lies above t
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        dphi = _rowdot(xs, xs) + _rowdot(r, curve.second_derivative(t))
        nxt = t - np.divide(phi, dphi, out=np.full_like(phi, np.nan), where=dphi > 0)
        nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))  # also taken for NaN
        done = np.abs(nxt - t) <= 1e-15 * curve.length
        t = np.where(live, nxt, t)
        live &= ~done
        if not live.any():
            break
    return t


def reference_S(curve: FiberCurve, f: Callable, x_bar, tol: float = 1e-12) -> np.ndarray:
    """Adaptive evaluation of the Stokeslet line integral at one point (3,) or a block (P, 3).

    Complex arrays, other shapes and non-finite points raise ValueError, and so does a point
    on the centerline, where S diverges, naming its row; all before any
    bisection. Each point's start partition has breakpoints at its closest
    centerline parameter s* and at s* -+ h 2^k, graded from h = the closest
    distance (floored at 1e-12 L) to the ends, so the start intervals
    already resolve the near-singular peak. Up to _BLOCK points bisect in
    one loop, each point as it would alone, and no integrand call takes more
    than 2 * _BLOCK intervals. An uncertified point does not stop the
    others, and a block call then raises AccuracyError with (P, 3) best
    estimates and (P,) errors and mask `failed`.
    """
    if np.iscomplexobj(x_bar):
        raise ValueError("field points must be real, got a complex array")
    xb = np.asarray(x_bar, dtype=float)
    if xb.ndim not in (1, 2) or xb.shape[-1] != 3 or not np.all(np.isfinite(xb)):
        raise ValueError(f"field points must be finite with shape (3,) or (P, 3), got {xb.shape}")
    block, length = xb.reshape(-1, 3), curve.length
    s_star = _closest_parameters(curve, block)
    foot = curve.position(s_star) - block
    dist = np.sqrt(_rowdot(foot, foot))
    on_line = np.flatnonzero(dist == 0.0)
    if len(on_line):
        raise ValueError(f"field point {on_line[0]} lies on the centerline, where S diverges")
    h = np.maximum(dist, 1e-12 * length, out=dist)
    totals, errs, failed = np.empty(block.shape), np.empty(len(block)), np.empty(len(block), bool)
    for start in range(0, len(block), _BLOCK):
        run = slice(start, start + _BLOCK)
        pts, s0 = block[run], s_star[run, None]
        levels = np.log2(length / h[run, None]).astype(int) + 1
        # row p: 0, s* - h 2^k from its top level down, s*, s* + h 2^k upward, L; NaN
        # offsets past a point's own levels fail the (0, L) test like breakpoints outside
        k = np.arange(levels.max())
        offsets = np.where(k < levels, h[run, None] * 2.0**k, np.nan)
        edges = np.concatenate(
            [np.zeros_like(s0), s0 - offsets[:, ::-1], s0, s0 + offsets, np.full_like(s0, length)],
            axis=1,
        )
        keep = (edges > 0.0) & (edges < length)
        keep[:, [0, -1]] = True
        sizes = keep.sum(axis=1)
        ends, flat = np.cumsum(sizes), edges[keep]
        partitions = [flat[i:j] for i, j in zip((ends - sizes).tolist(), ends.tolist())]

        def integrand(s, owner):
            r = pts[owner].repeat(_N, axis=0) - np.asarray(curve.position(s), dtype=float)
            rnorm = np.sqrt(np.einsum("nc,nc->n", r, r))[:, None]
            fv = np.broadcast_to(_real(f(s)), r.shape)
            return fv / rnorm + r * np.einsum("nc,nc->n", r, fv)[:, None] / rnorm**3

        totals[run], errs[run], failed[run] = _bisect(integrand, partitions, tol)
    return _certified(totals, errs, failed, tol, one=xb.ndim == 1)
