"""Independent reference computations used to validate the production operators.

The adaptive integrator is a self-contained Gauss-Kronrod 7/15 bisection
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
_CLOSEST_SAMPLES = 2000  # centerline samples bracketing the closest point
_CLOSEST_SLICE = 16  # points whose (slice, samples) distances are formed at once
_BLOCK = 128  # field points bisected in one loop; bounds its heaps and node arrays

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1] (positive half), the
# 33-digit literals of QUADPACK's qk15 (Piessens et al., 1983).
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)


class AccuracyError(RuntimeError):
    """Raised when the requested tolerance cannot be certified.

    Carries the best available value in best_estimate and the estimated error
    in error_estimate; for a block of field points, one row per point of each
    and the boolean mask `failed` of the uncertified points.
    """

    def __init__(self, message: str, best_estimate, error_estimate, failed=None):
        super().__init__(message)
        self.best_estimate, self.error_estimate, self.failed = best_estimate, error_estimate, failed


def _mirror(half_values: np.ndarray) -> np.ndarray:
    """Symmetric 15-entry vector from the 8 positive-half entries, outermost first."""
    return np.concatenate([half_values, half_values[-2::-1]])


# All 15 Kronrod nodes in increasing order. Row 0 of _W15 holds the Kronrod
# weights, row 1 the embedded Gauss-7 weights (zero on Kronrod-only nodes).
_X15 = np.concatenate([-_XGK, _XGK[-2::-1]])
_W15 = np.stack([_mirror(_WGK), _mirror(np.insert(_WG, np.arange(4), 0.0))])


def _gk15(integrand: Callable, centres: np.ndarray, halves: np.ndarray, owner: np.ndarray):
    """Kronrod-15 estimates (K, d) on the K intervals centres -+ halves, in one call.

    Also returns each gap to the embedded Gauss-7 estimate and the values'
    shape past the node axis; the stacked matmul gives every interval the
    bits of its own `_W15 @ values`. owner[k] is the problem of interval k.
    More intervals than the 2 * _BLOCK halves of one round are split over
    several calls of that many, which only a loop's start call can need.
    """
    cap = 2 * _BLOCK
    if len(centres) > cap:
        parts = [
            _gk15(integrand, *(v[i : i + cap] for v in (centres, halves, owner)))
            for i in range(0, len(centres), cap)
        ]
        kron, err, shapes = zip(*parts)
        return np.concatenate(kron), np.concatenate(err), shapes[0]
    x = (centres[:, None] + halves[:, None] * _X15).reshape(-1)
    values = np.asarray(integrand(x, owner), dtype=float)
    if values.ndim not in (1, 2) or values.shape[0] != x.size:
        raise ValueError(
            f"integrand returned shape {values.shape} for {x.size} abscissae; "
            f"expected ({x.size},) or ({x.size}, d)"
        )
    both = halves[:, None, None] * (_W15 @ values.reshape(len(halves), 15, -1))
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
    kron, err, shape = _gk15(integrand, 0.5 * (lo + hi), 0.5 * (hi - lo), owner)
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
        kron, err, _ = _gk15(integrand, *np.array([centres, halves]), rows.repeat(2))
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
    evaluates [a, b] on the 15 Kronrod nodes, then each bisection makes one
    call on the 30 nodes of both halves. An interval that is empty, reversed
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


def scaled_legendre(n: int, s, length: float = 1.0):
    """P_n mapped to [0, length]: P_n(-1 + 2 s / length). A bad n or length raises ValueError."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0.0 < length < math.inf:  # NaN fails too
        raise ValueError(f"length must be positive and finite, got {length}")
    x = -1.0 + 2.0 * np.asarray(s, dtype=float) / length
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

    s is a scalar, giving shape (3,), or a 1-D array, giving one row per entry;
    entries equal to s_bar take the analytic limit
    sym(x_s x_ss^T) f + f' + x_s (x_s . f'). The limit is written here from
    the formula rather than taken from finitepart, so the reference shares no
    code with the Nystrom rows it checks.
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
        xss = np.asarray(curve.second_derivative(s_bar), dtype=float)
        fd = np.asarray(fprime(s_bar), dtype=float)
        out[on_bar] = 0.5 * (xs * (xss @ fbar) + xss * (xs @ fbar)) + fd + xs * (xs @ fd)
    return out if s_in.ndim else out[0]


def reference_K(
    curve: FiberCurve,
    f: Callable,
    fprime: Callable,
    s_bar: float,
    tol: float = 1e-9,
) -> np.ndarray:
    """Adaptive evaluation of the K operator at one arclength, split at s_bar.

    The regularized factor is a ratio of nearly cancelling quantities whose
    rounding noise grows like eps/|s - s_bar|^2, so inside a small window the
    factor is replaced by its first-order Taylor model: the analytic limit
    plus a slope estimated by central differences outside the noise zone.
    The bias this introduces sits well below the ~1e-9 the direct integrand
    can certify.
    """
    if not 0.0 < s_bar < curve.length:
        raise ValueError("s_bar must lie strictly inside (0, length)")
    if not 0.0 < tol < math.inf:  # here, since the halves would report tol / 2
        raise ValueError(f"tol must be positive and finite, got {tol}")

    window = 2e-5 * curve.length
    h0 = 1e-3 * curve.length
    g_lim = g_pair(curve, f, fprime, s_bar, s_bar)
    lo = max(s_bar - h0, 0.0)
    hi = min(s_bar + h0, curve.length)
    slope = (
        g_pair(curve, f, fprime, hi, s_bar) - g_pair(curve, f, fprime, lo, s_bar)
    ) / (hi - lo)

    def integrand(s, owner):
        u = (s - s_bar)[:, None]
        taylor = g_lim + slope * u
        g = np.where(np.abs(u) < window, taylor, g_pair(curve, f, fprime, s, s_bar))
        return g * np.sign(u)

    # the two sides of s_bar bisect in one loop, each to tol / 2, and are summed left + right
    edges = [np.array([0.0, s_bar]), np.array([s_bar, curve.length])]
    totals, errs, failed = _bisect(integrand, edges, tol / 2)
    return _certified(totals[:1] + totals[1:], errs[:1] + errs[1:], failed.any(), tol, one=True)


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

    Other shapes and non-finite points raise ValueError, and so does a point
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
            r = pts[owner].repeat(15, axis=0) - np.asarray(curve.position(s), dtype=float)
            rnorm = np.sqrt(np.einsum("nc,nc->n", r, r))[:, None]
            fv = np.broadcast_to(np.asarray(f(s), dtype=float), r.shape)
            return fv / rnorm + r * np.einsum("nc,nc->n", r, fv)[:, None] / rnorm**3

        totals[run], errs[run], failed[run] = _bisect(integrand, partitions, tol)
    return _certified(totals, errs, failed, tol, one=xb.ndim == 1)
