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

    Carries the best available value in best_estimate and the estimated
    error in error_estimate.
    """

    def __init__(self, message: str, best_estimate, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


def _mirror(half_values: np.ndarray) -> np.ndarray:
    """Symmetric 15-entry vector from the 8 positive-half entries, outermost first."""
    return np.concatenate([half_values, half_values[-2::-1]])


# All 15 Kronrod nodes in increasing order. Row 0 of _W15 holds the Kronrod
# weights, row 1 the embedded Gauss-7 weights (zero on Kronrod-only nodes).
_X15 = np.concatenate([-_XGK, _XGK[-2::-1]])
_W15 = np.stack([_mirror(_WGK), _mirror(np.insert(_WG, np.arange(4), 0.0))])


def _gk15_rule(values: np.ndarray, half: float):
    """Kronrod-15 estimate and its gap to the embedded Gauss-7 from node values."""
    kron, gauss = half * (_W15 @ values)
    return kron, float(np.max(np.abs(kron - gauss)))


def _evaluate(integrand: Callable, x: np.ndarray) -> np.ndarray:
    """Integrand values at the abscissae x, node axis leading."""
    values = np.asarray(integrand(x), dtype=float)
    if values.ndim not in (1, 2) or values.shape[0] != x.size:
        raise ValueError(
            f"integrand returned shape {values.shape} for {x.size} abscissae; "
            f"expected ({x.size},) or ({x.size}, d)"
        )
    return values


def adaptive_integrate(
    integrand: Callable, a: float, b: float, tol: float = 1e-10, points: Sequence[float] = ()
):
    """Globally adaptive Gauss-Kronrod integration of a scalar or vector integrand.

    The integrand receives a 1-D array of n abscissae and returns its values
    with the node axis leading: shape (n,) for a scalar integrand, (n, d) for
    a vector one; any other output shape raises ValueError. The start
    partition splits [a, b] at the strictly increasing interior breakpoints
    `points`; its k + 1 intervals are evaluated in one call on 15 (k + 1)
    Kronrod nodes, then each bisection makes one call on the 30 nodes of both
    halves. Breakpoints that are unsorted, repeated, non-finite or outside
    (a, b) raise ValueError.

    Bisects the worst interval until the summed error estimate drops below
    tol scaled by max(1, |result|). Raises AccuracyError, carrying the best
    estimate, when the bisection depth or the interval budget runs out, or
    when an integrand value is not finite.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    inner = np.asarray(points, dtype=float)
    edges = np.concatenate([[a], inner.ravel(), [b]])
    if inner.ndim != 1 or not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
        raise ValueError(f"points must be finite, strictly increasing and inside ({a}, {b})")
    halves = 0.5 * (edges[1:] - edges[:-1])
    x = 0.5 * (edges[:-1] + edges[1:])[:, None] + halves[:, None] * _X15
    values = _evaluate(integrand, x.reshape(-1))
    heap = []
    total = 0.0
    total_err = 0.0
    for j, half in enumerate(halves):
        val, err = _gk15_rule(values[15 * j : 15 * (j + 1)], half)
        heapq.heappush(heap, (-err, float(edges[j]), float(edges[j + 1]), 0, val))
        total = total + val
        total_err += err
    total = np.asarray(total, dtype=float)
    count = len(heap)
    # `not <=` keeps a NaN estimate (from a non-finite integrand value) in the loop to raise
    while not total_err <= tol * max(1.0, float(np.max(np.abs(total)))):
        neg_err, lo, hi, depth, val = heapq.heappop(heap)
        if depth >= MAX_DEPTH or count >= MAX_INTERVALS or not math.isfinite(total_err):
            result = total if total.ndim else float(total)
            raise AccuracyError(
                f"tolerance {tol} not met (error estimate {total_err:.3e})",
                result,
                total_err,
            )
        mid = 0.5 * (lo + hi)
        half_l = 0.5 * (mid - lo)
        half_r = 0.5 * (hi - mid)
        x = np.concatenate([0.5 * (lo + mid) + half_l * _X15, 0.5 * (mid + hi) + half_r * _X15])
        values = _evaluate(integrand, x)
        vl, el = _gk15_rule(values[:15], half_l)
        vr, er = _gk15_rule(values[15:], half_r)
        total = total - val + vl + vr
        total_err += el + er + neg_err  # neg_err removes the parent's estimate
        heapq.heappush(heap, (-el, lo, mid, depth + 1, vl))
        heapq.heappush(heap, (-er, mid, hi, depth + 1, vr))
        count += 1
    return total if total.ndim else float(total)


def scaled_legendre(n: int, s, length: float = 1.0):
    """P_n mapped to [0, length]: P_n(-1 + 2 s / length)."""
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

    lambda_0 = 0 and lambda_n = lambda_{n-1} + 2/n.
    """
    lam = np.zeros(count)
    for n in range(1, count):
        lam[n] = lam[n - 1] + 2.0 / n
    return lam


def reference_L(
    f: Callable, fprime: Callable, length: float, s_bar: float, tol: float = 1e-12
) -> float:
    """Adaptive evaluation of the scalar finite-part operator, split at s_bar."""
    if not 0.0 < s_bar < length:
        raise ValueError("s_bar must lie strictly inside (0, length)")
    f_bar = f(s_bar)
    fp_bar = fprime(s_bar)

    def integrand(s):
        dist = np.abs(s - s_bar)
        at_bar = dist < 1e-14
        quotient = (np.broadcast_to(f(s), s.shape) - f_bar) / np.where(at_bar, 1.0, dist)
        return np.where(at_bar, fp_bar * np.sign(s - s_bar), quotient)

    left = adaptive_integrate(integrand, 0.0, s_bar, tol / 2)
    right = adaptive_integrate(integrand, s_bar, length, tol / 2)
    return left + right


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

    window = 2e-5 * curve.length
    h0 = 1e-3 * curve.length
    g_lim = g_pair(curve, f, fprime, s_bar, s_bar)
    lo = max(s_bar - h0, 0.0)
    hi = min(s_bar + h0, curve.length)
    slope = (
        g_pair(curve, f, fprime, hi, s_bar) - g_pair(curve, f, fprime, lo, s_bar)
    ) / (hi - lo)

    def integrand(s):
        u = (s - s_bar)[:, None]
        taylor = g_lim + slope * u
        g = np.where(np.abs(u) < window, taylor, g_pair(curve, f, fprime, s, s_bar))
        return g * np.sign(u)

    left = adaptive_integrate(integrand, 0.0, s_bar, tol / 2)
    right = adaptive_integrate(integrand, s_bar, curve.length, tol / 2)
    return left + right


def _closest_parameter(curve: FiberCurve, x_bar) -> float:
    """Arclength of the centerline point closest to x_bar.

    The sampled argmin brackets the minimum of |x(s) - x_bar|^2; safeguarded
    Newton on phi(s) = (x(s) - x_bar) . x_s(s), with
    phi' = x_s . x_s + (x(s) - x_bar) . x_ss, refines it. Each iterate moves
    the bracket end on its side of the sign change of phi, and a step that
    leaves the bracket, or meets phi' <= 0, bisects instead. An end of the
    fiber at which phi points outward is returned exactly.
    """
    xb = np.asarray(x_bar, dtype=float)
    s = np.linspace(0.0, curve.length, _CLOSEST_SAMPLES)
    d2 = np.sum((curve.position(s) - xb) ** 2, axis=-1)
    i = int(np.argmin(d2))
    lo = s[max(i - 1, 0)]
    hi = s[min(i + 1, _CLOSEST_SAMPLES - 1)]
    t = s[i]
    for _ in range(60):  # bisection alone narrows the sample bracket to 1e-15 L in ~40
        r = curve.position(t) - xb
        xs = curve.tangent(t)
        phi = r @ xs
        if phi < 0:  # distance still falling: the minimum lies above t
            lo = t
        else:
            hi = t
        dphi = xs @ xs + r @ curve.second_derivative(t)
        nxt = t - phi / dphi if dphi > 0 else np.nan
        if not lo <= nxt <= hi:  # also taken for NaN
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 1e-15 * curve.length:
            return float(nxt)
        t = nxt
    return float(t)


def reference_S(curve: FiberCurve, f: Callable, x_bar, tol: float = 1e-12) -> np.ndarray:
    """Adaptive evaluation of the Stokeslet line integral at a field point.

    The start partition has breakpoints at the closest centerline parameter
    s* and at s* -+ h 2^k, graded geometrically from h = the closest distance
    (floored at 1e-12 L) out to the ends, so the near-singular peak is
    resolved in the first integrand call rather than by a bisection cascade.
    """
    xb = np.asarray(x_bar, dtype=float)

    def integrand(s):
        r = xb - np.asarray(curve.position(s), dtype=float)
        rnorm = np.sqrt(np.einsum("nc,nc->n", r, r))[:, None]
        fv = np.broadcast_to(np.asarray(f(s), dtype=float), r.shape)
        return fv / rnorm + r * np.einsum("nc,nc->n", r, fv)[:, None] / rnorm**3

    length = curve.length
    s_star = _closest_parameter(curve, xb)
    h = max(float(np.linalg.norm(curve.position(s_star) - xb)), 1e-12 * length)
    offsets = h * 2.0 ** np.arange(int(np.log2(length / h)) + 1)
    points = np.concatenate([s_star - offsets[::-1], [s_star], s_star + offsets])
    points = points[(points > 0.0) & (points < length)]
    return adaptive_integrate(integrand, 0.0, length, tol, points=points)
