"""Independent reference computations used to validate the production operators.

The adaptive integrator is a self-contained Gauss-Kronrod 7/15 bisection
scheme sharing no code with the panel quadrature, so agreement between the
two routes is meaningful evidence. Also hosts the diagonalization ground
truth of the scalar finite-part operator and the uniform-grid convergence
metric.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .finitepart import LineDensity, ModifiedWeightTable, eval_K_all, g_pair
from .geometry import FiberCurve, discretize
from .quadcore import QuadratureRule, interpolate_to_uniform

MAX_DEPTH = 50
MAX_INTERVALS = 20000

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1] (positive half).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.000000000000000,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
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


@dataclass
class ErrorGrid:
    """Uniform-grid self-convergence record for the K operator."""

    uniform_count: int
    reference_panels: int
    panel_counts: list[int]
    errors: np.ndarray


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


def _gk15(f: Callable, lo: float, hi: float):
    """Kronrod-15 estimate, its Gauss-7 companion gap, on one interval."""
    half = 0.5 * (hi - lo)
    return _gk15_rule(_evaluate(f, 0.5 * (lo + hi) + half * _X15), half)


def adaptive_integrate(integrand: Callable, a: float, b: float, tol: float = 1e-10):
    """Globally adaptive Gauss-Kronrod integration of a scalar or vector integrand.

    The integrand receives a 1-D array of n abscissae and returns its values
    with the node axis leading: shape (n,) for a scalar integrand, (n, d) for
    a vector one. It is called once on the 15 Kronrod nodes of [a, b], then
    once per bisection on the 30 nodes of both halves; any other output shape
    raises ValueError.

    Bisects the worst interval until the summed error estimate drops below
    tol scaled by max(1, |result|). Raises AccuracyError, carrying the best
    estimate, when the bisection depth or the interval budget runs out.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    val, err = _gk15(integrand, a, b)
    heap = [(-err, a, b, 0, val)]
    total = np.asarray(val, dtype=float)
    total_err = err
    count = 1
    while total_err > tol * max(1.0, float(np.max(np.abs(total)))):
        neg_err, lo, hi, depth, val = heapq.heappop(heap)
        if depth >= MAX_DEPTH or count >= MAX_INTERVALS:
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


def _closest_parameter(curve: FiberCurve, x_bar, samples: int = 2000) -> float:
    """Arclength of the centerline point closest to x_bar."""
    xb = np.asarray(x_bar, dtype=float)
    s = np.linspace(0.0, curve.length, samples)
    d2 = np.sum((curve.position(s) - xb) ** 2, axis=-1)
    i = int(np.argmin(d2))
    lo = s[max(i - 1, 0)]
    hi = s[min(i + 1, samples - 1)]
    # golden-section refinement of the sampled minimum
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)

    def dist2(t):
        return np.sum((curve.position(t) - xb) ** 2)

    # the surviving probe becomes the new opposite probe, so only the fresh
    # one is evaluated per iteration
    fc, fd = dist2(c), dist2(d)
    for _ in range(80):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = dist2(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = dist2(d)
        if hi - lo < 1e-13 * max(curve.length, 1.0):
            break
    return 0.5 * (lo + hi)


def reference_S(curve: FiberCurve, f: Callable, x_bar, tol: float = 1e-12) -> np.ndarray:
    """Adaptive evaluation of the Stokeslet line integral at a field point.

    The interval is pre-split at the closest centerline parameter, which keeps
    the bisection cascade local when x_bar sits very close to the fiber.
    """
    xb = np.asarray(x_bar, dtype=float)

    def integrand(s):
        r = xb - np.asarray(curve.position(s), dtype=float)
        rnorm = np.sqrt(np.einsum("nc,nc->n", r, r))[:, None]
        fv = np.broadcast_to(np.asarray(f(s), dtype=float), r.shape)
        return fv / rnorm + r * np.einsum("nc,nc->n", r, fv)[:, None] / rnorm**3

    s_star = _closest_parameter(curve, xb)
    margin = 1e-9 * curve.length
    if margin < s_star < curve.length - margin:
        left = adaptive_integrate(integrand, 0.0, s_star, tol / 2)
        right = adaptive_integrate(integrand, s_star, curve.length, tol / 2)
        return left + right
    return adaptive_integrate(integrand, 0.0, curve.length, tol)


def convergence_study(
    curve: FiberCurve,
    f: Callable,
    m_list: Sequence[int],
    reference_m: int,
    uniform_count: int,
    rule: QuadratureRule,
    table: ModifiedWeightTable,
) -> ErrorGrid:
    """Uniform-grid self-convergence of K against a fine reference discretization.

    Both the reference and each coarse solution are interpolated to the
    uniform arclengths l*L/N_u, l = 0..N_u, and compared in the pointwise
    2-norm.
    """
    if reference_m < max(m_list):
        raise ValueError("reference panel count must not be below any entry of m_list")
    targets = np.arange(uniform_count + 1) * curve.length / uniform_count

    def k_on_uniform(m: int) -> np.ndarray:
        pcurve = discretize(curve, m, rule)
        density = LineDensity.from_closure(f, pcurve.grid)
        values = eval_K_all(pcurve, density, table)
        return interpolate_to_uniform(values, pcurve.grid, targets)

    reference = k_on_uniform(reference_m)
    errors = np.empty(len(m_list))
    for i, m in enumerate(m_list):
        diff = k_on_uniform(m) - reference
        errors[i] = np.max(np.linalg.norm(diff, axis=1))
    return ErrorGrid(
        uniform_count=uniform_count,
        reference_panels=reference_m,
        panel_counts=list(m_list),
        errors=errors,
    )
