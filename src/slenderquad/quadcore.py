"""Panel-based Gauss-Legendre quadrature, Legendre transforms, and Vandermonde solvers.

Everything here operates on the reference interval [-1, 1] or on a composite
panel grid covering [0, L]. All returned objects are immutable value types and
all functions are pure, so they can be shared freely across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

MAX_ORDER = 64
ETA_BOUND = 10.0


def _store(obj, **values) -> None:
    """Set fields of a frozen dataclass where it is built, arrays made read-only first."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (P, 3) arrays, each with the bits of `a[i] @ b[i]`."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class QuadratureRule:
    """The Gauss-Legendre rule of an order in [1, MAX_ORDER] on [-1, 1].

    The order defines the rule: rules of one order compare and hash equal.
    Nodes, weights and the Legendre transform are computed where the rule is
    built and stored read-only. The nodes come from Newton iteration on P_n
    from the estimates cos(pi*(k - 1/4)/(n + 1/2)); only the positive half is
    iterated and then mirrored, so the node set is exactly symmetric about 0.
    P_n and P_n' are row n of an (n + 1)-row table. transform maps node
    samples to the interpolant's Legendre coefficients, by the discrete
    orthogonality of P_k at the nodes, exact for k below the order.
    """

    order: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    transform: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)) or not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be an integer in [1, {MAX_ORDER}], got {self.order!r}")
        n = int(self.order)
        k = np.arange(1, n // 2 + 1)
        x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_table(x, n + 1)[n]
            dx = p / dp
            x = x - dx
            if x.size == 0 or np.max(np.abs(dx)) < 1e-15:
                break
        dp = _legendre_table(x, n + 1)[n, 1]
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        mid = np.zeros(n % 2)  # the middle node of an odd rule
        dp0 = _legendre_table(mid, n + 1)[n, 1]
        nodes = np.concatenate([-x, mid, x[::-1]])
        weights = np.concatenate([w, 2.0 / (dp0 * dp0), w[::-1]])
        scale = (2.0 * np.arange(n) + 1.0) / 2.0  # transform[k, l] = scale[k] P_k(eta_l) w_l
        transform = scale[:, None] * _legendre_table(nodes, n)[:, 0] * weights[None, :]
        _store(self, order=n, nodes=nodes, weights=weights, transform=transform)

    def __reduce__(self):  # copies and pickles rebuild the rule, read-only arrays and all
        return QuadratureRule, (self.order,)


@dataclass(frozen=True)
class PanelGrid:
    """Composite grid of `panel_count` equal panels over [0, fiber_length].

    Global node ell of panel m sits at (m-1)*ds + ds/2*(eta_ell + 1); the
    stored global weights already carry the ds/2 panel scale, so a plain dot
    product with sample values integrates over [0, fiber_length]. The length,
    count and rule define a grid and are checked where it is built; the width,
    nodes and weights are derived there and stored read-only.
    """

    fiber_length: float
    panel_count: int
    rule: QuadratureRule
    panel_width: float = field(init=False, compare=False)
    global_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    global_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        length, count, rule = self.fiber_length, self.panel_count, self.rule
        if not 0 < length < np.inf:  # NaN fails too
            raise ValueError(f"fiber length must be positive and finite, got {length}")
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"panel count must be an integer >= 1, got {count!r}")
        if not isinstance(rule, QuadratureRule):
            raise ValueError(f"rule must be a QuadratureRule, got {rule!r}")
        ds = length / count
        nodes = ds * np.arange(count)[:, None] + 0.5 * ds * (rule.nodes[None, :] + 1.0)
        weights = np.tile(0.5 * ds * rule.weights, count)
        _store(self, fiber_length=float(length), panel_count=int(count), panel_width=ds)
        _store(self, global_nodes=nodes.ravel(), global_weights=weights)

    def __reduce__(self):  # copies and pickles rebuild the grid from its defining fields
        return PanelGrid, (self.fiber_length, self.panel_count, self.rule)

    @property
    def node_count(self) -> int:
        return self.panel_count * self.rule.order

    def panel_slice(self, m: int) -> slice:
        return slice(m * self.rule.order, (m + 1) * self.rule.order)

    def panel_of_target(self, target_index: int) -> tuple[int, int]:
        """Panel and local node index of a global node index, an integer in [0, N) or ValueError."""
        n = self.rule.order
        if not isinstance(target_index, (int, np.integer)):
            raise ValueError(f"target index must be an integer, got {target_index!r}")
        if not 0 <= target_index < self.node_count:
            raise ValueError(f"target index {target_index} out of range")
        return target_index // n, target_index % n


def gauss_legendre(order: int) -> QuadratureRule:
    """The Gauss-Legendre rule of the given order: QuadratureRule(order), built once per order
    and shared, as the rule is an immutable value with read-only arrays."""
    return _cached_rule(order)


@functools.lru_cache(maxsize=None, typed=True)  # typed: 16.0 is refused, not served rule 16
def _cached_rule(order: int) -> QuadratureRule:
    return QuadratureRule(order)


def legendre_transform_matrix(rule: QuadratureRule) -> np.ndarray:
    """The read-only matrix mapping a rule's node samples to Legendre coefficients.

    It is rule.transform, which every other reader takes directly. K's spectral f'
    calls this once per target node, N calls per K apply that the benchmark's trace
    self-test (bench/test_schema.py) pins until it counts K's work per operator.
    """
    return rule.transform


def legendre_eval(coeffs: np.ndarray, eta):
    """Evaluate (n,) or (d, n) Legendre coefficients at a point or (T,) points.

    eta is real or complex with |eta| <= ETA_BOUND. The point axis leads: the
    result is a scalar or (d,) at one point, (T,) or (T, d) at T points.
    An empty degree axis raises ValueError.
    """
    if np.shape(coeffs)[-1:] == (0,):
        raise ValueError(f"coefficients need a non-empty degree axis, got shape {np.shape(coeffs)}")
    return _legendre_series(coeffs, eta)


def _legendre_series(coeffs: np.ndarray, eta):
    """legendre_eval's loop, which the test densities call under this name.

    It stays apart from _legendre_terms, whose table costs more at K's 3N
    calls per apply; the benchmark counts legendre_eval calls as K's f'.
    """
    c = np.asarray(coeffs).T  # degree axis first
    if isinstance(eta, np.ndarray):
        bound = np.max(np.abs(eta), initial=0.0)
        x = eta[:, None] if c.ndim > 1 else eta
        total = c[0] * np.ones_like(x)
    else:  # a real point runs on Python floats: numpy's IEEE arithmetic at half the cost
        x = eta if isinstance(eta, (complex, np.complexfloating)) else float(eta)
        c = c.tolist() if c.ndim == 1 else c
        bound, total = abs(x), c[0]
    if bound > ETA_BOUND:
        raise ValueError(f"|eta| must not exceed {ETA_BOUND}, got {bound}")
    p_prev, p = 1.0, x
    if len(c) > 1:
        total = total + c[1] * x
    for k in range(2, len(c)):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        total = total + c[k] * p
    return total


def _legendre_table(z: np.ndarray, n: int) -> np.ndarray:
    """P_k(z) and P_k'(z), k = 0..n-1, at a real or complex float array z.

    Returns (n, 2) + z.shape, values in column 0 and derivatives in column 1;
    n may reach MAX_ORDER + 1, for the P_n of a MAX_ORDER rule."""
    terms = _legendre_terms(z, n, np.zeros_like(z), np.ones_like(z))
    return np.array(terms).reshape((n, 2) + z.shape)


@functools.lru_cache(maxsize=None)
def _bonnet(n: int) -> tuple:
    """Bonnet's recurrence coefficients (2k - 1, k - 1, k) as floats for k = 2..n-1, any n."""
    return tuple((2.0 * k - 1.0, k - 1.0, float(k)) for k in range(2, n))


def _legendre_terms(z, n: int, zero=0.0, one=1.0) -> list:
    """P_0(z), P_0'(z), P_1(z), P_1'(z), ..., P_{n-1}'(z) as one flat list of 2n terms.

    The three-term recurrences run in z's own arithmetic: on a Python scalar
    with the default zero and one, or on an array with zero and one arrays
    of its shape. A flat list of scalars converts to an array several times
    faster than nested rows, which Newton's tables on many iterates need.
    Float coefficients give the bits of integer ones, which z's arithmetic
    converts to float or complex first.
    """
    terms = [one, zero, z, one]
    append = terms.append
    p_prev, p = one, z
    dp_prev, dp = zero, one
    for a, b, c in _bonnet(n):
        p_prev, p = p, (a * z * p - b * p_prev) / c
        dp_prev, dp = dp, dp_prev + a * p_prev
        append(p)
        append(dp)
    return terms[: 2 * n]


def _legendre_terms_split(z: np.ndarray, n: int) -> np.ndarray:
    """The (P, n, 2) complex table of P_k(z) and P_k'(z) at P complex points z.

    Row i holds the bits of `_legendre_terms(complex(z[i]), n)`: the same
    recurrences run on float arrays of the real and imaginary parts, with
    CPython's complex operations spelled out, the product as
    (ar br - ai bi, ar bi + ai br). Only the `0.0 *` terms of int x complex
    and complex / int are left out. They can change nothing but a result
    that is an exact zero, so a point with a zero or non-finite P_k part,
    k >= 1, takes its row from `_legendre_terms` itself.
    """
    # [k, value or derivative, real or imaginary part, point]
    w = np.zeros((n, 2, 2, len(z)))
    w[0, 0, 0] = 1.0
    if n > 1:
        w[1, 0] = z.real, z.imag
        w[1, 1, 0] = 1.0
    prod, cross = np.empty((2, 2, len(z)))
    for k in range(2, n):
        a, p, v = (2 * k - 1) * w[1, 0], w[k - 1, 0], w[k, 0]
        np.multiply(a, p, out=prod)
        np.multiply(a, p[::-1], out=cross)
        np.subtract(prod[0], prod[1], out=v[0])
        np.add(cross[0], cross[1], out=v[1])
        v -= (k - 1) * w[k - 2, 0]
        v /= k
        np.add(w[k - 2, 1], (2 * k - 1) * p, out=w[k, 1])
    table = np.ascontiguousarray(w.transpose(3, 0, 1, 2)).view(complex).reshape(len(z), n, 2)
    values = w[1:, 0]
    for i in np.flatnonzero(~(np.isfinite(values) & (values != 0.0)).all(axis=(0, 1))):
        table[i] = np.reshape(_legendre_terms(complex(z[i]), n), (n, 2))
    return table


@functools.lru_cache(maxsize=None)
def _derivative_matrix(n: int) -> np.ndarray:
    """The read-only exact integer (n, n) map from Legendre coefficients to the derivative's:
    P_j' sums (2k + 1) P_k over k < j with j - k odd, so [k, j] = 2k + 1 there."""
    gap = np.arange(n) - np.arange(n)[:, None]
    first = np.where((gap > 0) & (gap % 2 == 1), 2.0 * np.arange(n)[:, None] + 1.0, 0.0)
    first.flags.writeable = False
    return first


def solve_vandermonde_transpose(nodes: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A^T b = rhs with A[l, k] = nodes[l]**k by the Bjorck-Pereyra scheme.

    rhs is one right-hand side of shape (n,), and so is the result. The
    progressive O(n^2) elimination keeps near machine accuracy on the
    ill-conditioned monomial Vandermonde at Gauss-Legendre nodes, where a
    dense LU factorization loses several digits.
    """
    x = np.asarray(nodes, dtype=float)
    b = np.array(rhs, dtype=float)
    n = len(x)
    if b.shape != (n,):
        raise ValueError("rhs must have shape (n,) for n nodes")
    if n > MAX_ORDER:
        raise ValueError(f"system size limited to {MAX_ORDER}")
    if not np.isfinite(x).all():
        raise ValueError("nodes must be finite")
    if len(set(x.tolist())) != n:
        raise ValueError("duplicate nodes make the system singular")
    for k in range(n - 1):  # the sweeps run in place on b
        b[k + 1 :] -= x[k] * b[k : n - 1]
    for k in range(n - 2, -1, -1):
        b[k + 1 :] /= x[k + 1 :] - x[: n - k - 1]
        b[k : n - 1] -= b[k + 1 :]
    return b


def interpolate_to_uniform(
    panel_samples: np.ndarray, grid: PanelGrid, targets: np.ndarray
) -> np.ndarray:
    """Evaluate the per-panel Legendre interpolant of node samples at targets.

    panel_samples has one row per global node and may carry extra columns.
    Targets must lie in [0, L]; points exactly on a shared panel edge use the
    lower-index panel. One pass serves all targets, with P_k from `_legendre_table`;
    c_k P_k add up in legendre_eval's order, k = 0, 1, ..., which keeps its bits.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    samples = np.asarray(panel_samples, dtype=float)
    if samples.shape[0] != grid.node_count:
        raise ValueError("sample count does not match grid")
    if not np.all((targets >= 0.0) & (targets <= grid.fiber_length)):
        raise ValueError("interpolation targets must be finite and lie in [0, L]")
    vector = samples.ndim > 1
    n, width = grid.rule.order, grid.panel_width
    owners = np.clip(np.ceil(targets / width).astype(int) - 1, 0, grid.panel_count - 1)
    local = -1.0 + 2.0 * (targets - owners * width) / width
    coeffs = (grid.rule.transform @ samples.reshape(grid.panel_count, n, -1))[owners]
    p = _legendre_table(local, n)[:, 0, :, None]  # P_k at target t is p[k, t]
    out = coeffs[:, 0] * p[0]
    for k in range(1, n):
        out = out + coeffs[:, k] * p[k]
    return out if vector else out[:, 0]
