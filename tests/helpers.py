"""Shared independent oracles for the test suite."""

import copy
import pickle

import numpy as np

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
    """Derivative-series coefficients, accumulated on numpy scalars (reference loop)."""
    c = np.asarray(coeffs)
    n = len(c)
    d = np.zeros(n)
    s = 0.0
    s_next = 0.0
    for k in range(n - 2, -1, -1):
        s, s_next = c[k + 1] + s_next, s
        d[k] = (2 * k + 1) * s
    return d


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
