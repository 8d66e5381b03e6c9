"""Standard force densities for the validation experiments, plus a seeded PRNG.

The random Legendre-mixture coefficients come from an explicit splitmix64
stream so identical seeds give bit-identical experiments on any platform.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .geometry import FiberCurve
from .quadcore import _legendre_series, legendre_deriv_coeffs

_MASK = (1 << 64) - 1


def splitmix64_uniforms(seed: int, count: int) -> np.ndarray:
    """count floats in [-1, 1) from the splitmix64 sequence for this seed."""
    state = seed & _MASK
    out = np.empty(count)
    for i in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        out[i] = (z >> 11) * 2.0**-53 * 2.0 - 1.0
    return out


def legendre_mixture(alpha: np.ndarray, length: float) -> tuple[Callable, Callable]:
    """Scalar density sum_n alpha_n P_n(-1 + 2s/L) and its arclength derivative."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or not alpha.size:
        raise ValueError(f"alpha must be a non-empty 1-D array, got shape {alpha.shape}")
    dalpha = legendre_deriv_coeffs(alpha)

    def series(coeffs, s):
        return _legendre_series(coeffs, -1.0 + 2.0 * np.asarray(s, dtype=float) / length)

    def f(s):
        return series(alpha, s)

    def fprime(s):
        return series(dalpha, s) * 2.0 / length

    return f, fprime


def testf(length: float) -> tuple[Callable, Callable]:
    """Smooth three-component density stressing panel resolution.

    Components: cos(2 pi s)^2 + e^{-s} + e^{s-L}, sin(4 pi s)^2, e^{-2s}.
    """

    def f(s):
        s = np.asarray(s, dtype=float)
        return np.stack(
            [
                np.cos(2 * np.pi * s) ** 2 + np.exp(-s) + np.exp(s - length),
                np.sin(4 * np.pi * s) ** 2,
                np.exp(-2.0 * s),
            ],
            axis=-1,
        )

    def fprime(s):
        s = np.asarray(s, dtype=float)
        return np.stack(
            [
                -2 * np.pi * np.sin(4 * np.pi * s) - np.exp(-s) + np.exp(s - length),
                4 * np.pi * np.sin(8 * np.pi * s),
                -2.0 * np.exp(-2.0 * s),
            ],
            axis=-1,
        )

    return f, fprime


def testf_simple(curve: FiberCurve) -> tuple[Callable, Callable]:
    """Gentle density (x(s) + 10, sin s, cos s) tied to the fiber geometry."""

    def f(s):
        s = np.asarray(s, dtype=float)
        x_comp = np.asarray(curve.position(s))[..., 0]
        return np.stack([x_comp + 10.0, np.sin(s), np.cos(s)], axis=-1)

    def fprime(s):
        s = np.asarray(s, dtype=float)
        tx = np.asarray(curve.tangent(s))[..., 0]
        return np.stack([tx, np.cos(s), -np.sin(s)], axis=-1)

    return f, fprime
