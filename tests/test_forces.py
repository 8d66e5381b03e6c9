import sys

import numpy as np
import pytest

from helpers import legendre_deriv_coeffs_numpy_scalars, legendre_table_sum
from slenderquad import forces
from slenderquad.forces import legendre_mixture
from slenderquad.geometry import make_helix
from slenderquad.quadcore import legendre_eval


class TestLegendreMixture:
    LENGTH = 1.5

    @pytest.mark.parametrize("modes", range(1, 17))
    def test_equals_the_table_sum_bitwise(self, modes):
        rng = np.random.default_rng(modes)
        alpha = rng.standard_normal(modes)
        dalpha = legendre_deriv_coeffs_numpy_scalars(alpha)
        f, fprime = legendre_mixture(alpha, self.LENGTH)
        s = rng.uniform(0.0, self.LENGTH, 33)
        for point in (s, s.reshape(3, 11), np.array(s[0]), np.float64(s[1]), float(s[2]), 0.0):
            x = -1.0 + 2.0 * np.asarray(point, dtype=float) / self.LENGTH
            value, slope = f(point), fprime(point)
            assert np.shape(value) == np.shape(slope) == np.shape(point)
            assert np.array_equal(value, legendre_table_sum(alpha, x))
            assert np.array_equal(slope, legendre_table_sum(dalpha, x) * 2.0 / self.LENGTH)

    @pytest.mark.parametrize("alpha", [np.array([]), np.ones((2, 3))])
    def test_rejects_coefficients_that_are_not_a_non_empty_vector(self, alpha):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            legendre_mixture(alpha, self.LENGTH)

    def test_closures_do_not_call_legendre_eval(self, monkeypatch):
        # the benchmark counts legendre_eval calls as K's spectral f' and
        # replaces the function under every name a package module binds it to
        calls = []

        def counted(*args):
            calls.append(args)
            return legendre_eval(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("slenderquad"):
                for attr, value in list(vars(module).items()):
                    if value is legendre_eval:
                        monkeypatch.setattr(module, attr, counted)
        f, fprime = legendre_mixture(np.array([0.5, -1.0, 0.25]), self.LENGTH)
        for point in (np.linspace(0.0, self.LENGTH, 7), 0.3):
            f(point), fprime(point)
        assert calls == []


@pytest.mark.parametrize(
    "make", [lambda: forces.testf(1.5), lambda: forces.testf_simple(make_helix(8.0, 3.0, 1.5))],
    ids=["testf", "testf_simple"],
)
def test_fprime_is_the_derivative_of_f(make):
    f, fprime = make()
    s, h = np.linspace(0.05, 1.45, 15), 1e-4
    # fourth-order central difference: truncation and rounding both ~1e-11 here
    slope = (8.0 * (f(s + h) - f(s - h)) - (f(s + 2 * h) - f(s - 2 * h))) / (12.0 * h)
    assert fprime(s).shape == (15, 3)
    assert np.max(np.abs(fprime(s) - slope)) <= 1e-8
