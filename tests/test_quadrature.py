import math

import mpmath
import numpy as np
import pytest

from ppt import quadrature
from ppt.errors import QuadratureError, UnsupportedDimensionError
from ppt.quadrature import integrate, pointwise


def test_polynomial_exact():
    f = lambda x: np.asarray(x)[..., 0] ** 3 - 2 * np.asarray(x)[..., 0]
    assert integrate(f, [0.0], [2.0]) == pytest.approx(4.0 - 4.0, abs=1e-12)


def test_exponential_analytic():
    f = lambda x: np.exp(np.asarray(x)[..., 0])
    assert integrate(f, [0.0], [1.0]) == pytest.approx(math.e - 1.0, rel=1e-12)


def test_kinked_integrand():
    # |x - 1| on [0, 2] integrates to 1
    f = lambda x: np.abs(np.asarray(x)[..., 0] - 1.0)
    assert integrate(f, [0.0], [2.0]) == pytest.approx(1.0, rel=1e-9)


def test_step_function():
    f = lambda x: np.where(np.asarray(x)[..., 0] < 0.5, 0.0, 2.0)
    assert integrate(f, [0.0], [1.0]) == pytest.approx(1.0, rel=1e-7)


def test_scalar_only_integrand_falls_back():
    f = pointwise(lambda x: x[0] ** 2)
    assert integrate(f, [0.0], [1.0]) == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_scalar_two_coordinate_integrand_not_misread():
    # product of coordinates written for one point: evaluated on a batch it
    # would multiply two rows instead, so it goes through the row adapter
    f = pointwise(lambda x: x[0] * x[1])
    assert integrate(f, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(0.25, rel=1e-9)


def test_2d_product_structure():
    # separable integrand: (int_0^1 e^x dx)^2
    f = lambda x: np.exp(np.asarray(x)[..., 0] + np.asarray(x)[..., 1])
    got = integrate(f, [0.0, 0.0], [1.0, 1.0])
    assert got == pytest.approx((math.e - 1.0) ** 2, rel=1e-10)


def test_3d_constant():
    f = lambda x: np.full(np.asarray(x).shape[:-1], 3.0)
    got = integrate(f, [0.0, 0.0, 0.0], [1.0, 2.0, 0.5])
    assert got == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_infinite_integrand(dim):
    # a hard-core potential: inf on the whole box, or on part of it
    f = lambda x: np.where(np.asarray(x)[..., 0] < 0.6, math.inf, 1.0)
    assert integrate(f, [0.0] * dim, [1.0] * dim) == math.inf


def test_dimension_above_three_rejected():
    with pytest.raises(UnsupportedDimensionError):
        integrate(lambda x: 1.0, [0.0] * 4, [1.0] * 4)


def test_nonconvergence_carries_trace():
    f = lambda x: np.where(np.asarray(x)[..., 0] < 1.0 / 3.0, 0.0, 1.0)
    with pytest.raises(QuadratureError) as err:
        integrate(f, [0.0], [1.0], rel_tol=0.0, abs_tol=0.0)  # no target a jump can meet
    assert len(err.value.trace) == 5  # the worst panels when the 4000-panel budget ran out
    assert "4000 panels" in str(err.value)
    # each as (lower, upper, error) of a box
    assert all(len(lo) == len(hi) == 1 and lo[0] < hi[0] and e > 0.0 for lo, hi, e in err.value.trace)


def test_kronrod_table():
    # the 7 Gauss nodes are every second Kronrod node, with leggauss's weights
    x, w = np.polynomial.legendre.leggauss(7)
    gauss = quadrature._W_GAUSS > 0
    assert np.allclose(quadrature._X[gauss], x, rtol=0.0, atol=4e-16)
    assert np.allclose(quadrature._W_GAUSS[gauss], w, rtol=0.0, atol=4e-16)
    # the 15-point rule integrates x^(2k) over [-1, 1] exactly for k <= 11,
    # summed exactly in mpmath from the table's doubles
    nodes, weights = quadrature._X.tolist(), quadrature._W_KRONROD.tolist()
    with mpmath.workdps(50):
        for k in range(12):
            got = mpmath.fsum(mpmath.mpf(wk) * mpmath.mpf(xk) ** (2 * k) for wk, xk in zip(weights, nodes))
            assert abs(got - mpmath.mpf(2) / (2 * k + 1)) <= 1e-15, k
