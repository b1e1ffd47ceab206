"""The point-function convention: vectorised over the last axis, checked on
every evaluation, with ``ppt.pointwise`` as the one explicit adapter."""

import numpy as np
import pytest

import ppt
from ppt import IntensityMeasure, SuperpositionCoupling, ValidationError, Window
from ppt.cli import parse_density_expr
from ppt.quadrature import eval_points, integrate

UNIT = Window([0.0], [1.0])
SQUARE = Window([0.0, 0.0], [1.0, 1.0])


def _library_point_functions(window):
    fns = {expr: parse_density_expr(expr) for expr in ("const:1.5", "poly:1,2", "exp:1,0.5", "step:0.5,1,2")}
    uniform = IntensityMeasure.uniform(window, 2.0)
    fns["uniform"] = uniform.density
    fns["scaled"] = uniform.scaled(3.0).density
    coupling = SuperpositionCoupling(uniform, parse_density_expr("step:0.5,0.5,2"), p_sup=2.0)
    fns["shared"] = coupling.shared.density
    fns["left_extra"] = coupling.left_extra.density
    fns["right_extra"] = coupling.right_extra.density
    return fns


@pytest.mark.parametrize("window", [UNIT, SQUARE], ids=["d1", "d2"])
@pytest.mark.parametrize("n", [7, 0])
def test_library_point_functions_return_leading_shape(window, n):
    x = np.random.default_rng(3).uniform(0.0, 1.0, size=(n, window.dim))
    for name, fn in _library_point_functions(window).items():
        out = np.asarray(fn(x))
        assert out.shape == (n,), name
        assert out.dtype == float, name


def test_misread_step_integrand_raises():
    step = lambda x: 1.0 if x[0] < 0.3 else 0.0
    with pytest.raises(ValidationError, match="pointwise"):
        integrate(step, [0.0], [1.0])
    assert integrate(ppt.pointwise(step), [0.0], [1.0]) == pytest.approx(0.3, rel=1e-7)


def test_misread_step_density_raises():
    step = lambda x: 2.0 if x[0] < 0.5 else 1.0
    with pytest.raises(ValidationError, match="pointwise"):
        _ = IntensityMeasure(step, UNIT, 2.0).total_mass
    sigma = IntensityMeasure(ppt.pointwise(step), UNIT, 2.0)
    assert sigma.total_mass == pytest.approx(1.5, rel=1e-7)


def test_wrong_output_shape_raises():
    pts = np.zeros((4, 2))
    with pytest.raises(ValidationError):
        eval_points(lambda x: np.ones(3), pts)
    with pytest.raises(ValidationError):
        eval_points(lambda x: np.ones((4, 1)), pts)
    assert eval_points(lambda x: x[..., 0] + x[..., 1], pts).shape == (4,)


def test_unvectorised_p_rejected_by_coupling_and_bound():
    sigma = IntensityMeasure.uniform(UNIT, 1.0)
    p = lambda x: 2.0
    with pytest.raises(ValidationError):
        SuperpositionCoupling(sigma, p, p_sup=2.0)
    with pytest.raises(ValidationError):
        ppt.bound_tv_poisson(p, sigma)
    assert ppt.bound_tv_poisson(ppt.pointwise(p), sigma).value == pytest.approx(1.0, rel=1e-9)


def test_pointwise_shapes_and_label():
    f = parse_density_expr("poly:0,1")
    g = ppt.pointwise(lambda x: float(x[0]))
    x = np.random.default_rng(5).uniform(size=(3, 4, 1))
    assert np.array_equal(g(x), f(x))
    assert g(np.empty((0, 1))).shape == (0,)
    assert g(np.array([0.25])).shape == ()
    assert ppt.pointwise(f).expr == "poly:0,1"  # digests keep the wrapped label
