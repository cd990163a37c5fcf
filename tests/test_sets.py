import numpy as np
import pytest

from lazyoco.sets import Ball, Box, ConfigurationError, Simplex, make_set, positive_part

from helpers import simplex_projection_qp


def test_positive_part_examples():
    assert np.array_equal(positive_part(np.array([3.0, -2.0])), [3.0, 0.0])
    assert np.array_equal(positive_part(np.array([0.0, 0.0])), [0.0, 0.0])
    assert np.array_equal(positive_part(np.array([-1.0, -1.0])), [0.0, 0.0])


def test_box_projection_clamps_per_coordinate():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.array_equal(box.project([-1.5, 0.5]), [-1.0, 0.5])


def test_ball_projection_radial_scaling():
    ball = Ball(np.zeros(2), 1.0)
    np.testing.assert_allclose(ball.project([3.0, 4.0]), [0.6, 0.8], atol=1e-15)


def test_simplex_projection_uniform_point():
    # centered input projects to the barycenter; frozen from the QP oracle
    oracle = simplex_projection_qp([0.5, 0.5, 0.5], scale=1.0)
    np.testing.assert_allclose(oracle, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    s = Simplex(3)
    np.testing.assert_allclose(s.project([0.5, 0.5, 0.5]), oracle, atol=1e-12)


def test_simplex_projection_matches_qp_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        s = Simplex(n, scale=1.0)
        for _ in range(200):
            y = rng.uniform(-2.0, 2.0, size=n)
            np.testing.assert_allclose(s.project(y), simplex_projection_qp(y),
                                       atol=1e-8)
    s = Simplex(3, scale=2.5)
    for _ in range(100):
        y = rng.uniform(-3.0, 3.0, size=3)
        np.testing.assert_allclose(s.project(y), simplex_projection_qp(y, scale=2.5),
                                   atol=1e-8)


@pytest.mark.parametrize("domain", [
    Box(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 3.0, -1.0])),
    Ball(np.array([0.5, -0.5]), 2.0),
    Simplex(3, scale=1.5),
])
def test_projection_idempotence_and_optimality(domain):
    rng = np.random.default_rng(11)
    n = domain.dimension
    for _ in range(1000):
        y = rng.uniform(-4.0, 4.0, size=n)
        p = domain.project(y)
        assert domain.contains(p)
        assert np.array_equal(domain.project(p), p)
        x = domain.sample(rng)
        assert np.linalg.norm(p - y) <= np.linalg.norm(x - y) + 1e-12


def test_argmin_linear_box():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.array_equal(box.argmin_linear([2.0, -3.0]), [-1.0, 1.0])
    # zero weight falls back to the supplied point
    out = box.argmin_linear([0.0, 1.0], fallback=np.array([0.25, 0.9]))
    assert np.array_equal(out, [0.25, -1.0])


def test_argmin_linear_against_vertex_enumeration():
    rng = np.random.default_rng(19)
    box = Box(np.array([-1.0, -2.0]), np.array([3.0, 1.0]))
    corners = [np.array([a, b]) for a in (-1.0, 3.0) for b in (-2.0, 1.0)]
    for _ in range(100):
        w = rng.normal(size=2)
        got = float(w @ box.argmin_linear(w))
        best = min(float(w @ c) for c in corners)
        assert got <= best + 1e-12


def test_argmin_linear_ball_and_simplex():
    ball = Ball(np.zeros(2), 2.0)
    np.testing.assert_allclose(ball.argmin_linear([3.0, 4.0]), [-1.2, -1.6],
                               atol=1e-15)
    s = Simplex(3)
    assert np.array_equal(s.argmin_linear([0.3, -0.2, 0.1]), [0.0, 1.0, 0.0])


def test_norm_bound_default_is_farthest_point():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert box.norm_bound == pytest.approx(np.sqrt(2.0))
    assert Ball(np.array([1.0, 0.0]), 2.0).norm_bound >= 2.0
    assert Simplex(4, scale=2.0).norm_bound == pytest.approx(2.0)


def test_make_set_dispatch_and_errors():
    box = make_set("box", lower=[-1.0], upper=[1.0])
    assert isinstance(box, Box)
    assert isinstance(make_set("interval_product", lower=[0.0, 0.0], upper=[1.0, 2.0]), Box)
    assert isinstance(make_set("ball", center=[0.0], radius=1.0), Ball)
    assert isinstance(make_set("simplex", dim=2), Simplex)
    with pytest.raises(ConfigurationError):
        make_set("polytope", lower=[0.0], upper=[1.0])


def test_invalid_set_parameters_rejected():
    with pytest.raises(ConfigurationError):
        Box(np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ConfigurationError):
        Ball(np.zeros(2), -1.0)
    with pytest.raises(ConfigurationError):
        Simplex(0)
    with pytest.raises(ConfigurationError):
        Box(np.array([np.nan]), np.array([1.0]))


def test_dimension_mismatch_rejected():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        box.project([1.0, 2.0, 3.0])
