import math

import numpy as np
import pytest

from lazyoco.sets import Box, ConfigurationError, exact_step
from lazyoco.solver import FtrlObjective, SolveResult, dual_step, minimize

from helpers import dual_grid_argmax, grid_min_1d, grid_min_1d_vec, refine_min_2d_vec, sample

BOX1 = Box(np.array([-1.0]), np.array([1.0]))
BOX2 = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def test_prox_projection_closed_form():
    # S=2, center 0, linear (3,-1): prox point (-1.5, 0.5) clamps to the box
    x = exact_step(BOX2, 2.0, np.zeros(2), np.array([3.0, -1.0]))
    assert np.array_equal(x, [-1.0, 0.5])


def test_smooth_constraint_term_stationary_point():
    # x^2/2 + x + x^2 has its minimum at -1/3, interior to [-1, 1]
    def sq(x):
        return float(x[0]) ** 2, 2.0 * x

    obj = FtrlObjective(BOX1, 1.0, np.zeros(1), np.array([1.0]), [(sq, 2.0)])
    res = minimize(obj)
    assert res.converged
    assert res.x[0] == pytest.approx(-1.0 / 3.0, abs=1e-8)


def test_nonsmooth_absolute_value_term():
    # oracle first: grid search of x^2/2 + x + |x| at 1e-5 resolution
    expected = grid_min_1d(lambda x: 0.5 * x * x + x + abs(x), -1.0, 1.0, 1e-5)
    assert expected == pytest.approx(0.0, abs=1e-5)

    def absval(x):
        return abs(float(x[0])), np.array([math.copysign(1.0, x[0])])

    obj = FtrlObjective(BOX1, 1.0, np.zeros(1), np.array([1.0]), [(absval, None)])
    res = minimize(obj)
    assert abs(res.x[0] - expected) <= 1e-3


def test_linear_objective_vertex_and_fallback():
    x = exact_step(BOX2, 0.0, np.zeros(2), np.array([0.5, -2.0]))
    assert np.array_equal(x, [-1.0, 1.0])
    x = exact_step(BOX2, 0.0, np.zeros(2), np.zeros(2), np.array([0.3, -0.2]))
    assert np.array_equal(x, [0.3, -0.2])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_exact_step_is_the_checked_box_step(n):
    """The learners' direct step is, bit for bit, the box's own checked
    projection or vertex rule, on 500 random box problems."""
    rng = np.random.default_rng(40 + n)
    zero_slopes = 0
    for k in range(500):
        lo = rng.uniform(-2.0, 0.0, size=n)
        box = Box(lo, lo + rng.uniform(0.0, 3.0, size=n) * (rng.random(n) < 0.9))
        S = 0.0 if k % 2 else rng.uniform(0.0, 3.0)
        center = rng.uniform(-3.0, 3.0, size=n)
        linear = rng.uniform(-2.0, 2.0, size=n) * (rng.random(n) < 0.7)
        fallback = rng.uniform(-3.0, 3.0, size=n) if k % 4 < 2 else None
        zero_slopes += int(S == 0.0 and fallback is not None and (linear == 0.0).any())
        got = exact_step(box, S, center, linear, fallback)
        ref = box.project(center - linear / S) if S > 0.0 else \
            box.argmin_linear(linear, fallback=fallback)
        assert got.dtype == ref.dtype and got.shape == (n,)
        assert got.tobytes() == ref.tobytes()
    assert zero_slopes > 25


def test_negative_quad_weight_rejected():
    obj = FtrlObjective(BOX1, -1.0, np.zeros(1), np.zeros(1), [])
    with pytest.raises(ConfigurationError):
        minimize(obj)


def test_closed_form_agrees_with_iterative_path():
    """A zero-weight smooth term forces the iterative path; same minimizer."""
    rng = np.random.default_rng(21)

    def zero_term(x):
        # ||x||^2 at weight 0
        return 0.0 * float(x @ x), 0.0 * (2.0 * x)

    for _ in range(200):
        S = rng.uniform(0.5, 3.0)
        center = rng.uniform(-0.5, 0.5, size=2)
        linear = rng.uniform(-2.0, 2.0, size=2)
        direct = exact_step(BOX2, S, center, linear)
        iterative = minimize(
            FtrlObjective(BOX2, S, center, linear, [(zero_term, 0.0 * 2.0)]))
        assert np.linalg.norm(direct - iterative.x) <= 1e-8


def affine_term(x):
    return float(x[0]), np.ones(1)


@pytest.mark.parametrize("S, terms", [(1.0, []), (0.0, [(affine_term, 0.0)])],
                         ids=["no_terms", "zero_curvature"])
def test_closed_form_objectives_are_refused(S, terms):
    """`minimize` only iterates: an objective without terms, or a smooth one with
    no curvature at all, is one closed-form step, and the refusal says where."""
    obj = FtrlObjective(BOX1, S, np.zeros(1), np.array([0.5]), terms)
    with pytest.raises(ConfigurationError, match="sets.exact_step"):
        minimize(obj)


def random_instance(rng, n):
    """Random FtrlObjective plus an independent vectorized evaluator.

    Its one term is w times an affine, quadratic or l1 function; the weight
    scales the term's value, gradient and smoothness constant.
    """
    S = rng.uniform(0.3, 3.0)
    center = rng.uniform(-0.8, 0.8, size=n)
    linear = rng.uniform(-2.0, 2.0, size=n)
    kind = rng.integers(0, 3)
    w = rng.uniform(0.1, 1.5)
    anchor = rng.uniform(-0.5, 0.5, size=n)

    if kind == 0:
        # affine term
        row = rng.uniform(-1.0, 1.0, size=n)
        off = rng.uniform(-0.5, 0.5)

        def term(x, row=row, off=off):
            return w * (float(row @ x) + off), w * row

        smooth = 0.0

        def extra(pts, row=row, off=off):
            return pts @ row + off
    elif kind == 1:
        # shifted quadratic
        def term(x, anchor=anchor):
            d = x - anchor
            return w * float(d @ d), w * (2.0 * d)

        smooth = 2.0

        def extra(pts, anchor=anchor):
            return np.sum((pts - anchor) ** 2, axis=1)
    else:
        # non-smooth l1 distance from the anchor
        def term(x, anchor=anchor):
            d = x - anchor
            return w * float(np.sum(np.abs(d))), w * np.sign(d)

        smooth = None

        def extra(pts, anchor=anchor):
            return np.sum(np.abs(pts - anchor), axis=1)

    domain = BOX1 if n == 1 else BOX2
    obj = FtrlObjective(domain, S, center, linear,
                        [(term, None if smooth is None else w * smooth)])

    def values(pts):
        pts2 = np.atleast_2d(pts)
        quad = 0.5 * S * np.sum((pts2 - center) ** 2, axis=1)
        return quad + pts2 @ linear + w * extra(pts2)

    return obj, values


def test_solver_matches_grid_oracle_1d_and_2d():
    """Criterion-6 style sweep: solver vs an independent fine grid."""
    rng = np.random.default_rng(1234)
    for i in range(100):
        n = 1 if i % 2 == 0 else 2
        obj, values = random_instance(rng, n)
        res = minimize(obj)
        if n == 1:
            x_grid = grid_min_1d_vec(lambda xs: values(xs[:, None]), -1.0, 1.0, 1e-4)
            assert abs(res.x[0] - x_grid) <= 1e-3, f"instance {i}"
        else:
            x_grid = refine_min_2d_vec(values, [-1.0, -1.0], [1.0, 1.0],
                                       coarse_count=401, fine_step=1e-4)
            assert np.linalg.norm(res.x - x_grid) <= 1e-3, f"instance {i}"


def test_solver_residual_certifies_near_optimality():
    """obj(x) <= obj(y) + tol * (1 + ||grad obj(x)||) for random feasible y."""
    rng = np.random.default_rng(5)
    for i in range(100):
        n = 1 if i % 2 == 0 else 2
        obj, _ = random_instance(rng, n)
        res = minimize(obj, tolerance=1e-10)
        vx = obj.value(res.x)
        gn = float(np.linalg.norm(obj.gradient(res.x)))
        for _ in range(20):
            y = sample(obj.domain, rng)
            assert vx <= obj.value(y) + 1e-6 * (1.0 + gn)


def test_max_iterations_reports_best_iterate():
    def absval(x):
        return abs(float(x[0])), np.array([math.copysign(1.0, x[0])])

    obj = FtrlObjective(BOX1, 1.0, np.zeros(1), np.array([1.0]), [(absval, None)])
    res = minimize(obj, max_iterations=3)
    assert isinstance(res, SolveResult)
    assert not res.converged
    assert math.isfinite(res.residual)


def test_dual_closed_form_examples():
    out = dual_step(0.5, np.array([3.0, -2.0]), np.array([1.0, 0.0]))
    assert np.array_equal(out, [2.0, 0.0])
    out = dual_step(1.0, np.array([-1.0, -3.0]), np.array([0.5, 1.0]))
    assert np.array_equal(out, [0.0, 0.0])
    out = dual_step(1.0, np.array([4.0]), np.array([1.0]))
    assert np.array_equal(out, [5.0])
    # brute agreement on the same instance
    grid = dual_grid_argmax(1.0, np.array([5.0]), resolution=1e-4, pad=5.0)
    assert abs(out[0] - grid[0]) <= 1e-3


def test_dual_closed_form_matches_grid_argmax():
    """Criterion-5 style sweep over random (a_t, cumulative, predicted)."""
    rng = np.random.default_rng(77)
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        a_t = rng.uniform(0.05, 1.2)
        cum = rng.uniform(-1.5, 1.5, size=d)
        pred = rng.uniform(-1.0, 1.0, size=d)
        lam = dual_step(a_t, cum, pred)
        grid = dual_grid_argmax(a_t, cum + pred)
        assert np.linalg.norm(lam - grid) <= 1e-3, f"instance {i}"


def test_solver_settings_validation():
    """`minimize` checks its tolerance and iteration limit at entry."""
    obj = FtrlObjective(BOX1, 1.0, np.zeros(1), np.array([1.0]), [(affine_term, 0.0)])
    with pytest.raises(ConfigurationError):
        minimize(obj, tolerance=0.0)
    with pytest.raises(ConfigurationError):
        minimize(obj, max_iterations=0)
