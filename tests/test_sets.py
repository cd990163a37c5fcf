import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from lazyoco.sets import Box, ConfigurationError, exact_step, norm, positive_part

from helpers import sample


def test_positive_part_examples():
    assert np.array_equal(positive_part(np.array([3.0, -2.0])), [3.0, 0.0])
    assert np.array_equal(positive_part(np.array([0.0, 0.0])), [0.0, 0.0])
    assert np.array_equal(positive_part(np.array([-1.0, -1.0])), [0.0, 0.0])


def test_box_projection_clamps_per_coordinate():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.array_equal(box.project([-1.5, 0.5]), [-1.0, 0.5])


@pytest.mark.parametrize("domain", [
    Box(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 3.0, -1.0])),
    Box(np.array([0.5]), np.array([2.0])),
    # a flat box: one coordinate is a single point
    Box(np.array([-1.0, 0.25]), np.array([1.0, 0.25])),
])
def test_projection_idempotence_and_optimality(domain):
    rng = np.random.default_rng(11)
    n = domain.dimension
    for _ in range(1000):
        y = rng.uniform(-4.0, 4.0, size=n)
        p = domain.project(y)
        assert domain.contains(p)
        assert np.array_equal(domain.project(p), p)
        x = sample(domain, rng)
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


def test_norm_bound_default_is_farthest_point():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert box.norm_bound == pytest.approx(np.sqrt(2.0))
    assert Box(np.array([-3.0, 0.5]), np.array([1.0, 2.0])).norm_bound == pytest.approx(
        np.sqrt(13.0))
    # the bound is the farthest corner's norm, not a setting
    with pytest.raises(TypeError):
        Box(np.array([-1.0]), np.array([1.0]), norm_bound=5.0)


def test_invalid_set_parameters_rejected():
    with pytest.raises(ConfigurationError):
        Box(np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ConfigurationError):
        Box(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        Box(np.array([-1.0, -1.0]), np.array([1.0]))


def test_dimension_mismatch_rejected():
    # one loop rather than a parametrization keeps this test's id
    for domain in (Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                   Box(np.array([0.0, -2.0]), np.array([0.0, 3.0]))):
        bad_points = (
            [1.0, 2.0, 3.0],
            np.zeros(3),
            np.zeros((2, 1)),
            np.zeros((1, 2)),
            np.array([np.nan, 0.0]),
            np.array([0.0, np.inf]),
            np.array([-np.inf, 0.0]),
            [np.nan, 0.0],
        )
        for point in bad_points:
            with pytest.raises(ConfigurationError):
                domain.project(point)
            with pytest.raises(ConfigurationError):
                domain.argmin_linear(point)


def test_norm_is_bit_equal_to_linalg_norm():
    rng = np.random.default_rng(23)
    for n in range(1, 11):
        for scale in (1e-5, 1e-2, 1.0, 1e3, 1e5):
            for _ in range(200):
                v = rng.normal(size=n) * scale
                assert norm(v) == float(np.linalg.norm(v))
    assert norm(np.zeros(4)) == 0.0


# values where a clip taken as a min and a max could part from `ndarray.clip`:
# signed zeros, NaN, infinities, the smallest subnormals and plain values
CLIP_EDGES = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0, 0.5, -2.0)


def clip_step(v, lo, hi):
    """`exact_step`'s prox branch at S = 1 with no linear term, whose point is v
    itself (v - 0.0 keeps every bit), on a box with the bounds lo and hi as given."""
    return exact_step(SimpleNamespace(lower=lo, upper=hi), 1.0, v, np.zeros_like(v))


def test_exact_step_clips_as_ndarray_clip_bit_for_bit():
    """The prox branch clips as `ndarray.clip` does, bit for bit: on each
    triple of edge values (lo == hi among them), and on random arrays over
    every SIMD tail length."""
    for v, lo, hi in itertools.product(CLIP_EDGES, repeat=3):
        v, lo, hi = np.array([v]), np.array([lo]), np.array([hi])
        assert clip_step(v, lo, hi).tobytes() == v.clip(lo, hi).tobytes(), (v, lo, hi)
    rng = np.random.default_rng(41)
    for k in (*range(1, 41), 257):
        for _ in range(200):
            pool = np.concatenate([CLIP_EDGES, rng.normal(size=5)])
            v, lo, hi = (rng.choice(pool, size=k) for _ in range(3))
            hi = np.where(rng.random(k) < 0.2, lo, hi)
            assert clip_step(v, lo, hi).tobytes() == v.clip(lo, hi).tobytes(), k
