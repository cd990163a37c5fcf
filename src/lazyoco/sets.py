"""Feasible sets with exact Euclidean projections.

Three geometries cover everything the learners and scenarios need:
axis-aligned boxes (per-coordinate interval products), Euclidean balls,
and the scaled probability simplex.  Each set knows its dimension, a
norm bound D with ||x|| <= D for every member, an exact projection, and
an exact minimizer of a linear function (used by the degenerate
first-round update, where the aggregate objective has no curvature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigurationError",
    "positive_part",
    "norm",
    "Box",
    "Ball",
    "Simplex",
    "make_set",
]

_EPS = float(np.finfo(np.float64).eps)
_FLOAT = np.dtype(float)


class ConfigurationError(ValueError):
    """Invalid set, solver, learner, or run configuration."""


def positive_part(v: np.ndarray) -> np.ndarray:
    """Elementwise [v]_+ = max(v, 0), the projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array, bit-equal to np.linalg.norm.

    np.linalg.norm computes sqrt(v.dot(v)) for a vector too; calling the
    dot and a correctly rounded sqrt directly skips its dispatch and checks.
    """
    return math.sqrt(v.dot(v))


def _vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    if type(x) is np.ndarray and x.dtype == _FLOAT and x.ndim == 1:
        v = x  # already the array the conversion below would make
    else:
        v = np.atleast_1d(np.asarray(x, dtype=float))
        if v.ndim != 1:
            raise ConfigurationError(f"{name} must be one-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ConfigurationError(f"{name} has dimension {v.shape[0]}, expected {n}")
    if not np.isfinite(v).all():
        raise ConfigurationError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class Box:
    """Product of closed intervals [lower_k, upper_k]."""

    lower: np.ndarray
    upper: np.ndarray
    norm_bound: float = 0.0

    def __post_init__(self):
        lo = _vector(self.lower, name="lower")
        hi = _vector(self.upper, n=lo.shape[0], name="upper")
        if np.any(lo > hi):
            raise ConfigurationError("box has lower > upper in some coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # farthest corner from the origin
        tight = float(np.sqrt(np.sum(np.maximum(lo**2, hi**2))))
        bound = float(self.norm_bound) if self.norm_bound else tight
        object.__setattr__(self, "norm_bound", bound)
        _check_origin_projection(self)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def project(self, y) -> np.ndarray:
        y = _vector(y, self.dimension, "point")
        return y.clip(self.lower, self.upper)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = _vector(x, self.dimension, "point")
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def argmin_linear(self, w, fallback=None) -> np.ndarray:
        """Exact minimizer of <w, x>; zero coordinates fall back to `fallback`."""
        w = _vector(w, self.dimension, "weights")
        out = np.where(w > 0.0, self.lower, self.upper)
        if fallback is not None:
            fb = self.project(fallback)
            out = np.where(w == 0.0, fb, out)
        else:
            out = np.where(w == 0.0, 0.5 * (self.lower + self.upper), out)
        return out.astype(float)

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float
    norm_bound: float = 0.0

    def __post_init__(self):
        c = _vector(self.center, name="center")
        r = float(self.radius)
        if not (np.isfinite(r) and r > 0.0):
            raise ConfigurationError("ball radius must be positive and finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)
        bound = float(self.norm_bound) if self.norm_bound else norm(c) + r
        object.__setattr__(self, "norm_bound", bound)
        _check_origin_projection(self)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def project(self, y) -> np.ndarray:
        y = _vector(y, self.dimension, "point")
        diff = y - self.center
        dist = norm(diff)
        # slight slack keeps project(project(y)) == project(y) bit-exact
        if dist <= self.radius * (1.0 + 4.0 * _EPS):
            return y
        return self.center + diff * (self.radius / dist)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = _vector(x, self.dimension, "point")
        return norm(x - self.center) <= self.radius * (1.0 + 4.0 * _EPS) + tol

    def argmin_linear(self, w, fallback=None) -> np.ndarray:
        w = _vector(w, self.dimension, "weights")
        nw = norm(w)
        if nw == 0.0:
            return self.project(fallback) if fallback is not None else self.center.copy()
        return self.center - w * (self.radius / nw)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True)
class Simplex:
    """Scaled simplex {x >= 0 : sum(x) = scale}."""

    dim: int
    scale: float = 1.0
    norm_bound: float = 0.0

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ConfigurationError("simplex dimension must be >= 1")
        s = float(self.scale)
        if not (np.isfinite(s) and s > 0.0):
            raise ConfigurationError("simplex scale must be positive and finite")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "scale", s)
        bound = float(self.norm_bound) if self.norm_bound else s
        object.__setattr__(self, "norm_bound", bound)
        _check_origin_projection(self)

    @property
    def dimension(self) -> int:
        return self.dim

    def project(self, y) -> np.ndarray:
        """Sort-based projection; O(n log n)."""
        y = _vector(y, self.dim, "point")
        if np.all(y >= 0.0) and abs(float(np.sum(y)) - self.scale) <= 64.0 * _EPS * self.scale:
            return y
        u = np.sort(y)[::-1]
        cssv = np.cumsum(u) - self.scale
        idx = np.arange(1, self.dim + 1)
        cond = u - cssv / idx > 0.0
        rho = int(idx[cond][-1])
        theta = cssv[rho - 1] / rho
        return np.maximum(y - theta, 0.0)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = _vector(x, self.dim, "point")
        return bool(np.all(x >= -tol) and abs(float(np.sum(x)) - self.scale) <= tol)

    def argmin_linear(self, w, fallback=None) -> np.ndarray:
        w = _vector(w, self.dim, "weights")
        best = float(np.min(w))
        tied = np.flatnonzero(w <= best + 0.0)
        if tied.shape[0] > 1 and fallback is not None:
            fb = _vector(fallback, self.dim, "fallback")
            k = int(tied[np.argmax(fb[tied])])
        else:
            k = int(tied[0])
        out = np.zeros(self.dim)
        out[k] = self.scale
        return out

    def bounding_box(self):
        return np.zeros(self.dim), np.full(self.dim, self.scale)


def _check_origin_projection(s) -> None:
    p0 = norm(s.project(np.zeros(s.dimension)))
    if p0 > s.norm_bound * (1.0 + 1e-12) + 1e-12:
        raise ConfigurationError(
            f"norm bound too small: ||project(0)|| = {p0} > {s.norm_bound}")


def make_set(kind: str, **kwargs):
    """Build a feasible set from a kind string; unknown kinds are rejected."""
    kinds = {"box": Box, "interval_product": Box, "ball": Ball, "simplex": Simplex}
    if kind not in kinds:
        raise ConfigurationError(f"unknown set kind {kind!r}; expected one of {sorted(kinds)}")
    return kinds[kind](**kwargs)
