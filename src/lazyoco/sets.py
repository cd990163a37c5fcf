"""The feasible set: an axis-aligned box with exact Euclidean projection.

Every scenario plays on a box, and the offline comparator's exact
solution needs one.  A box knows its dimension, the norm bound D of its
farthest corner (||x|| <= D for every member), an exact projection
(per-coordinate clipping), and an exact minimizer of a linear function.
`exact_step` is the one formula of the closed-form step on a box: the
clip of a prox point, or the vertex rule for an objective with no
curvature.  The box's own methods check the shape and finiteness of what
they are given, for the callers at the boundaries (start points,
`solver.minimize`); the learners' round loops take the same formulas on
arrays they already hold, the lazy learner through `exact_step` and the
greedy baseline by one `clip`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigurationError",
    "positive_part",
    "norm",
    "row_dots",
    "Box",
    "exact_step",
]


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


def row_dots(v: np.ndarray) -> np.ndarray:
    """Each row's row.dot(row) of the 2-D v, bit for bit: `matmul` adds as `.dot` does."""
    return np.matmul(v[:, None, :], v[:, :, None]).ravel()


def _vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
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
    norm_bound: float = field(init=False)

    def __post_init__(self):
        lo = _vector(self.lower, name="lower")
        hi = _vector(self.upper, n=lo.shape[0], name="upper")
        if np.any(lo > hi):
            raise ConfigurationError("box has lower > upper in some coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # farthest corner from the origin
        object.__setattr__(self, "norm_bound",
                           float(np.sqrt(np.sum(np.maximum(lo**2, hi**2)))))

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def project(self, y) -> np.ndarray:
        y = _vector(y, self.dimension, "point")
        return y.clip(self.lower, self.upper)

    def contains(self, x) -> bool:
        """Whether x lies in the box, up to 1e-9 in each coordinate."""
        x = _vector(x, self.dimension, "point")
        return bool(np.all(x >= self.lower - 1e-9) and np.all(x <= self.upper + 1e-9))

    def argmin_linear(self, w, fallback=None) -> np.ndarray:
        """Exact minimizer of <w, x>; zero coordinates fall back to `fallback`."""
        w = _vector(w, self.dimension, "weights")
        if fallback is not None:
            fallback = _vector(fallback, self.dimension, "point")
        return exact_step(self, 0.0, None, w, fallback)


def exact_step(domain: Box, S: float, center: np.ndarray | None, linear: np.ndarray,
               fallback: np.ndarray | None = None) -> np.ndarray:
    """Exact minimizer of S/2 ||x - center||^2 + <linear, x> over the box `domain`.

    With S > 0, the clip of center - linear / S to the box.  With S = 0,
    the vertex rule: each coordinate goes to the end its slope points away
    from, and a zero-slope coordinate keeps `fallback` (clipped to the box),
    or the box midpoint without one.  The arrays are taken as they are:
    their shape and finiteness are the caller's to have checked.
    """
    lo, hi = domain.lower, domain.upper
    if S > 0.0:
        return (center - linear / S).clip(lo, hi)
    tie = 0.5 * (lo + hi) if fallback is None else fallback.clip(lo, hi)
    return np.where(linear > 0.0, lo, np.where(linear == 0.0, tie, hi))
