"""Inner minimization of aggregated FTRL objectives, and the dual update.

The aggregate objective always has the shape

    S/2 ||x - center||^2 + <linear, x> + sum_i f_i(x)

over a box.  With no terms the minimizer is exact: `sets.exact_step`, a
prox projection when S > 0, a vertex rule when S = 0.  The learners fold
every round, whose constraint is affine, into `linear`, so their steps
call `exact_step` directly on arrays they already hold.  `minimize`
checks its inputs once, at entry, and handles terms: the penalty of a
learner's fixed point for a deferred value forecast, where the exact
scalar step does not apply, and the general convex objectives criterion
06 checks.  A term is a pair (f, L): f(x) returns the term's value and
gradient, and L is the Lipschitz constant of that gradient, or None for
a nonsmooth term.  Terms are handled iteratively: projected gradient with
a fixed step 1 / (S + sum_i L_i) when every term is smooth, projected
subgradient with step ~ 1/sqrt(k) and best-iterate tracking otherwise.
Convergence is judged by the norm of the gradient map
x - project(x - grad(x) / max(S, 1)).  The `fallback` argument breaks
ties of the vertex rule (coordinates with zero slope) and is where the
iterations start; without it they start at the prox center.

The dual maximization is never iterative: with a quadratic dual
regularizer the maximizer over the nonnegative orthant is the closed
form [a_t (cumulative + predicted)]_+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .sets import ConfigurationError, _vector, exact_step, norm

__all__ = [
    "SolverSettings",
    "FtrlObjective",
    "SolveResult",
    "minimize",
    "dual_step",
]

# (f, L): f(x) -> (value, gradient); L bounds the gradient's Lipschitz
# constant, or is None for a nonsmooth term
Term = tuple[Callable[[np.ndarray], tuple[float, np.ndarray]], float | None]


@dataclass
class SolverSettings:
    tolerance: float = 1e-9
    max_iterations: int = 10000

    def __post_init__(self):
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ConfigurationError("solver tolerance must be positive")
        if int(self.max_iterations) < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.max_iterations = int(self.max_iterations)


@dataclass
class FtrlObjective:
    domain: object
    quad_weight: float
    quad_center: np.ndarray
    linear: np.ndarray
    constraint_terms: list[Term] = field(default_factory=list)

    def value(self, x: np.ndarray) -> float:
        diff = x - self.quad_center
        v = 0.5 * self.quad_weight * float(diff @ diff) + float(self.linear @ x)
        for f, _ in self.constraint_terms:
            v += f(x)[0]
        return v

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = self.quad_weight * (x - self.quad_center) + self.linear
        for f, _ in self.constraint_terms:
            g = g + f(x)[1]
        return g


@dataclass
class SolveResult:
    x: np.ndarray
    residual: float
    converged: bool
    iterations: int = 0


def _gradient_map_norm(obj: FtrlObjective, x: np.ndarray, grad: np.ndarray) -> float:
    scale = max(obj.quad_weight, 1.0)
    return norm(x - (x - grad / scale).clip(obj.domain.lower, obj.domain.upper))


def minimize(obj: FtrlObjective, settings: SolverSettings,
             fallback: np.ndarray | None = None) -> SolveResult:
    """Minimize an aggregate objective over its feasible set.

    Inputs are checked at entry; the iterates then stay in the box, so each step is a clip.
    """
    S = float(obj.quad_weight)
    if S < 0.0:
        raise ConfigurationError("quadratic weight must be nonnegative")

    if not obj.constraint_terms:
        # the checks the learners' direct calls leave to their own boundaries
        n = obj.domain.dimension
        center = _vector(obj.quad_center, n, "center") if S > 0.0 else obj.quad_center
        if fallback is not None:
            fallback = _vector(fallback, n, "fallback")
        x = exact_step(obj.domain, S, center, _vector(obj.linear, n, "linear"), fallback)
        return SolveResult(x=x, residual=0.0, converged=True)

    smooth = all(L is not None for _, L in obj.constraint_terms)
    if smooth:
        curvature = S + sum(L for _, L in obj.constraint_terms)
        if curvature <= 0.0:
            # every term is affine after all; evaluate once and fold
            folded = obj.linear.copy()
            for f, _ in obj.constraint_terms:
                folded = folded + f(obj.quad_center)[1]
            x = obj.domain.argmin_linear(folded, fallback=fallback)
            return SolveResult(x=x, residual=0.0, converged=True)

    start = fallback if fallback is not None else obj.quad_center
    x = obj.domain.project(np.asarray(start, dtype=float))
    lo, hi = obj.domain.lower, obj.domain.upper
    best_x, best_val, best_res = x, obj.value(x), math.inf

    for k in range(1, settings.max_iterations + 1):
        grad = obj.gradient(x)
        res = _gradient_map_norm(obj, x, grad)
        if res < best_res:
            best_res = res
        if res <= settings.tolerance:
            return SolveResult(x=x, residual=res, converged=True, iterations=k)
        if smooth:
            x = (x - grad / curvature).clip(lo, hi)
        else:
            ng = norm(grad)
            step = (1.0 + obj.domain.norm_bound) / ((1.0 + ng) * math.sqrt(k))
            x = (x - step * grad).clip(lo, hi)
            val = obj.value(x)
            if val < best_val:
                best_val, best_x = val, x

    if not smooth:
        x = best_x
        grad = obj.gradient(x)
        best_res = min(best_res, _gradient_map_norm(obj, x, grad))
    return SolveResult(x=x, residual=best_res, converged=False,
                       iterations=settings.max_iterations)


def dual_step(a_t: float, cumulative: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Maximizer of <lam, cumulative + predicted> - ||lam||^2 / (2 a_t) over lam >= 0,
    [a_t (cumulative + predicted)]_+, for float arrays and a positive a_t."""
    return np.maximum(a_t * (cumulative + predicted), 0.0)
