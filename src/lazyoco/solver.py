"""Inner minimization of aggregated FTRL objectives, and the dual update.

The aggregate objective always has the shape

    S/2 ||x - center||^2 + <linear, x> + sum_i f_i(x)

over a box.  `minimize` is the iterative method for objectives with
curved terms and nothing else: the closed-form step, a prox projection
when S > 0 and a vertex rule when S = 0, is `sets.exact_step`, which the
learners call directly on the arrays they hold.  An objective without
terms, or a smooth one with no curvature at all (S + sum_i L_i = 0), is
refused with a `ConfigurationError` that points there.  `minimize`
checks its inputs once, at entry, and serves the penalty of a learner's
fixed point for a deferred value forecast (n >= 2, with nonzero W~ and
J~) and the general convex objectives criterion 06 checks.  A term is a
pair (f, L): f(x) returns the term's value and gradient, and L is the
Lipschitz constant of that gradient, or None for a nonsmooth term.
When every term is smooth the method is projected gradient with a fixed
step 1 / (S + sum_i L_i); otherwise it is projected subgradient with
step ~ 1/sqrt(k) and best-iterate tracking.  Convergence is judged by
the norm of the gradient map x - project(x - grad(x) / max(S, 1))
against `TOLERANCE` (1e-9), within `MAX_ITERATIONS` steps (10 000):
module constants, which no argument or config overrides.  The iterations
start at `fallback`, or at the prox center without one.

The dual maximization is never iterative: with a quadratic dual
regularizer the maximizer over the nonnegative orthant is the closed
form [a_t (cumulative + predicted)]_+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sets import ConfigurationError, norm

__all__ = [
    "FtrlObjective",
    "SolveResult",
    "minimize",
    "dual_step",
]

# (f, L): f(x) -> (value, gradient); L bounds the gradient's Lipschitz
# constant, or is None for a nonsmooth term
Term = tuple[Callable[[np.ndarray], tuple[float, np.ndarray]], float | None]

TOLERANCE = 1e-9
MAX_ITERATIONS = 10_000


@dataclass
class FtrlObjective:
    domain: object
    quad_weight: float
    quad_center: np.ndarray
    linear: np.ndarray
    constraint_terms: list[Term]

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


def minimize(obj: FtrlObjective, fallback: np.ndarray | None = None) -> SolveResult:
    """Minimize an aggregate objective with at least one term over its feasible set.

    It stops once the gradient map's norm is at most `TOLERANCE`, or after
    `MAX_ITERATIONS` steps unconverged.  Inputs are checked at entry; the
    iterates then stay in the box, so each step is a clip.
    """
    S = float(obj.quad_weight)
    if S < 0.0:
        raise ConfigurationError("quadratic weight must be nonnegative")
    if not obj.constraint_terms:
        raise ConfigurationError("an objective without terms is one closed-form step: "
                                 "use sets.exact_step")
    smooth = all(L is not None for _, L in obj.constraint_terms)
    if smooth:
        curvature = S + sum(L for _, L in obj.constraint_terms)
        if curvature <= 0.0:
            raise ConfigurationError("a smooth objective with zero curvature is linear, "
                                     "one closed-form step: use sets.exact_step")

    start = fallback if fallback is not None else obj.quad_center
    x = obj.domain.project(np.asarray(start, dtype=float))
    lo, hi = obj.domain.lower, obj.domain.upper
    best_res = math.inf
    if not smooth:
        best_x, best_val = x, obj.value(x)

    for k in range(1, MAX_ITERATIONS + 1):
        grad = obj.gradient(x)
        res = _gradient_map_norm(obj, x, grad)
        if res < best_res:
            best_res = res
        if res <= TOLERANCE:
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
                       iterations=MAX_ITERATIONS)


def dual_step(a_t: float, cumulative: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Maximizer of <lam, cumulative + predicted> - ||lam||^2 / (2 a_t) over lam >= 0,
    [a_t (cumulative + predicted)]_+, for float arrays and a positive a_t."""
    return np.maximum(a_t * (cumulative + predicted), 0.0)
