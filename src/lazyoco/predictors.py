"""Prediction bundles delivered to the learner with each round.

The bundle for round t is drawn from round t's truth before the learner
picks x_t.  It carries a cost-gradient prediction, a predicted constraint
oracle, the predicted constraint value at the forecaster's own guess of
the action, and (for the linearized learner) the predicted Jacobian at
that guess.  Any of the three point predictions may be deferred: instead
of a concrete array the bundle holds a callable that the learner
evaluates at its own action once that action exists, which makes the
forecaster's guess coincide with the realized point.

Forecast errors are always measured downstream against what the learner
actually used, so every kind here produces valid inputs; the kinds only
differ in how good the forecasts are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import ProblemBounds, RoundOracle
from .sets import ConfigurationError, norm

__all__ = [
    "PredictionBundle",
    "zero_bundle",
    "make_predictor",
    "PREDICTOR_KINDS",
]


@dataclass
class PredictionBundle:
    """Forecast of one upcoming round; array fields may defer to callables."""

    cost_gradient: np.ndarray | None
    constraint: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    predicted_value: np.ndarray | None
    predicted_jacobian: np.ndarray | None
    constraint_affine: tuple[np.ndarray, np.ndarray] | None = None
    cost_gradient_fn: Callable[[np.ndarray], np.ndarray] | None = None
    cost_value_fn: Callable[[np.ndarray], float] | None = None
    cost_smoothness: float | None = None
    predicted_value_fn: Callable[[np.ndarray], np.ndarray] | None = None
    predicted_jacobian_fn: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def deferred_cost(self) -> bool:
        return self.cost_gradient is None

    @property
    def deferred_value(self) -> bool:
        return self.predicted_value is None

    def jacobian_at(self, x: np.ndarray) -> np.ndarray:
        """Predicted-oracle Jacobian at a realized point."""
        if self.constraint_affine is not None:
            return self.constraint_affine[0]
        return self.constraint(x)[1]


def _zero_constraint(n: int, d: int):
    W = np.zeros((d, n))
    u = np.zeros(d)

    def constraint(x):
        return u, W

    return constraint, (W, u)


def zero_bundle(n: int, d: int) -> PredictionBundle:
    """The no-information bundle: all forecasts identically zero."""
    constraint, affine = _zero_constraint(n, d)
    return PredictionBundle(
        cost_gradient=np.zeros(n),
        constraint=constraint,
        predicted_value=np.zeros(d),
        predicted_jacobian=np.zeros((d, n)),
        constraint_affine=affine,
    )


def _clip_ball(v: np.ndarray, radius: float) -> np.ndarray:
    nv = norm(v)
    if nv <= radius or nv == 0.0:
        return v
    return v * (radius / nv)


def _unit(v: np.ndarray, fallback_axis: int = 0) -> np.ndarray:
    nv = norm(v)
    if nv == 0.0:
        e = np.zeros_like(v)
        e[fallback_axis] = 1.0
        return e
    return v / nv


class NonePredictor:
    kind = "none"

    def __init__(self, bounds: ProblemBounds, domain, dimension: int, constraints: int,
                 level: float = 0.0, seed: int | None = None):
        # nothing writes into a bundle, so one serves every round
        self._bundle = zero_bundle(dimension, constraints)

    def note_action(self, x: np.ndarray) -> None:
        pass

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        return self._bundle


def _cost_forecast(truth: RoundOracle) -> dict:
    """Exact cost-gradient forecast; deferred unless the gradient is constant."""
    if truth.cost_affine is not None:
        return {"cost_gradient": truth.cost_affine[0].copy()}
    if truth.cost_quadratic is not None:
        w, u, b = truth.cost_quadratic

        def grad(x, w=w, u=u):
            return w * (x - u)

        def value(x, w=w, u=u, b=b):
            diff = x - u
            return 0.5 * w * float(diff @ diff) + b

        return {"cost_gradient": None, "cost_gradient_fn": grad,
                "cost_value_fn": value, "cost_smoothness": w}
    return {"cost_gradient": None,
            "cost_gradient_fn": lambda x: truth.cost(x)[1],
            "cost_value_fn": lambda x: truth.cost(x)[0],
            "cost_smoothness": None}


class PerfectPredictor:
    """Hands over the true next-round oracles; point forecasts are deferred."""

    kind = "perfect"

    def __init__(self, bounds, domain, dimension, constraints, level=0.0, seed=None):
        self.n = dimension
        self.d = constraints

    def note_action(self, x: np.ndarray) -> None:
        pass

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        parts = _cost_forecast(truth)
        jac = truth.constraint_affine[0].copy() if truth.constraint_affine is not None else None
        return PredictionBundle(
            constraint=truth.constraint,
            constraint_affine=truth.constraint_affine,
            predicted_value=None,
            predicted_value_fn=truth.constraint_value,
            predicted_jacobian=jac,
            predicted_jacobian_fn=None if jac is not None else (lambda x: truth.constraint(x)[1]),
            **parts,
        )


class PerfectGradientsPredictor:
    """True gradients and oracles but no forecast of the next constraint value."""

    kind = "perfect_gradients"

    def __init__(self, bounds, domain, dimension, constraints, level=0.0, seed=None):
        self.n = dimension
        self.d = constraints

    def note_action(self, x: np.ndarray) -> None:
        pass

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        parts = _cost_forecast(truth)
        jac = truth.constraint_affine[0].copy() if truth.constraint_affine is not None else None
        return PredictionBundle(
            constraint=truth.constraint,
            constraint_affine=truth.constraint_affine,
            predicted_value=np.zeros(self.d),
            predicted_jacobian=jac,
            predicted_jacobian_fn=None if jac is not None else (lambda x: truth.constraint(x)[1]),
            **parts,
        )


class NoisyPredictor:
    """Truth blurred by seeded bounded noise, kept inside the declared bounds.

    The cost gradient gets an additive perturbation of norm at most
    level * L_f, then is clipped back to the L_f ball.  The constraint
    oracle is blended, (1 - gamma) g + gamma * const, with gamma =
    min(level, 1) and a random constant vector of norm <= G; blending
    preserves convexity and keeps both the predicted values and the
    Jacobian rows inside the declared bounds, which additive noise on a
    scenario quoted at its exact constants would not.
    """

    kind = "noisy"

    def __init__(self, bounds: ProblemBounds, domain, dimension, constraints,
                 level: float = 0.1, seed: int | None = 0):
        if level < 0.0:
            raise ConfigurationError("noise level must be nonnegative")
        self.bounds = bounds
        self.n = dimension
        self.d = constraints
        self.level = float(level)
        self.gamma = min(self.level, 1.0)
        self.rng = np.random.default_rng(0 if seed is None else int(seed))
        self.last_x = domain.project(np.zeros(dimension))

    def note_action(self, x: np.ndarray) -> None:
        self.last_x = np.asarray(x, dtype=float).copy()

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        # all randomness is drawn here, never inside deferred callables
        e = self.rng.normal(size=self.n)
        e = _unit(e) * self.level * self.bounds.L_f * self.rng.uniform()
        c_guess = truth.cost(self.last_x)[1]
        c_tilde = _clip_ball(c_guess + e, self.bounds.L_f)

        shift = self.rng.normal(size=self.d)
        shift = _unit(shift) * self.bounds.G * self.rng.uniform()
        gamma = self.gamma

        if truth.constraint_affine is not None:
            W, u = truth.constraint_affine
            Wb = (1.0 - gamma) * W
            ub = (1.0 - gamma) * u + gamma * shift
            affine = (Wb, ub)

            def constraint(x, Wb=Wb, ub=ub):
                return Wb @ x + ub, Wb

            value_fn = lambda x, Wb=Wb, ub=ub: Wb @ x + ub
            jac = Wb
        else:
            affine = None

            def constraint(x, g=truth.constraint, s=shift, gamma=gamma):
                vals, J = g(x)
                return (1.0 - gamma) * vals + gamma * s, (1.0 - gamma) * J

            value_fn = lambda x, c=constraint: c(x)[0]
            jac = None

        return PredictionBundle(
            cost_gradient=c_tilde,
            constraint=constraint,
            constraint_affine=affine,
            predicted_value=None,
            predicted_value_fn=value_fn,
            predicted_jacobian=jac,
            predicted_jacobian_fn=None if jac is not None else (lambda x, c=constraint: c(x)[1]),
        )


class AdversarialPredictor:
    """Forecasts at the declared bounds with signs opposing the truth."""

    kind = "adversarial"

    def __init__(self, bounds: ProblemBounds, domain, dimension, constraints,
                 level: float = 0.0, seed: int | None = None):
        self.bounds = bounds
        self.n = dimension
        self.d = constraints
        self.center = domain.project(np.zeros(dimension))

    def note_action(self, x: np.ndarray) -> None:
        pass

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        b = self.bounds
        c_true = truth.cost(self.center)[1]
        c_tilde = -b.L_f * _unit(c_true)

        g_vals, J = truth.constraint(self.center)
        row_norms = np.linalg.norm(J, axis=1)
        fro = float(np.linalg.norm(J))
        scale = 1.0
        if row_norms.max(initial=0.0) > 0.0:
            scale = min(scale, b.L_g / float(row_norms.max()))
        if fro > 0.0:
            scale = min(scale, b.G / (fro * b.D))
        W_adv = -scale * J
        u_adv = np.zeros(self.d)

        v_tilde = -b.G * _unit(g_vals)

        def constraint(x, W=W_adv, u=u_adv):
            return W @ x + u, W

        return PredictionBundle(
            cost_gradient=c_tilde,
            constraint=constraint,
            constraint_affine=(W_adv, u_adv),
            predicted_value=v_tilde,
            predicted_jacobian=W_adv,
        )


PREDICTOR_KINDS = {
    "none": NonePredictor,
    "perfect": PerfectPredictor,
    "perfect_gradients": PerfectGradientsPredictor,
    "noisy": NoisyPredictor,
    "adversarial": AdversarialPredictor,
}


def make_predictor(kind: str, bounds: ProblemBounds, domain, dimension: int,
                   constraints: int, level: float = 0.1, seed: int | None = 0):
    if kind not in PREDICTOR_KINDS:
        raise ConfigurationError(
            f"unknown predictor kind {kind!r}; expected one of {sorted(PREDICTOR_KINDS)}")
    cls = PREDICTOR_KINDS[kind]
    return cls(bounds, domain, dimension, constraints, level=level, seed=seed)
