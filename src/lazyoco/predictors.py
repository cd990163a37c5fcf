"""Prediction bundles delivered to the learner with each round.

The bundle for round t is drawn from round t's truth before the learner
picks x_t.  Every round a run plays has an affine constraint and an
affine or quadratic cost, so every forecast is in closed form: the
predicted constraint g~(x) = W~ x + u~, and either a cost gradient c~ or
a quadratic cost forecast (w, u), f~(x) = w/2 ||x - u||^2 + const.  The
constraint value forecast v~ may be deferred (None): it then means g~ at
the point the learner plays, W~ x_t + u~, which makes the forecaster's
guess of the action coincide with the realized point.

Forecast errors are always measured downstream against what the learner
actually used, so every kind here produces valid inputs; the kinds only
differ in how good the forecasts are.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Forecast of one upcoming round, in closed form.

    cost_gradient      c~, or None when the cost forecast is quadratic
    constraint_affine  (W~, u~), the predicted constraint W~ x + u~
    predicted_value    v~, or None for W~ x + u~ at the played x
    cost_quadratic     (w, u), set when cost_gradient is None
    """

    cost_gradient: np.ndarray | None
    constraint_affine: tuple[np.ndarray, np.ndarray]
    predicted_value: np.ndarray | None
    cost_quadratic: tuple[float, np.ndarray] | None = None


def zero_bundle(n: int, d: int) -> PredictionBundle:
    """The no-information bundle: all forecasts identically zero."""
    return PredictionBundle(
        cost_gradient=np.zeros(n),
        constraint_affine=(np.zeros((d, n)), np.zeros(d)),
        predicted_value=np.zeros(d),
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
    """Exact cost forecast: an affine cost's gradient, or a quadratic's (w, u)."""
    if truth.cost_affine is not None:
        return {"cost_gradient": truth.cost_affine[0].copy()}
    w, u, _ = truth.cost_quadratic
    return {"cost_gradient": None, "cost_quadratic": (w, u)}


class PerfectPredictor:
    """Hands over the true round in closed form; the value forecast is deferred."""

    kind = "perfect"

    def __init__(self, bounds, domain, dimension, constraints, level=0.0, seed=None):
        pass

    def note_action(self, x: np.ndarray) -> None:
        pass

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        return PredictionBundle(constraint_affine=truth.constraint_affine,
                                predicted_value=None, **_cost_forecast(truth))


class PerfectGradientsPredictor:
    """True cost and constraint but no forecast of the next constraint value."""

    kind = "perfect_gradients"

    def __init__(self, bounds, domain, dimension, constraints, level=0.0, seed=None):
        self._zero_value = np.zeros(constraints)

    def note_action(self, x: np.ndarray) -> None:
        pass

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        return PredictionBundle(constraint_affine=truth.constraint_affine,
                                predicted_value=self._zero_value, **_cost_forecast(truth))


class NoisyPredictor:
    """Truth blurred by seeded bounded noise, kept inside the declared bounds.

    The cost gradient gets an additive perturbation of norm at most
    level * L_f, then is clipped back to the L_f ball.  The constraint
    forecast is blended, (1 - gamma) (W x + u) + gamma * const, with gamma =
    min(level, 1) and a random constant vector of norm <= G; blending keeps
    it affine and keeps both the predicted values and the Jacobian rows
    inside the declared bounds, which additive noise on a scenario quoted
    at its exact constants would not.  The value forecast is deferred.
    """

    kind = "noisy"

    def __init__(self, bounds: ProblemBounds, domain, dimension, constraints,
                 level: float = 0.1, seed: int | None = 0):
        if level < 0.0:
            raise ConfigurationError("noise level must be nonnegative")
        if seed is not None and seed < 0:
            raise ConfigurationError("predictor seed must be >= 0")
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
        # all randomness is drawn here, in the same order every round
        e = self.rng.normal(size=self.n)
        e = _unit(e) * self.level * self.bounds.L_f * self.rng.uniform()
        c_guess = truth.cost(self.last_x)[1]
        c_tilde = _clip_ball(c_guess + e, self.bounds.L_f)

        shift = self.rng.normal(size=self.d)
        shift = _unit(shift) * self.bounds.G * self.rng.uniform()
        gamma = self.gamma
        W, u = truth.constraint_affine
        return PredictionBundle(
            cost_gradient=c_tilde,
            constraint_affine=((1.0 - gamma) * W, (1.0 - gamma) * u + gamma * shift),
            predicted_value=None,
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

        return PredictionBundle(
            cost_gradient=c_tilde,
            constraint_affine=(-scale * J, np.zeros(self.d)),
            predicted_value=-b.G * _unit(g_vals),
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
