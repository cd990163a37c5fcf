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

import math
from dataclasses import dataclass

import numpy as np

from .problems import ProblemBounds, RoundOracle, _Scenario
from .sets import ConfigurationError, norm, row_dots

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
    return PredictionBundle(np.zeros(n), (np.zeros((d, n)), np.zeros(d)), np.zeros(d))


def _clip_ball(v: np.ndarray, radius: float) -> np.ndarray:
    nv = norm(v)
    if nv <= radius or nv == 0.0:
        return v
    return v * (radius / nv)


def _unit(v: np.ndarray) -> np.ndarray:
    """v / ||v||, or the first axis for v = 0."""
    nv = norm(v)
    if nv == 0.0:
        e = np.zeros_like(v)
        e[0] = 1.0
        return e
    return v / nv


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """`_unit` of each row of the 2-D v, bit for bit."""
    nv = np.sqrt(row_dots(v))
    out = v / np.where(nv == 0.0, 1.0, nv)[:, None]
    out[nv == 0.0] = _unit(np.zeros(v.shape[1]))
    return out


class _Predictor:
    """The constructor every kind shares, and the note of the played point most ignore.

    A kind sets up its own state in `_setup(domain)` from the attributes
    set here, and forecasts in its own `bundle_for(truth)`.
    """

    def __init__(self, bounds: ProblemBounds, domain, dimension: int, constraints: int,
                 level: float, seed: int):
        self.bounds = bounds
        self.n = dimension
        self.d = constraints
        self.level = float(level)
        self.seed = seed
        self._setup(domain)

    def _setup(self, domain) -> None:
        pass

    def note_action(self, x: np.ndarray) -> None:
        pass


class NonePredictor(_Predictor):
    """No forecast: the zero bundle, every round."""

    def _setup(self, domain):
        # nothing writes into a bundle, so one serves every round
        self._bundle = zero_bundle(self.n, self.d)

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        return self._bundle


def _exact_bundle(truth: RoundOracle, value) -> PredictionBundle:
    """The true round in closed form, in its own arrays (nothing writes into a forecast)."""
    if truth.cost_affine is not None:
        return PredictionBundle(truth.cost_affine[0], truth.constraint_affine, value)
    w, u, _ = truth.cost_quadratic
    return PredictionBundle(None, truth.constraint_affine, value, (w, u))


class PerfectPredictor(_Predictor):
    """Hands over the true round in closed form; the value forecast is deferred."""

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        return _exact_bundle(truth, None)


class PerfectGradientsPredictor(_Predictor):
    """True cost and constraint but no forecast of the next constraint value."""

    def _setup(self, domain):
        self._zero_value = np.zeros(self.d)

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        return _exact_bundle(truth, self._zero_value)


class NoisyPredictor(_Predictor):
    """Truth blurred by seeded bounded noise, kept inside the declared bounds.

    The cost gradient gets an additive perturbation of norm at most
    level * L_f, then is clipped back to the L_f ball.  The constraint
    forecast is blended, (1 - gamma) (W x + u) + gamma * const, with gamma =
    min(level, 1) and a random constant vector of norm <= G; blending keeps
    it affine and keeps both the predicted values and the Jacobian rows
    inside the declared bounds, which additive noise on a scenario quoted
    at its exact constants would not.  The value forecast is deferred.

    The noise does not depend on the learner, so it is drawn ahead
    (`_refill`), as many rounds as `_Scenario._block_rows` gives a round of
    n + d doubles, bit-equal to drawing each round alone: the same four
    generator calls per round in the same order, the same products in the
    same order, and each row's norm still its own dot, by `sets.row_dots`
    (einsum, (v*v).sum(1) and a sequential column sum each differ from
    ddot on 16-55% of standard normal rows at n = 2 to 15).  A round then adds
    the gradient at the last noted action, clips, and blends W, u.
    """

    def _setup(self, domain):
        if self.level < 0.0:
            raise ConfigurationError("noise level must be nonnegative")
        # the cost forecast before its clip has norm up to (1 + level) L_f, which its norm squares
        reach = (1.0 + self.level) * self.bounds.L_f
        if not math.isfinite(reach * reach):
            raise ConfigurationError(f"predictor.level {self.level:.3g} is too large: ((1 + level)"
                                     f" L_f)^2 overflows at L_f = {self.bounds.L_f:.3g}")
        if self.seed < 0:
            raise ConfigurationError("predictor seed must be >= 0")
        self.gamma = min(self.level, 1.0)
        self.rng = np.random.default_rng(int(self.seed))
        self.last_x = domain.project(np.zeros(self.n))
        # the first round draws
        self._rows = self._next = _Scenario._block_rows(self.n + self.d)

    def note_action(self, x: np.ndarray) -> None:
        # kept uncopied: nothing writes into a point a learner has played
        self.last_x = x

    def _refill(self) -> None:
        """Draw the next `_rows` rounds' perturbations e and gamma * shift;
        standard_normal and random take the doubles normal() and uniform() would."""
        rng, k = self.rng, self._rows
        e, shift, r = np.empty((k, self.n)), np.empty((k, self.d)), np.empty((k, 2))
        for i in range(k):
            rng.standard_normal(out=e[i])
            r[i, 0] = rng.random()
            rng.standard_normal(out=shift[i])
            r[i, 1] = rng.random()
        self._e = _unit_rows(e) * self.level * self.bounds.L_f * r[:, :1]
        self._shift = self.gamma * (_unit_rows(shift) * self.bounds.G * r[:, 1:])
        self._next = 0

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        if self._next == self._rows:
            self._refill()
        i = self._next
        self._next = i + 1
        c_tilde = _clip_ball(truth.cost_gradient(self.last_x) + self._e[i], self.bounds.L_f)
        keep = 1.0 - self.gamma
        W, u = truth.constraint_affine
        return PredictionBundle(c_tilde, (keep * W, keep * u + self._shift[i]), None)


class AdversarialPredictor(_Predictor):
    """Forecasts at the declared bounds with signs opposing the truth."""

    def _setup(self, domain):
        # the cost forecast has norm L_f, which the learner squares
        L_f = self.bounds.L_f
        if not math.isfinite(L_f * L_f):
            raise ConfigurationError(f"learner.bounds.L_f {L_f:.3g} is too large for the "
                                     "adversarial predictor: L_f^2 overflows")
        self.center = domain.project(np.zeros(self.n))

    def bundle_for(self, truth: RoundOracle) -> PredictionBundle:
        b = self.bounds
        c_true = truth.cost_gradient(self.center)
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
                   constraints: int, level: float = 0.1, seed: int = 0):
    if kind not in PREDICTOR_KINDS:
        raise ConfigurationError(
            f"unknown predictor kind {kind!r}; expected one of {sorted(PREDICTOR_KINDS)}")
    return PREDICTOR_KINDS[kind](bounds, domain, dimension, constraints, level=level, seed=seed)
