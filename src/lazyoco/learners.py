"""Lazy optimistic primal-dual learners and a greedy projection baseline.

One learner instance drives one run, a strict state machine over rounds.
Round t's forecast (c~_t, g~_t) arrives with round t itself, before the
learner picks x_t, and each `play_round(truth, bundle)` follows the
interaction order

    primal -> observe losses -> regularizer -> prescient -> dual

with two variant quirks: the non-proximal variant (`llp2`) finalizes its
regularizer only after the dual update because the weight depends on the
fresh step size, and its prescient solve therefore sees the off-by-one
accumulated weight.  The dual step only fixes the step size: afterwards
`pending` holds (a_t, sum_s g_s(z_s)), and the next primal step reads its
multiplier lam = [a_t (sum g(z) + v~)]_+ from `pending` and that round's
forecast value v~.  `play_round` returns x_t and leaves no record: the
learner's attributes after it (the round's `lam`, `f_value`, `xi_t`,
`solver_residual` and `flags`, and the running totals) are what a trace
row reads.

Every round is in closed form (see `problems`): its constraint is
W x + u, so the round's Lagrangian part W^T lam folds into one linear
vector, and the aggregate the learner carries stays a constant-size
prox plus linear term whatever the horizon.  The constraint value at the
played point, W x + u, is what every variant observes.

Forecasts arrive in closed form (see `predictors`).  A quadratic cost
forecast (w, u) folds into the prox: S/2 ||x - b/S||^2 + w/2 ||x - u||^2
is one prox at weight S + w and centre (b + w u) / (S + w), and the cost
gradient it stands for at the played point is w (x - u).  A deferred
value forecast is W~ x + u~ at the action x being chosen, so the
multiplier lam = [a (cum + W~ x + u~)]_+ depends on x.  The primal puts
lam on J = W~ (on the fixed base rows for `llp_perturbed`); with J = W~,
J^T lam is the gradient of the convex penalty
||[a (cum + W~ x + u~)]_+||^2 / (2a), so the pair is one convex problem.
The primal step solves at lam = 0, keeps that point if the multiplier
stays 0 there, and otherwise makes one solve with the penalty term,
exact over the breakpoints in the scalar case.  The multiplier is read
off the chosen action, so the recorded mismatch sequence is always the
one actually used by the updates.

Every step without the penalty term (the primal step at a fixed
multiplier, the lam = 0 solve and the prescient step) is one prox
projection or vertex rule, and calls `solver.exact_step` directly on the
arrays the learner holds; `solver.minimize` is the penalty's path.  The
start point is checked against the set once, at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .predictors import PredictionBundle, zero_bundle
from .problems import ProblemBounds, RoundOracle
from .sets import ConfigurationError, norm, positive_part
from .solver import FtrlObjective, SolverSettings, dual_step, exact_step, minimize

__all__ = [
    "VARIANTS",
    "LearnerConfig",
    "LearnerTotals",
    "LlpLearner",
    "GreedyLearner",
    "make_learner",
]

VARIANTS = ("llp", "llp2", "llp_perturbed", "greedy_baseline")


@dataclass
class LearnerConfig:
    variant: str
    sigma: float
    a: float
    beta: float
    bounds: ProblemBounds
    x0: np.ndarray | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.variant == "llp_linearized":
            raise ConfigurationError("learner variant 'llp_linearized' was retired: on the "
                                     "affine constraints of every round it is 'llp'; use 'llp'")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown learner variant {self.variant!r}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ConfigurationError("sigma must be positive")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ConfigurationError("a must be positive")
        if not (0.0 <= self.beta < 1.0):
            raise ConfigurationError("beta must lie in [0, 1)")
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))


class LearnerTotals(NamedTuple):
    """The end-of-run values no trace row holds; the greedy baseline fills the first three.

    The run's other totals (cumulative cost, violation, a_T, the
    regularizer sums and B_T) are its trace's last row.  `flag_counts`
    counts the rounds that raised each flag; a round raises at most one.
    """

    violation_z_norm: float
    a_prev: float
    flag_counts: dict
    xi_sq_cum: float = 0.0
    sum_prev_a_xi_sq: float = 0.0
    mu: float = 0.0
    max_xz: float = 0.0
    drift_gap: float = -math.inf


def _start_point(config: LearnerConfig, domain, n: int) -> np.ndarray:
    """The configured x0, or the projection of the origin; checked against the set."""
    x0 = domain.project(np.zeros(n)) if config.x0 is None else config.x0
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ConfigurationError(f"x0 must have shape ({n},)")
    if not domain.contains(x0):
        raise ConfigurationError("x0 lies outside the feasible set")
    return x0


class LlpLearner:
    """All four lazy variants behind one round loop."""

    def __init__(self, config: LearnerConfig, domain, dimension: int, constraints: int,
                 base_affine=None):
        if config.variant == "greedy_baseline":
            raise ConfigurationError("use GreedyLearner for the greedy baseline")
        if config.variant == "llp_perturbed" and base_affine is None:
            raise ConfigurationError(
                "llp_perturbed needs the scenario's fixed base constraint")
        self.cfg = config
        self.domain = domain
        self.n = int(dimension)
        self.d = int(constraints)
        self.variant = config.variant
        self.base_affine = base_affine
        if base_affine is not None:
            self.base_affine = (np.asarray(base_affine[0], dtype=float),
                                np.asarray(base_affine[1], dtype=float))

        x0 = _start_point(config, domain, self.n)
        self._interval = None
        if self.n == 1:
            self._interval = (float(domain.lower[0]), float(domain.upper[0]))

        b = config.bounds
        self.t = 0
        self._zero_bundle = zero_bundle(self.n, self.d)
        # (a_t, sum of g(z)) after the latest dual step; None before round 1
        self.pending: tuple[float, np.ndarray] | None = None

        # folded aggregate state
        self.ccum = np.zeros(self.n)
        self.lag_lin = np.zeros(self.n)
        self.lam_sum = np.zeros(self.d)
        self.prox_S = 0.0
        self.prox_b = np.zeros(self.n)

        # dual-rate state, a_t and a_{t-1}; 0**0 == 1 makes the beta = 0 case come out right
        a0 = config.a / max(2.0 * b.G, 0.0 ** config.beta)
        self.a_t = self.a_prev = a0
        self.h_cum = 0.0
        self.xi_sq_cum = 0.0
        self.sum_a_prev_xi_sq = 0.0
        self.mu = b.E_m + a0 * b.G * 1.0 * b.Delta_m if self.variant == "llp2" else 0.0

        # cumulative diagnostics
        self.cum_gz = np.zeros(self.d)
        self.cum_gx = np.zeros(self.d)
        self.cum_cost = 0.0
        self.last_x = x0
        self.max_xz = 0.0
        self.drift_gap = -math.inf
        self.flag_counts: dict[str, int] = {}

        # the latest round's own values
        self.lam = np.zeros(self.d)
        self.f_value = self.xi_t = self.solver_residual = 0.0
        self.flags = ""

    # -- round loop ----------------------------------------------------------

    def play_round(self, truth: RoundOracle, bundle: PredictionBundle | None = None) -> np.ndarray:
        """Play one round against the revealed oracle, given that round's forecast; return x_t.

        bundle is the forecast for this round (None means the zero forecast);
        the learner sees it before it picks x_t.
        """
        self.t += 1
        if bundle is None:
            bundle = self._zero_bundle
        self.flags = ""

        x, lam, ct_used, vt, self.solver_residual = self._primal(bundle)
        self.lam = lam

        self.f_value, c_t = truth.cost(x)
        W, u = truth.constraint_affine
        gvals = W @ x + u
        h = self._mismatch_norm(c_t - ct_used, W, bundle.constraint_affine[0], lam)

        if self.variant != "llp2":
            self._advance_regularizer(h, x, 0.0)

        z, gz = self._prescient(truth, x, c_t, gvals, lam)

        dxz = norm(x - z)
        self.max_xz = max(self.max_xz, dxz)
        if self.prox_S > 0.0:
            self.drift_gap = max(self.drift_gap, dxz - h / self.prox_S)

        self.cum_gz = self.cum_gz + gz
        self.cum_gx = self.cum_gx + gvals
        self.cum_cost += self.f_value

        self._dual(gz, vt)

        if self.variant == "llp2":
            b = self.cfg.bounds
            self.mu = b.E_m + self.a_t * b.G * (self.t + 1) * b.Delta_m
            self._advance_regularizer(h, None, self.mu)

        self.last_x = x
        return x

    # -- primal --------------------------------------------------------------

    def _center(self) -> np.ndarray:
        if self.prox_S > 0.0:
            return self.prox_b / self.prox_S
        return np.zeros(self.n)

    def _objective(self, lam: np.ndarray, bundle: PredictionBundle):
        """(S, centre, linear) of the primal aggregate with the round's multiplier
        fixed at lam: S/2 ||x - centre||^2 + <linear, x> over the box."""
        linear = self.ccum
        S, center = self.prox_S, self._center()
        if bundle.cost_gradient is None:
            # S/2 |x - b/S|^2 + w/2 |x - u|^2 is one prox at weight S + w
            w, u = bundle.cost_quadratic
            center = (self.prox_b + w * u) / (S + w)
            S = S + w
        else:
            linear = linear + bundle.cost_gradient
        if self.variant == "llp_perturbed":
            linear = linear + self.base_affine[0].T @ (self.lam_sum + lam)
        else:
            linear = linear + self.lag_lin
            # the builtin any over the few entries of the 1-D lam: ndarray.any
            # runs a Python-level wrapper before its reduction
            if any(lam):
                linear = linear + bundle.constraint_affine[0].T @ lam
        return S, center, linear

    def _primal(self, bundle: PredictionBundle):
        """Resolve the round's multiplier/forecast pair and solve for x_t.

        Returns (x, lam, cost_gradient_used, predicted_value_used, residual).
        """
        residual = 0.0
        if self.pending is not None and bundle.predicted_value is None:
            x, lam, residual = self._fixed_point(bundle)
        else:
            if self.pending is None:
                lam = np.zeros(self.d)
            else:
                lam = dual_step(*self.pending, bundle.predicted_value)
            x = exact_step(self.domain, *self._objective(lam, bundle), self.last_x)
        vt = bundle.predicted_value
        if vt is None:
            W, u = bundle.constraint_affine
            vt = W @ x + u
        ct = bundle.cost_gradient
        if ct is None:
            w, c = bundle.cost_quadratic
            ct = w * (x - c)
        return x, lam, ct, vt, residual

    def _fixed_point(self, bundle: PredictionBundle):
        """(x, lam, solver residual) with lam = [a (cum + W~ x + u~)]_+."""
        a_dual, cum = self.pending
        W, u = bundle.constraint_affine

        def multiplier(x):
            return dual_step(a_dual, cum, W @ x + u)

        S, center, linear = self._objective(np.zeros(self.d), bundle)
        x = exact_step(self.domain, S, center, linear, self.last_x)
        lam = multiplier(x)
        if not (lam > 0.0).any():
            return x, lam, 0.0
        # J, the rows the primal puts the multiplier on
        jp = self.base_affine[0] if self.variant == "llp_perturbed" else W
        x = self._scalar_zero(S, center, linear, bundle, jp, a_dual, cum)
        if x is not None:
            return x, multiplier(x), 0.0

        # one term with gradient J^T lam(x); with J = W~ that is the
        # convex penalty ||lam(x)||^2 / (2a) it reports
        def penalty(x):
            lam = multiplier(x)
            return np.array([0.5 * float(lam @ lam) / a_dual]), (jp.T @ lam)[None, :]

        smoothness = a_dual * float(np.linalg.norm(W)) * float(np.linalg.norm(jp))
        obj = FtrlObjective(self.domain, S, center, linear,
                            [(np.ones(1), penalty, smoothness)])
        res = minimize(obj, self.cfg.solver, fallback=self.last_x)
        if not res.converged:
            self.flags = "primal_solver"
            self.flag_counts[self.flags] = self.flag_counts.get(self.flags, 0) + 1
        return res.x, multiplier(res.x), res.residual

    def _scalar_zero(self, S: float, center: np.ndarray, linear: np.ndarray,
                     bundle: PredictionBundle, jp, a_dual: float, cum: np.ndarray):
        """Exact primal point for n = 1, or None.

        The derivative S (x - c) + l + a sum_i p_i [r_i + f_i x]_+ is piecewise
        linear, and nondecreasing when every p_i f_i >= 0; its zero is found
        over the sorted breakpoints and clipped to the set.
        """
        if self.n != 1:
            return None
        rows = list(zip(jp[:, 0].tolist(), bundle.constraint_affine[0][:, 0].tolist(),
                        (cum + bundle.constraint_affine[1]).tolist()))
        if any(p * f < 0.0 for p, f, _ in rows):
            return None
        offset = float(linear[0]) - S * float(center[0])

        def deriv(x: float) -> float:
            acc = 0.0
            for p, f, r in rows:
                if r + f * x > 0.0:
                    acc += p * (r + f * x)
            return S * x + offset + a_dual * acc

        lo, hi = self._interval
        knots = sorted([lo, hi] + [-r / f for _, f, r in rows if f != 0.0 and lo < -r / f < hi])
        vals = [deriv(k) for k in knots]
        j = next((i for i, val in enumerate(vals) if val >= 0.0), len(knots) - 1)
        x = knots[j]
        if j > 0 and vals[j] > 0.0:
            # the derivative is affine between knots j-1 and j
            left = knots[j - 1]
            mid = 0.5 * (left + x)
            active = [(p, f, r) for p, f, r in rows if r + f * mid > 0.0]
            slope = S + a_dual * sum(p * f for p, f, _ in active)
            x = min(max(-(offset + a_dual * sum(p * r for p, _, r in active)) / slope, left), x)
        return np.array([x])

    # -- observation and regularizers ------------------------------------------

    def _mismatch_norm(self, eps, W, pred_W, lam) -> float:
        if self.variant == "llp_perturbed":
            return norm(eps)
        return norm(eps + (W - pred_W).T @ lam)

    def _advance_regularizer(self, h: float, x: np.ndarray | None, mu: float) -> None:
        """Raise the prox weight to sigma sqrt(h_cum + mu); llp2 passes no x to centre it at."""
        self.h_cum += h
        target = self.cfg.sigma * math.sqrt(self.h_cum + mu)
        sigma_t = target - self.prox_S
        if sigma_t > 0.0:
            if x is not None:
                self.prox_b = self.prox_b + sigma_t * x
            self.prox_S = target

    # -- prescient -------------------------------------------------------------

    def _prescient(self, truth: RoundOracle, x, c_t, gvals, lam):
        """(z, g(z)); folds the round's cost gradient and multiplier into the state."""
        folded = [self.ccum, c_t]  # the summands of linear, for the tie scale
        self.ccum = linear = self.ccum + c_t
        lin = None
        if self.variant == "llp_perturbed":
            # the fixed row's fold W^T lam_sum is redone from lam_sum each round
            self.lam_sum = self.lam_sum + lam
            lin = self.base_affine[0].T @ self.lam_sum
        else:
            linear = linear + self.lag_lin
            folded.append(self.lag_lin)
            if any(lam):
                lin = truth.constraint_affine[0].T @ lam
                self.lag_lin = self.lag_lin + lin
        if lin is not None:
            linear = linear + lin
            folded.append(lin)
        if self.prox_S == 0.0:
            # With no regularizer the aggregate is a bare linear functional, and
            # when the round's forecasts were exact x already satisfies its
            # first-order conditions; a coordinate whose slope is at rounding
            # scale relative to the folded magnitudes is a tie, resolved at the
            # played point, and only the others take the vertex rule.
            mag = 0.0
            for part in folded:
                mag += norm(part)
            tie = np.abs(linear) <= self.cfg.solver.tolerance * (1.0 + mag)
            if tie.all():
                return x, gvals
            linear = np.where(tie, 0.0, linear)
        z = exact_step(self.domain, self.prox_S, self._center(), linear, x)
        return z, truth.constraint_value(z)

    # -- dual --------------------------------------------------------------------

    def _dual(self, gz, vt) -> None:
        b = self.cfg.bounds
        self.xi_t = xi = norm(gz - vt)
        self.a_prev = self.a_t
        self.sum_a_prev_xi_sq += self.a_prev * xi * xi
        self.xi_sq_cum += xi * xi
        denom = max(math.sqrt(4.0 * b.G * b.G + self.xi_sq_cum), float(self.t) ** self.cfg.beta)
        self.a_t = min(self.cfg.a / denom, self.a_prev)
        self.pending = (self.a_t, self.cum_gz)

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> LearnerTotals:
        return LearnerTotals(
            violation_z_norm=norm(positive_part(self.cum_gz)),
            a_prev=self.a_prev,
            flag_counts=self.flag_counts,
            xi_sq_cum=self.xi_sq_cum,
            sum_prev_a_xi_sq=self.sum_a_prev_xi_sq,
            mu=self.mu,
            max_xz=self.max_xz,
            drift_gap=self.drift_gap,
        )


class GreedyLearner:
    """Projected gradient on the instantaneous Lagrangian, step eta/sqrt(t).

    Stand-in competitor with the lazy learners' row names: `lam` and `a_t`
    are the multiplier and step of the round just played (`lam_next` and
    `x` are the next round's), and its regularizer, forecast and prescient
    totals are the zeros below, since its z is x.
    """

    prox_S = h_cum = xi_t = xi_sq_cum = sum_a_prev_xi_sq = mu = 0.0
    solver_residual = max_xz = 0.0
    drift_gap = -math.inf
    flags = ""

    def __init__(self, config: LearnerConfig, domain, dimension: int, constraints: int):
        if config.variant != "greedy_baseline":
            raise ConfigurationError("GreedyLearner requires variant 'greedy_baseline'")
        self.cfg = config
        self.domain = domain
        self.n = int(dimension)
        self.d = int(constraints)
        self.x = _start_point(config, domain, self.n)
        self.lam = self.lam_next = np.zeros(self.d)
        self.t = 0
        self.a_t = self.f_value = self.cum_cost = 0.0
        self.cum_gx = np.zeros(self.d)

    def play_round(self, truth: RoundOracle, bundle=None) -> np.ndarray:
        """One projected step from x_t, which it returns; the forecast is ignored."""
        self.t += 1
        x, lam = self.x, self.lam_next
        self.f_value, c_t = truth.cost(x)
        W, u = truth.constraint_affine
        gvals = W @ x + u
        self.a_t = eta = self.cfg.a / math.sqrt(self.t)
        # `Box.project`'s clip, without re-checking an array built here
        self.x = (x - eta * (c_t + W.T @ lam)).clip(self.domain.lower, self.domain.upper)
        self.lam, self.lam_next = lam, positive_part(lam + eta * gvals)
        self.cum_cost += self.f_value
        self.cum_gx = self.cum_gx + gvals
        return x

    def stats(self) -> LearnerTotals:
        return LearnerTotals(
            violation_z_norm=norm(positive_part(self.cum_gx)),
            a_prev=self.cfg.a / math.sqrt(max(self.t - 1, 1)),
            flag_counts={},
        )


def make_learner(config: LearnerConfig, domain, dimension: int, constraints: int,
                 base_affine=None):
    if config.variant == "greedy_baseline":
        return GreedyLearner(config, domain, dimension, constraints)
    return LlpLearner(config, domain, dimension, constraints, base_affine=base_affine)
