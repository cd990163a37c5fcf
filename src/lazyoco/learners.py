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
forecast value v~.

Everything affine is folded into constant-size vectors, so runs over
linear scenarios cost O(1) per round regardless of horizon.  Nonlinear
constraint rounds with an active multiplier are kept as (multiplier,
oracle) pairs and replayed inside the inner solver; that path grows
linearly in t and is intended for desk-scale horizons.

A forecast may arrive as functions of the not-yet-known action instead
of concrete vectors (the honest reading of "the forecast evaluated at
the learner's own next point").  A deferred value forecast makes the
multiplier lam = [a (cum + v~(x))]_+ depend on the action x being chosen.
That pair is one convex problem: x minimizes F(x) + ||[a (cum + g~(x))]_+||^2
/ (2a), whose penalty gradient is J~^T lam.  The primal step solves at
lam = 0, keeps that point if the multiplier stays 0 there, and otherwise
makes one solve with the penalty term, exact over the breakpoints in the
scalar affine case.  The multiplier is read off the chosen action, so the
recorded mismatch sequence is always the one actually used by the updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import regret_certificate
from .predictors import PredictionBundle, zero_bundle
from .problems import ProblemBounds, RoundOracle
from .sets import ConfigurationError, norm, positive_part
from .solver import FtrlObjective, SolveResult, SolverSettings, dual_closed_form, minimize

__all__ = [
    "VARIANTS",
    "LearnerConfig",
    "RoundRecord",
    "LearnerTotals",
    "LlpLearner",
    "GreedyLearner",
    "make_learner",
]

VARIANTS = ("llp", "llp2", "llp_linearized", "llp_perturbed", "greedy_baseline")


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


@dataclass
class RoundRecord:
    t: int
    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    f_value: float
    g_values: np.ndarray
    epsilon_norm: float
    h_t: float
    xi_t: float
    sigma_t: float
    a_t: float
    solver_residuals: tuple[float, float]
    flags: tuple[str, ...]


class LearnerTotals(NamedTuple):
    """Running sums after the latest round; the greedy baseline fills the first five."""

    cum_cost: float
    violation_norm: float
    violation_z_norm: float
    a_t: float
    a_prev: float
    warning_count: int = 0
    h_cum: float = 0.0
    sigma_cum: float = 0.0
    xi_sq_cum: float = 0.0
    sum_prev_a_xi_sq: float = 0.0
    mu: float = 0.0
    bound_running: float = 0.0
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


def _cost_term_oracle(bundle: PredictionBundle):
    # shape the deferred cost like a single-row constraint so the inner
    # solver treats it uniformly
    vf, gf = bundle.cost_value_fn, bundle.cost_gradient_fn

    def oracle(x):
        return np.array([float(vf(x))]), np.asarray(gf(x), dtype=float)[None, :]

    return oracle


class LlpLearner:
    """All four lazy variants behind one round loop."""

    def __init__(self, config: LearnerConfig, domain, dimension: int, constraints: int,
                 base_constraint=None, base_affine=None):
        if config.variant == "greedy_baseline":
            raise ConfigurationError("use GreedyLearner for the greedy baseline")
        if config.variant == "llp_perturbed" and base_constraint is None and base_affine is None:
            raise ConfigurationError(
                "llp_perturbed needs the scenario's fixed base constraint")
        self.cfg = config
        self.domain = domain
        self.n = int(dimension)
        self.d = int(constraints)
        self.variant = config.variant
        self.base_constraint = base_constraint
        self.base_affine = base_affine
        if base_affine is not None:
            self.base_affine = (np.asarray(base_affine[0], dtype=float),
                                np.asarray(base_affine[1], dtype=float))

        x0 = _start_point(config, domain, self.n)
        # a one-dimensional set is the interval between its linear minimizers
        self._interval = None
        if self.n == 1:
            self._interval = (float(domain.argmin_linear(np.ones(1))[0]),
                              float(domain.argmin_linear(-np.ones(1))[0]))

        b = config.bounds
        self.t = 0
        self._zero_bundle = zero_bundle(self.n, self.d)
        # (a_t, sum of g(z)) after the latest dual step; None before round 1
        self.pending: tuple[float, np.ndarray] | None = None

        # folded aggregate state
        self.ccum = np.zeros(self.n)
        self.lag_lin = np.zeros(self.n)
        self.lag_terms: list = []
        self.lam_sum = np.zeros(self.d)
        self.prox_S = 0.0
        self.prox_b = np.zeros(self.n)

        # dual-rate state; 0**0 == 1 makes the beta = 0 case come out right
        a0 = config.a / max(2.0 * b.G, 0.0 ** config.beta)
        self.a_prev = a0
        self.a_prev_last = a0
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
        self.warning_count = 0

    # -- round loop ----------------------------------------------------------

    def play_round(self, truth: RoundOracle, bundle: PredictionBundle | None = None) -> RoundRecord:
        """Play one round against the revealed oracle, given that round's forecast.

        bundle is the forecast for this round (None means the zero forecast);
        the learner sees it before it picks x_t.
        """
        self.t += 1
        t = self.t
        if bundle is None:
            bundle = self._zero_bundle
        flags: list[str] = []

        x, lam, ct_used, vt, jt, res_primal = self._primal(bundle, flags)

        f_val, c_t = truth.cost(x)
        f_val = float(f_val)
        c_t = np.asarray(c_t, dtype=float)
        gvals, jac_x = truth.constraint(x)
        gvals = np.asarray(gvals, dtype=float)
        jac_x = np.asarray(jac_x, dtype=float)

        eps = c_t - ct_used
        h = self._mismatch_norm(eps, jac_x, bundle, jt, lam, x)

        sigma_t = 0.0
        if self.variant != "llp2":
            sigma_t = self._advance_regularizer(h, x)

        z, gz, res_presc, fold = self._prescient(truth, x, c_t, gvals, jac_x, lam, flags)

        dxz = norm(x - z)
        self.max_xz = max(self.max_xz, dxz)
        if self.prox_S > 0.0:
            self.drift_gap = max(self.drift_gap, dxz - h / self.prox_S)

        self._fold_round(*fold)
        self.cum_gz = self.cum_gz + gz
        self.cum_gx = self.cum_gx + gvals
        self.cum_cost += f_val

        xi, a_t = self._dual(gz, vt)

        if self.variant == "llp2":
            sigma_t = self._advance_regularizer_llp2(h)

        self.last_x = x
        if flags:
            self.warning_count += 1

        return RoundRecord(
            t=t, x=x, z=z, lam=lam, f_value=f_val,
            g_values=gvals, epsilon_norm=norm(eps),
            h_t=h, xi_t=xi, sigma_t=sigma_t, a_t=a_t,
            solver_residuals=(res_primal, res_presc), flags=tuple(flags),
        )

    # -- primal --------------------------------------------------------------

    def _center(self) -> np.ndarray:
        if self.prox_S > 0.0:
            return self.prox_b / self.prox_S
        return np.zeros(self.n)

    def _objective(self, lam: np.ndarray, jt, bundle: PredictionBundle) -> FtrlObjective:
        """The primal aggregate with the round's multiplier fixed at lam."""
        linear = self.ccum.copy()
        terms: list = []
        if bundle.deferred_cost:
            terms.append((np.ones(1), _cost_term_oracle(bundle), bundle.cost_smoothness))
        else:
            linear = linear + bundle.cost_gradient
        v = self.variant
        if v == "llp_perturbed":
            wsum = self.lam_sum + lam
            if self.base_affine is not None:
                linear = linear + self.base_affine[0].T @ wsum
            elif wsum.any():
                terms.append((wsum, self.base_constraint, None))
        else:
            linear = linear + self.lag_lin
            terms.extend(self.lag_terms)
            if lam.any():
                if v == "llp_linearized" and jt is not None:
                    linear = linear + jt.T @ lam
                elif bundle.constraint_affine is not None:
                    linear = linear + bundle.constraint_affine[0].T @ lam
                else:
                    terms.append((lam, bundle.constraint, None))
        return FtrlObjective(self.domain, self.prox_S, self._center(), linear, terms)

    def _primal(self, bundle: PredictionBundle, flags: list[str]):
        """Resolve the round's multiplier/forecast pair and solve for x_t.

        Returns (x, lam, cost_gradient_used, predicted_value_used,
        predicted_jacobian_used, residual).
        """
        jt = bundle.predicted_jacobian
        jfn = None
        if self.variant == "llp_linearized" and jt is None:
            jfn = bundle.predicted_jacobian_fn
            if jfn is None:
                jt = bundle.jacobian_at(self.last_x)
        vfn = bundle.predicted_value_fn
        if bundle.deferred_value and vfn is None:
            raise ConfigurationError("prediction bundle carries no constraint value forecast")

        if self.pending is not None and bundle.deferred_value:
            x, lam, vt, res = self._fixed_point(bundle, jt, jfn, vfn)
        else:
            if self.pending is None:
                lam = np.zeros(self.d)
            else:
                lam = dual_closed_form(*self.pending, bundle.predicted_value)
            # a deferred Jacobian needs no iteration: with lam known, the
            # forecast oracle itself enters the objective
            res = minimize(self._objective(lam, jt, bundle), self.cfg.solver,
                           fallback=self.last_x)
            x, vt = res.x, bundle.predicted_value
            if vt is None:
                vt = np.asarray(vfn(x), dtype=float)
        if not res.converged:
            flags.append("primal_solver")
        if jfn is not None:
            jt = np.asarray(jfn(x), dtype=float)
        ct = bundle.cost_gradient
        if ct is None:
            ct = np.asarray(bundle.cost_gradient_fn(x), dtype=float)
        return x, lam, ct, vt, jt, res.residual

    def _fixed_point(self, bundle: PredictionBundle, jt, jfn, vfn):
        """(x, lam, predicted_value_used, SolveResult) with lam = [a (cum + v~(x))]_+."""
        a_dual, cum = self.pending

        def multiplier(x):
            vt = np.asarray(vfn(x), dtype=float)
            return dual_closed_form(a_dual, cum, vt), vt

        obj = self._objective(np.zeros(self.d), jt, bundle)
        res = minimize(obj, self.cfg.solver, fallback=self.last_x)
        lam, vt = multiplier(res.x)
        if not (lam > 0.0).any():
            return res.x, lam, vt, res
        jp = self._primal_jacobian(bundle, jt, jfn)
        x = self._scalar_zero(obj, bundle, jp, a_dual, cum)
        if x is not None:
            res = SolveResult(x=x, residual=0.0, converged=True)
        else:
            # one term with gradient J_p(x)^T lam(x); when J_p is the Jacobian
            # of v~ that is the convex penalty ||lam(x)||^2 / (2a) it reports
            constant = isinstance(jp, np.ndarray)

            def penalty(x):
                lam = multiplier(x)[0]
                J = jp if constant else np.asarray(jp(x), dtype=float)
                return np.array([0.5 * float(lam @ lam) / a_dual]), (J.T @ lam)[None, :]

            smoothness = None
            if constant and bundle.constraint_affine is not None:
                smoothness = (a_dual * float(np.linalg.norm(bundle.constraint_affine[0]))
                              * float(np.linalg.norm(jp)))
            obj.constraint_terms.append((np.ones(1), penalty, smoothness))
            res = minimize(obj, self.cfg.solver, fallback=self.last_x)
        lam, vt = multiplier(res.x)
        return res.x, lam, vt, res

    def _primal_jacobian(self, bundle: PredictionBundle, jt, jfn):
        """J_p, the Jacobian the primal puts the multiplier on: an array or x -> array."""
        v = self.variant
        if v == "llp_perturbed":
            if self.base_affine is not None:
                return self.base_affine[0]
            return lambda x: self.base_constraint(x)[1]
        if v == "llp_linearized":
            return jt if jfn is None else jfn
        if bundle.constraint_affine is not None:
            return bundle.constraint_affine[0]
        return lambda x: bundle.constraint(x)[1]

    def _scalar_zero(self, obj: FtrlObjective, bundle: PredictionBundle, jp,
                     a_dual: float, cum: np.ndarray):
        """Exact primal point for n = 1 with an affine forecast, or None.

        The derivative S (x - c) + l + a sum_i p_i [r_i + f_i x]_+ is piecewise
        linear, and nondecreasing when every p_i f_i >= 0; its zero is found
        over the sorted breakpoints and clipped to the set.
        """
        if (self.n != 1 or obj.constraint_terms or not isinstance(jp, np.ndarray)
                or bundle.constraint_affine is None):
            return None
        rows = list(zip(jp[:, 0].tolist(), bundle.constraint_affine[0][:, 0].tolist(),
                        (cum + bundle.constraint_affine[1]).tolist()))
        if any(p * f < 0.0 for p, f, _ in rows):
            return None
        S = obj.quad_weight
        offset = float(obj.linear[0]) - S * float(obj.quad_center[0])

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

    def _mismatch_norm(self, eps, jac_x, bundle, jt, lam, x) -> float:
        if self.variant == "llp_perturbed":
            return norm(eps)
        pred_jac = jt if self.variant == "llp_linearized" else bundle.jacobian_at(x)
        delta = jac_x - np.asarray(pred_jac, dtype=float)
        return norm(eps + delta.T @ lam)

    def _advance_regularizer(self, h: float, x: np.ndarray) -> float:
        self.h_cum += h
        target = self.cfg.sigma * math.sqrt(self.h_cum)
        sigma_t = target - self.prox_S
        if sigma_t > 0.0:
            self.prox_b = self.prox_b + sigma_t * x
            self.prox_S = target
            return sigma_t
        return 0.0

    def _advance_regularizer_llp2(self, h: float) -> float:
        b = self.cfg.bounds
        self.h_cum += h
        mu_next = b.E_m + self.a_prev * b.G * (self.t + 1) * b.Delta_m
        target = self.cfg.sigma * math.sqrt(self.h_cum + mu_next)
        sigma_t = target - self.prox_S
        self.mu = mu_next
        if sigma_t > 0.0:
            self.prox_S = target
            return sigma_t
        return 0.0

    # -- prescient -------------------------------------------------------------

    def _prescient(self, truth, x, c_t, gvals, jac_x, lam, flags: list[str]):
        """(z, g(z), residual, fold): the fold is the round's additions to the
        folded state, computed here once and handed on to `_fold_round`."""
        ccum = self.ccum + c_t
        linear = ccum
        folded = [self.ccum, c_t]  # the summands of linear, for the tie scale
        terms = list(self.lag_terms)
        wsum = lin = term = None
        v = self.variant
        if v == "llp_perturbed":
            wsum = self.lam_sum + lam
            if self.base_affine is not None:
                lin = self.base_affine[0].T @ wsum
            elif wsum.any():
                terms.append((wsum, self.base_constraint, None))
        else:
            linear = linear + self.lag_lin
            folded.append(self.lag_lin)
            if lam.any():
                if v == "llp_linearized":
                    lin = jac_x.T @ lam
                elif truth.constraint_affine is not None:
                    lin = truth.constraint_affine[0].T @ lam
                else:
                    term = (lam, truth.constraint, None)
                    terms.append(term)
        if lin is not None:
            linear = linear + lin
            folded.append(lin)
        fold = (ccum, wsum, lin, term)
        if self.prox_S == 0.0 and not terms:
            # With no regularizer the aggregate is a bare linear functional, and
            # when the round's forecasts were exact x already satisfies its
            # first-order conditions; a slope at rounding scale relative to the
            # folded magnitudes is a tie, resolved at the played point.
            mag = 0.0
            for part in folded:
                mag += norm(part)
            if norm(linear) <= self.cfg.solver.tolerance * (1.0 + mag):
                if v == "llp_linearized":
                    return x, gvals, 0.0, fold
                gz = np.asarray(truth.constraint_value(x), dtype=float)
                return x, gz, 0.0, fold
        obj = FtrlObjective(self.domain, self.prox_S, self._center(), linear, terms)
        res = minimize(obj, self.cfg.solver, fallback=x)
        if not res.converged:
            flags.append("prescient_solver")
        z = res.x
        if v == "llp_linearized":
            gz = gvals + jac_x @ (z - x)
        else:
            gz = np.asarray(truth.constraint_value(z), dtype=float)
        return z, gz, res.residual, fold

    def _fold_round(self, ccum, wsum, lin, term) -> None:
        self.ccum = ccum
        if self.variant == "llp_perturbed":
            # the fixed row's fold W^T lam_sum is redone from lam_sum each round
            self.lam_sum = wsum
        elif lin is not None:
            self.lag_lin = self.lag_lin + lin
        elif term is not None:
            self.lag_terms.append(term)

    # -- dual --------------------------------------------------------------------

    def _dual(self, gz, vt):
        b = self.cfg.bounds
        xi = norm(gz - vt)
        a_tm1 = self.a_prev
        self.sum_a_prev_xi_sq += a_tm1 * xi * xi
        self.xi_sq_cum += xi * xi
        denom = max(math.sqrt(4.0 * b.G * b.G + self.xi_sq_cum), float(self.t) ** self.cfg.beta)
        a_t = min(self.cfg.a / denom, a_tm1)
        self.a_prev_last = a_tm1
        self.a_prev = a_t
        self.pending = (a_t, self.cum_gz)
        return xi, a_t

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> LearnerTotals:
        c = self.cfg
        return LearnerTotals(
            cum_cost=self.cum_cost,
            violation_norm=norm(positive_part(self.cum_gx)),
            violation_z_norm=norm(positive_part(self.cum_gz)),
            a_t=self.a_prev,
            a_prev=self.a_prev_last,
            warning_count=self.warning_count,
            h_cum=self.h_cum,
            sigma_cum=self.prox_S,
            xi_sq_cum=self.xi_sq_cum,
            sum_prev_a_xi_sq=self.sum_a_prev_xi_sq,
            mu=self.mu,
            bound_running=regret_certificate(
                self.variant, self.h_cum, c.sigma, c.bounds,
                sum_a_prev_xi_sq=self.sum_a_prev_xi_sq, mu=self.mu,
                xi_sq_sum=self.xi_sq_cum, horizon=self.t, a=c.a, beta=c.beta),
            max_xz=self.max_xz,
            drift_gap=self.drift_gap,
        )


class GreedyLearner:
    """Projected gradient on the instantaneous Lagrangian, step eta/sqrt(t).

    Stand-in competitor with the same record surface as the lazy learners;
    its z column simply repeats x and all prediction fields stay zero.
    """

    def __init__(self, config: LearnerConfig, domain, dimension: int, constraints: int,
                 base_constraint=None, base_affine=None):
        if config.variant != "greedy_baseline":
            raise ConfigurationError("GreedyLearner requires variant 'greedy_baseline'")
        self.cfg = config
        self.domain = domain
        self.n = int(dimension)
        self.d = int(constraints)
        self.x = _start_point(config, domain, self.n)
        self.lam = np.zeros(self.d)
        self.t = 0
        self.cum_cost = 0.0
        self.cum_gx = np.zeros(self.d)

    def play_round(self, truth: RoundOracle, bundle=None) -> RoundRecord:
        """One projected step; the forecast is ignored."""
        self.t += 1
        t = self.t
        x = self.x
        lam = self.lam
        f_val, c_t = truth.cost(x)
        f_val = float(f_val)
        gvals, jac_x = truth.constraint(x)
        gvals = np.asarray(gvals, dtype=float)
        eta = self.cfg.a / math.sqrt(t)
        self.x = self.domain.project(x - eta * (np.asarray(c_t, dtype=float)
                                                + np.asarray(jac_x, dtype=float).T @ lam))
        self.lam = positive_part(lam + eta * gvals)
        self.cum_cost += f_val
        self.cum_gx = self.cum_gx + gvals
        return RoundRecord(
            t=t, x=x, z=x, lam=lam, f_value=f_val,
            g_values=gvals, epsilon_norm=0.0, h_t=0.0, xi_t=0.0,
            sigma_t=0.0, a_t=eta, solver_residuals=(0.0, 0.0), flags=(),
        )

    def stats(self) -> LearnerTotals:
        vnorm = norm(positive_part(self.cum_gx))
        return LearnerTotals(
            cum_cost=self.cum_cost,
            violation_norm=vnorm,
            violation_z_norm=vnorm,
            a_t=self.cfg.a / math.sqrt(max(self.t, 1)),
            a_prev=self.cfg.a / math.sqrt(max(self.t - 1, 1)),
        )


def make_learner(config: LearnerConfig, domain, dimension: int, constraints: int,
                 base_constraint=None, base_affine=None):
    if config.variant == "greedy_baseline":
        return GreedyLearner(config, domain, dimension, constraints)
    return LlpLearner(config, domain, dimension, constraints,
                      base_constraint=base_constraint, base_affine=base_affine)
