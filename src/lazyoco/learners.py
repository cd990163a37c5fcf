"""Lazy optimistic primal-dual learners and a greedy projection baseline.

One learner instance drives one run, a strict state machine over rounds.
Round t's forecast (c~_t, g~_t) arrives with round t itself, before the
learner picks x_t, and it always arrives: a run without forecasts hands
over the zero bundle (`predictors.NonePredictor`).  Each
`play_round(truth, bundle)` follows the interaction order

    primal -> observe losses -> regularizer -> prescient -> dual

with two variant quirks: the non-proximal variant (`llp2`) finalizes its
regularizer only after the dual update because the weight depends on the
fresh step size, and its prescient solve therefore sees the off-by-one
accumulated weight.  The dual step only fixes the step size a_t: the
next primal step reads its multiplier lam = [a_t (sum g(z) + v~)]_+ off
the learner's own a_t and sum_s g_s(z_s) and that round's forecast value
v~ (lam = 0 in round 1, before any dual step).  `play_round` returns x_t
and leaves no record: the learner's attributes after it (the round's
`lam`, `f_value`, `xi_t`, `solver_residual` and `flags`, and the running
totals) are what a run's row reads, and `stats()` returns, as summary
entries, the few end-of-run values that no row holds.  `_Learner`, the
base of both learners, states those names once: the shared constructor
state, a zero default for each total that a learner without a
regularizer, forecast or prescient step leaves at zero, and the
reporting read off `lam`, `cum_gx`, `cum_gz` and `a_prev`.  The greedy
baseline is a step on that base; its z is x.

Every round is in closed form (see `problems`): its constraint is
W x + u, so the round's Lagrangian part J^T lam (J below) folds into
one linear vector, and the aggregate the learner carries stays a
constant-size prox plus linear term whatever the horizon.  The constraint value at the
played point, W x + u, is what every variant observes.

Forecasts arrive in closed form (see `predictors`).  A quadratic cost
forecast (w, u) folds into the prox: S/2 ||x - b/S||^2 + w/2 ||x - u||^2
is one prox at weight S + w and centre (b + w u) / (S + w), and the cost
gradient it stands for at the played point is w (x - u).  A deferred
value forecast is W~ x + u~ at the action x being chosen, so the
multiplier lam = [a (cum + W~ x + u~)]_+ depends on x.

The multiplier sits on rows J, chosen once per round: the fixed base
rows of g for `llp_perturbed` (rounds g(x) + b_t), else the round's own
rows, J~ = W~ in the primal step and J = W once the round is revealed.
The primal adds J~^T lam to its fold, the prescient step folds J^T lam
into the aggregate, and the mismatch is ||eps + (J - J~)^T lam||.  With
J~ = W~, J~^T lam is the gradient of the convex penalty
||[a (cum + W~ x + u~)]_+||^2 / (2a), so the pair is one convex problem.
The primal step takes one exact step, at the fixed multiplier or at
lam = 0; with a deferred v~ it keeps that point if the multiplier stays
0 there, and otherwise solves the fixed point: exactly over the
breakpoints when n = 1; by one exact step at lam = [a (cum + u~)]_+ when
the penalty has no curvature (W~ = 0, so lam does not depend on x, or
J~ = 0, so lam does not move x); and only otherwise by `solver.minimize`
on the penalty term.  The multiplier is read off the chosen action, so
the recorded mismatch sequence is always the one actually used by the
updates.

Every step but that last one (the primal step at a fixed multiplier,
the lam = 0 step, the zero-curvature fixed point and the prescient step)
is one prox projection or vertex rule, and calls `sets.exact_step`
directly on the arrays the learner holds.  The prescient step is z = x
when the round's mismatch h is exactly 0 and its primal step did not
stop unconverged: the regularizer did not advance, and the prescient
aggregate's gradient at x is the primal one's, so x minimizes both.  No
step reads a tolerance.  The start point is checked against the set
once, at construction.

The shape alone picks the body that plays a round, at construction.  At
n = d = 1 a numpy call on a 1-element array costs more than the
arithmetic it does, so the round is played on Python floats, and every
vector of the state (`lam`, `cum_gz`, `cum_gx`, `last_x` and the folded
aggregate) is a float; `play_round` still returns an (n,) array, and
`lambda_norm` and `violation_norm` read the trace's norms off either
body.  The float body takes the array body's steps in the same order,
and keeps numpy's signed zeros so that its traces are the array body's,
bit for bit:
- a matrix product starts its sum at +0.0, so W @ x is 0.0 + W x
  (`[[1.]] @ [-0.]` is 0.0), while a 1-D `.dot` keeps -0.0; the array
  body's `W.dot(x)` is W @ x at every shape but 1 x 1, where it keeps
  -0.0, which each sum it enters (from +0.0) or norm then drops;
- np.maximum(v, 0.0) is +0.0 at either zero, where Python's max(-0.0,
  0.0) is -0.0 (`_plus`);
- `clip` returns the bound when v equals it (`_clip`).
NaN passes through each of these as it does through numpy.  The
breakpoint fixed point is one float function, `_breakpoint_zero`, which
both bodies call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .predictors import PredictionBundle
from .problems import ProblemBounds, RoundOracle
from .sets import ConfigurationError, exact_step, norm, positive_part
from .solver import FtrlObjective, dual_step, minimize

__all__ = [
    "VARIANTS",
    "LearnerConfig",
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


# -- the round at n = d = 1 on floats (see the module docstring) ------------------


def _plus(v: float) -> float:
    """np.maximum(v, 0.0) on a float: +0.0 at either zero, and NaN kept."""
    return 0.0 if v <= 0.0 else v


def _clip(v: float, lo: float, hi: float) -> float:
    """ndarray.clip on a float: a bound wherever v reaches it, and NaN kept."""
    v = lo if v <= lo else v
    return hi if v >= hi else v


def _float_step(S: float, center: float, linear: float, fallback: float,
                lo: float, hi: float) -> float:
    """`sets.exact_step` on the interval [lo, hi], in floats."""
    if S > 0.0:
        return _clip(center - linear / S, lo, hi)
    if linear > 0.0:
        return lo
    return _clip(fallback, lo, hi) if linear == 0.0 else hi


def _float_forecast(bundle: PredictionBundle):
    """(w~, c~, W~, u~, v~), an n = d = 1 forecast in floats.

    c~ is the cost gradient when w~ is None, else the centre of the
    quadratic forecast w~/2 (x - c~)^2; v~ is None when deferred.
    """
    W, u = bundle.constraint_affine
    v = bundle.predicted_value
    v = None if v is None else v.item()
    if bundle.cost_gradient is None:
        w, c = bundle.cost_quadratic
        return float(w), c.item(), W.item(), u.item(), v
    return None, bundle.cost_gradient.item(), W.item(), u.item(), v


def _breakpoint_zero(S: float, center: float, linear: float, a_dual: float, rows,
                     lo: float, hi: float) -> float:
    """Exact primal point for n = 1 with a deferred value forecast.

    rows holds (p, f, r) per constraint: the multiplier's row p, the
    forecast row f and r = sum g(z) + u~.  The derivative S (x - c) + l +
    a sum_i p_i [r_i + f_i x]_+ is piecewise linear, and nondecreasing
    since every p_i f_i >= 0 (p = f, or for `llp_perturbed` f is a
    nonnegative multiple of the base row p); its zero is found over the
    sorted breakpoints and clipped to [lo, hi].
    """
    offset = linear - S * center

    def deriv(x: float) -> float:
        acc = 0.0
        for p, f, r in rows:
            if r + f * x > 0.0:
                acc += p * (r + f * x)
        return S * x + offset + a_dual * acc

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
    return x


def _norm(v) -> float:
    """||v|| of a vector of the state: a float array, or a float at n = d = 1,
    whose norm is the 1-element array's, sqrt(v * v)."""
    return math.sqrt(v * v) if isinstance(v, float) else norm(v)


def _positive(v):
    """[v]_+ of a vector of the state, a float array or a float."""
    return _plus(v) if isinstance(v, float) else positive_part(v)


class _Learner:
    """What a run reads off a learner, stated once for every learner.

    A subclass adds `__init__` and `play_round`, which keep `lam`, `a_t`,
    `a_prev`, `cum_gx` and `cum_gz` and the row values they move.  Each
    row name below is a class-level zero, the value of a learner without
    a regularizer, forecast or prescient step.
    """

    prox_S = h_cum = xi_t = xi_sq_cum = sum_a_prev_xi_sq = mu = 0.0
    solver_residual = max_xz = 0.0
    drift_gap = -math.inf
    flags = ""

    def __init__(self, config: LearnerConfig, domain, dimension: int, constraints: int):
        self.cfg = config
        self.domain = domain
        self.n = n = int(dimension)
        self.d = int(constraints)
        self.t = 0
        self.f_value = self.cum_cost = 0.0
        self.flag_counts: dict[str, int] = {}
        # the configured x0, or the projection of the origin; checked against the set
        x0 = domain.project(np.zeros(n)) if config.x0 is None else config.x0
        self.x0 = np.asarray(x0, dtype=float)
        if self.x0.shape != (n,):
            raise ConfigurationError(f"x0 must have shape ({n},)")
        if not domain.contains(self.x0):
            raise ConfigurationError("x0 lies outside the feasible set")

    @property
    def lambda_norm(self) -> float:
        """||lam||, the trace's lambda_norm."""
        return _norm(self.lam)

    @property
    def violation_norm(self) -> float:
        """||[sum_s g_s(x_s)]_+||, the trace's violation_norm."""
        return _norm(_positive(self.cum_gx))

    def stats(self) -> dict:
        """The summary entries no trace row holds, read once after the last round."""
        return {"violation_z_norm": _norm(_positive(self.cum_gz)), "a_prev": self.a_prev,
                "flag_counts": self.flag_counts, "max_xz": self.max_xz,
                "drift_gap": self.drift_gap}


class LlpLearner(_Learner):
    """The lazy variants; the shape picks the round body, floats at n = d = 1, else arrays."""

    def __init__(self, config: LearnerConfig, domain, dimension: int, constraints: int,
                 base_affine=None):
        if config.variant == "greedy_baseline":
            raise ConfigurationError("use GreedyLearner for the greedy baseline")
        if config.variant == "llp_perturbed" and base_affine is None:
            raise ConfigurationError(
                "llp_perturbed needs the scenario's fixed base constraint")
        super().__init__(config, domain, dimension, constraints)
        self.variant = config.variant
        # the rows J every round's multiplier sits on, or None for the round's own
        self.fixed_rows = (np.asarray(base_affine[0], dtype=float)
                           if self.variant == "llp_perturbed" else None)

        # dual-rate state, a_t and a_{t-1}; 0**0 == 1 makes the beta = 0 case come out right
        b = config.bounds
        a0 = config.a / max(2.0 * b.G, 0.0 ** config.beta)
        self.a_t = self.a_prev = a0
        if self.variant == "llp2":
            self.mu = b.E_m + a0 * b.G * 1.0 * b.Delta_m

        # the state's vectors (the folded aggregate ccum, lag_lin and prox_b,
        # cum_gz, cum_gx, last_x and lam) and the body that plays, by shape
        if self.n == self.d == 1:
            self._start_floats(self.x0)
        else:
            self._start_arrays(self.x0)

    def _start_arrays(self, x0: np.ndarray) -> None:
        """Hold the state's vectors as arrays, and play rounds with the array body."""
        n, d = self.n, self.d
        self.ccum, self.lag_lin = np.zeros(n), np.zeros(n)
        self.cum_gz, self.cum_gx, self.lam = np.zeros(d), np.zeros(d), np.zeros(d)
        # the multiplier of round 1 and of a deferred v~'s first step; no step writes into it
        self._zero_lam = np.zeros(d)
        self._set_prox(0.0, np.zeros(n))
        self.last_x = x0
        self._play = self._play_arrays

    def _start_floats(self, x0: np.ndarray) -> None:
        """Hold the state's vectors as floats (n = d = 1), and play rounds with the float body."""
        self.ccum = self.lag_lin = self.cum_gz = self.cum_gx = self.lam = 0.0
        self._set_prox(0.0, 0.0)
        self.last_x = x0.item()
        (self._lo,), (self._hi,) = self.domain.lower.tolist(), self.domain.upper.tolist()
        self._fixed_row = None if self.fixed_rows is None else self.fixed_rows.item()
        self._play = self._play_floats

    # -- round loop ----------------------------------------------------------

    def play_round(self, truth: RoundOracle, bundle: PredictionBundle) -> np.ndarray:
        """Play one round against the revealed oracle, given that round's forecast; return x_t.

        bundle is the forecast for this round, the zero bundle when there is
        none; the learner sees it before it picks x_t.  The body its shape
        picked plays the round.
        """
        return self._play(truth, bundle)

    def _play_arrays(self, truth: RoundOracle, bundle: PredictionBundle) -> np.ndarray:
        """The round on arrays, for every shape but n = d = 1."""
        self.t += 1
        self.flags = ""
        self.solver_residual = 0.0
        t, a_t = self.t, self.a_t
        W, u = truth.constraint_affine
        Wf, uf = bundle.constraint_affine
        vt = bundle.predicted_value
        # J~ and J; only J~ is read before x is played
        jp, j = (Wf, W) if self.fixed_rows is None else (self.fixed_rows,) * 2

        # primal: one exact step at lam = [a_t (sum g(z) + v~)]_+, or at lam = 0 in
        # round 1 or when v~ is deferred; a deferred v~ is W~ x + u~ at the step's x,
        # and if that turns the multiplier on, `_fixed_point` moves x
        lam = self._zero_lam if t == 1 or vt is None else dual_step(a_t, self.cum_gz, vt)
        ct = bundle.cost_gradient
        S, linear = self.prox_S, self.ccum
        if ct is None:
            # S/2 |x - b/S|^2 + w/2 |x - c|^2 is one prox at weight S + w
            w, c = bundle.cost_quadratic
            center = (self.prox_b + w * c) / (S + w)
            S = S + w
        else:
            center = self.prox_center
            linear = linear + ct
        linear = linear + self.lag_lin
        # the builtin any over the few entries of the 1-D lam as a list:
        # ndarray.any runs a Python-level wrapper before its reduction, and
        # any over the array makes a numpy scalar per entry
        if any(lam.tolist()):
            linear = linear + jp.T @ lam
        x = exact_step(self.domain, S, center, linear, self.last_x)
        if vt is None:
            vt = Wf.dot(x) + uf
            if t > 1:
                lam = dual_step(a_t, self.cum_gz, vt)
                if any((lam > 0.0).tolist()):
                    x = self._fixed_point(S, center, linear, Wf, uf, jp)
                    vt = Wf.dot(x) + uf
                    lam = dual_step(a_t, self.cum_gz, vt)
        self.lam = lam

        # the losses revealed: `RoundOracle.cost` and the mismatch h
        if ct is None:
            ct = w * (x - c)
        self.f_value, c_t = truth.cost(x)
        gx = W.dot(x) + u
        # at lam = 0 the rows' term is a zero vector, and the norm squares
        # away the sign of a zero
        h = norm(c_t - ct + (j - jp).T @ lam) if any(lam.tolist()) else norm(c_t - ct)

        if self.variant != "llp2":
            self._advance_regularizer(h, x, 0.0)

        # prescient: z = x when h = 0 and the primal step did not stop
        # unconverged (see the module docstring)
        self.ccum = linear = self.ccum + c_t
        linear = linear + self.lag_lin
        if any(lam.tolist()):
            lin = j.T @ lam
            self.lag_lin = self.lag_lin + lin
            linear = linear + lin
        if h == 0.0 and not self.flags:
            z, gz = x, gx
        else:
            z = exact_step(self.domain, self.prox_S, self.prox_center, linear, x)
            gz = W.dot(z) + u

        self.cum_gz = self.cum_gz + gz
        self.cum_gx = self.cum_gx + gx
        self._close(h, norm(x - z), norm(gz - vt))
        self.last_x = x
        return x

    def _play_floats(self, truth: RoundOracle, bundle: PredictionBundle) -> np.ndarray:
        """`_play_arrays` at n = d = 1 on Python floats, step for step and bit for bit.

        At n = 1 no step iterates, so the round's flags and solver residual
        stay "" and 0.0, as the array body leaves them.
        """
        self.t += 1
        t, a_t, lo, hi = self.t, self.a_t, self._lo, self._hi
        W, u = truth.constraint_affine
        W, u = W.item(), u.item()
        wf, cf, Wf, uf, vt = _float_forecast(bundle)
        jp, j = (Wf, W) if self._fixed_row is None else (self._fixed_row,) * 2

        # primal, with `_breakpoint_zero` as the fixed point
        lam = 0.0 if t == 1 or vt is None else _plus(a_t * (self.cum_gz + vt))
        S, linear = self.prox_S, self.ccum
        if wf is None:
            center = self.prox_center
            linear = linear + cf
        else:
            center = (self.prox_b + wf * cf) / (S + wf)
            S = S + wf
        linear = linear + self.lag_lin
        if lam:
            linear = linear + (0.0 + jp * lam)
        x = _float_step(S, center, linear, self.last_x, lo, hi)
        if vt is None:
            vt = 0.0 + Wf * x + uf
            if t > 1:
                lam = _plus(a_t * (self.cum_gz + vt))
                if lam > 0.0:
                    x = _breakpoint_zero(S, center, linear, a_t,
                                         ((jp, Wf, self.cum_gz + uf),), lo, hi)
                    vt = 0.0 + Wf * x + uf
                    lam = _plus(a_t * (self.cum_gz + vt))
        self.lam = lam

        # the losses revealed: `RoundOracle.cost` and the mismatch h
        ct = cf if wf is None else wf * (x - cf)
        if truth.cost_affine is not None:
            c, b = truth.cost_affine
            c_t = c.item()
            self.f_value = c_t * x + b
        else:
            w, c, b = truth.cost_quadratic
            diff = x - c.item()
            self.f_value = 0.5 * w * (diff * diff) + b
            c_t = w * diff
        gx = 0.0 + W * x + u
        e = c_t - ct
        if lam:
            e = e + (0.0 + (j - jp) * lam)
        h = math.sqrt(e * e)

        if self.variant != "llp2":
            self._advance_regularizer(h, x, 0.0)

        # prescient
        self.ccum = linear = self.ccum + c_t
        linear = linear + self.lag_lin
        if lam:
            lin = 0.0 + j * lam
            self.lag_lin = self.lag_lin + lin
            linear = linear + lin
        if h == 0.0:
            z, gz = x, gx
        else:
            z = _float_step(self.prox_S, self.prox_center, linear, x, lo, hi)
            gz = 0.0 + W * z + u

        self.cum_gz = self.cum_gz + gz
        self.cum_gx = self.cum_gx + gx
        dxz, xi = x - z, gz - vt
        self._close(h, math.sqrt(dxz * dxz), math.sqrt(xi * xi))
        self.last_x = x
        return np.array((x,))

    def _close(self, h: float, dxz: float, xi: float) -> None:
        """End a round in either body, given h, ||x - z|| and xi = ||g(z) - v~||:
        the drift record, the cost total, the dual step and llp2's regularizer."""
        self.max_xz = max(self.max_xz, dxz)
        if self.prox_S > 0.0:
            self.drift_gap = max(self.drift_gap, dxz - h / self.prox_S)
        self.cum_cost += self.f_value

        self._dual(xi)

        if self.variant == "llp2":
            b = self.cfg.bounds
            self.mu = b.E_m + self.a_t * b.G * (self.t + 1) * b.Delta_m
            self._advance_regularizer(h, None, self.mu)

    def _fixed_point(self, S: float, center: np.ndarray, linear: np.ndarray, Wf: np.ndarray,
                     uf: np.ndarray, jp: np.ndarray) -> np.ndarray:
        """x with lam = [a_t (sum g(z) + W~ x + u~)]_+ on rows jp; sets the solver residual.

        (S, centre, linear) is the aggregate at lam = 0.  At n = 1 the point
        is `_breakpoint_zero`'s; without curvature it is one exact step, and
        otherwise `minimize`'s.
        """
        a_dual, cum = self.a_t, self.cum_gz
        if self.n == 1:
            rows = list(zip(jp[:, 0].tolist(), Wf[:, 0].tolist(), (cum + uf).tolist()))
            (lo,), (hi,) = self.domain.lower.tolist(), self.domain.upper.tolist()
            return np.array([_breakpoint_zero(S, float(center[0]), float(linear[0]), a_dual,
                                              rows, lo, hi)])
        smoothness = a_dual * float(np.linalg.norm(Wf)) * float(np.linalg.norm(jp))
        if smoothness == 0.0:
            # W~ = 0 fixes lam at [a (cum + u~)]_+, and J~ = 0 keeps it from moving x
            return exact_step(self.domain, S, center, linear + jp.T @ dual_step(a_dual, cum, uf),
                              self.last_x)

        # one term with gradient J^T lam(x); with J = W~ that is the
        # convex penalty ||lam(x)||^2 / (2a) it reports
        def penalty(x):
            lam = dual_step(a_dual, cum, Wf @ x + uf)
            return 0.5 * float(lam @ lam) / a_dual, jp.T @ lam

        obj = FtrlObjective(self.domain, S, center, linear, [(penalty, smoothness)])
        res = minimize(obj, fallback=self.last_x)
        if not res.converged:
            self.flags = "primal_solver"
            self.flag_counts[self.flags] = self.flag_counts.get(self.flags, 0) + 1
        self.solver_residual = res.residual
        return res.x

    # -- observation and regularizers ------------------------------------------

    def _advance_regularizer(self, h: float, x: np.ndarray | None, mu: float) -> None:
        """Raise the prox weight to sigma sqrt(h_cum + mu); llp2 passes no x to centre it at."""
        self.h_cum += h
        target = self.cfg.sigma * math.sqrt(self.h_cum + mu)
        sigma_t = target - self.prox_S
        if sigma_t > 0.0:
            self._set_prox(target, self.prox_b if x is None else self.prox_b + sigma_t * x)

    def _set_prox(self, S: float, b) -> None:
        """Set the prox weight S, its numerator b and the centre b / S that both bodies'
        steps read: the one writer of the three.  While S = 0 the centre is the zero
        of the state's type, 0.0 on the float body and zeros on the array body."""
        self.prox_S, self.prox_b = S, b
        self.prox_center = b / S if S > 0.0 else 0.0 * b

    # -- dual --------------------------------------------------------------------

    def _dual(self, xi: float) -> None:
        """The step size a_t after a round with xi = ||g(z) - v~||."""
        b = self.cfg.bounds
        self.xi_t = xi
        self.a_prev = self.a_t
        self.sum_a_prev_xi_sq += self.a_prev * xi * xi
        self.xi_sq_cum += xi * xi
        denom = max(math.sqrt(4.0 * b.G * b.G + self.xi_sq_cum), float(self.t) ** self.cfg.beta)
        self.a_t = min(self.cfg.a / denom, self.a_prev)


class GreedyLearner(_Learner):
    """Projected gradient on the instantaneous Lagrangian, step a/sqrt(t).

    Stand-in competitor: `lam` and `a_t` are the multiplier and step of
    the round just played (`lam_next` and `x` are the next round's), and
    `a_prev` the step before it, a at round 1.  Its z is x.
    """

    def __init__(self, config: LearnerConfig, domain, dimension: int, constraints: int):
        if config.variant != "greedy_baseline":
            raise ConfigurationError("GreedyLearner requires variant 'greedy_baseline'")
        super().__init__(config, domain, dimension, constraints)
        self.x = self.x0
        self.lam = self.lam_next = np.zeros(self.d)
        self.cum_gx = np.zeros(self.d)
        self.a_t = self.a_prev = config.a

    def play_round(self, truth: RoundOracle, bundle: PredictionBundle) -> np.ndarray:
        """One projected step from x_t, which it returns; the forecast is ignored."""
        self.t += 1
        x, lam = self.x, self.lam_next
        self.f_value, c_t = truth.cost(x)
        W, u = truth.constraint_affine
        gvals = W @ x + u
        eta = self.cfg.a / math.sqrt(self.t)
        self.a_prev, self.a_t = self.a_t, eta
        # `Box.project`'s clip, without re-checking an array built here
        self.x = (x - eta * (c_t + W.T @ lam)).clip(self.domain.lower, self.domain.upper)
        self.lam, self.lam_next = lam, positive_part(lam + eta * gvals)
        self.cum_cost += self.f_value
        self.cum_gx = self.cum_gx + gvals
        return x

    @property
    def cum_gz(self) -> np.ndarray:
        """sum_s g_s(z_s), which is `cum_gx`: z is x."""
        return self.cum_gx


def make_learner(config: LearnerConfig, domain, dimension: int, constraints: int,
                 base_affine=None):
    if config.variant == "greedy_baseline":
        return GreedyLearner(config, domain, dimension, constraints)
    return LlpLearner(config, domain, dimension, constraints, base_affine=base_affine)
