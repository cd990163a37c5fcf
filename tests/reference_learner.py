"""The lazy learners rebuilt from their unfolded definitions, as a test oracle.

`LlpLearner` carries folded sums: one prox weight, its centre and one
linear term.  This reference keeps every round instead, and solves each
step from the definitions with scipy's SLSQP.  The multiplier of round t
sits on rows J_t in the sums and J~_t in the primal step: the round's own
W_t and W~_t, or for `llp_perturbed` the fixed base rows B of rounds
g(x) + b_t in both.

- x_t minimizes sum_{s<t} <c_s + J_s^T lam_s, x> + f~_t(x) + <J~_t^T lam_t, x>
  + r_{t-1}(x) over the box, where f~_t is <c~_t, x> for a gradient
  forecast and w/2 ||x - u||^2 for a quadratic forecast (w, u), and r is
  the regularizer below;
- lam_1 = 0, and lam_t = [a_{t-1} (sum_{s<t} g_s(z_s) + v~_t)]_+ after it.
  A deferred v~_t is W~_t x + u~_t at the x being chosen, so lam_t(x) is
  a fixed point.  W~_t = kappa J~_t with kappa >= 0 (kappa = 1 on the
  round's own rows; on base rows every forecast of g(x) + b_t scales B),
  so the term's gradient J~_t^T lam_t(x) is that of the convex penalty
  ||lam_t(x)||^2 / (2 a_{t-1} kappa), and at kappa = 0 lam_t is constant;
- h_t = ||c_t - c~_t + (J_t - J~_t)^T lam_t||, with c_t = grad f_t(x_t) and
  c~_t the forecast's gradient at x_t;
- the regularizer r_t(x) = sum_s sigma_s/2 ||x - y_s||^2 over its advances
  s <= t: the weight S_t = max(S_{t-1}, sigma sqrt(h_1 + ... + h_t + mu_t))
  from S_0 = 0 grows by sigma_t = S_t - S_{t-1} when that is positive.
  `llp` and `llp_perturbed` advance it after h_t, with mu_t = 0 and the
  centre y_t = x_t.  `llp2` advances it after the dual step, with
  mu_t = E_m + a_t G (t + 1) Delta_m and the centre y_t = 0: its
  regularizer has no centre of its own, and its prescient step sees r_{t-1};
- z_t minimizes sum_{s<=t} <c_s + J_s^T lam_s, x> + r(x), with r as it stands
  after h_t: r_t, or r_{t-1} for `llp2`;
- xi_t = ||g_t(z_t) - v~_t||, and the step size
  a_t = min(a / max(sqrt(4 G^2 + xi_1^2 + ... + xi_t^2), t^beta), a_{t-1}),
  from a_0 = a / max(2 G, 0^beta).

Ties follow the rules the learner states: with no curvature, a coordinate
whose slope is 0 keeps x_{t-1}; and z_t = x_t when h_t = 0, since x_t then
minimizes the prescient sum as well.

The reference follows the learner: `primal` starts SLSQP from the
learner's x_{t-1}, and `close` takes the learner's x_t as the round's
point, so a solver error of one round does not carry into the next.
"""

import math

import numpy as np
from scipy import optimize

# SLSQP stops once a step changes the objective by less than ftol, below
# rounding here, or after maxiter steps; each step is a small convex program
_SLSQP_OPTIONS = {"ftol": 1e-15, "maxiter": 500}


def _plus(v):
    return np.maximum(v, 0.0)


class ReferenceLearner:
    """`llp`, `llp2` or `llp_perturbed` on an (n, d) box run, every round kept;
    `base_rows` is B for `llp_perturbed`.  See the module docstring."""

    def __init__(self, config, domain, dimension: int, constraints: int, base_rows=None):
        b = config.bounds
        self.variant = config.variant
        self.sigma, self.a, self.beta, self.G = config.sigma, config.a, config.beta, b.G
        self.E_m, self.Delta_m = b.E_m, b.Delta_m
        self.base_rows = base_rows if self.variant == "llp_perturbed" else None
        self.domain = domain
        self.bounds = list(zip(domain.lower.tolist(), domain.upper.tolist()))
        self.n, self.d = dimension, constraints
        self.last_x = domain.project(np.zeros(dimension))
        self.a_steps = [config.a / max(2.0 * b.G, 0.0 ** config.beta)]  # a_0, a_1, ...
        self.mu = self._mu(1) if self.variant == "llp2" else 0.0
        # per round s: c_s + J_s^T lam_s, x_s, g_s(z_s), h_s, xi_s
        self.grads, self.xs, self.gz, self.hs, self.xis = ([] for _ in range(5))
        # per advance of the regularizer: sigma_s and its centre y_s; S is their sum
        self.sigmas, self.centres, self.S = [], [], 0.0

    @property
    def t(self) -> int:
        """The rounds closed so far."""
        return len(self.xs)

    def _mu(self, t: int) -> float:
        """llp2's mu before round t: E_m + a_{t-1} G t Delta_m, a_{t-1} the latest step."""
        return self.E_m + self.a_steps[-1] * self.G * t * self.Delta_m

    def _rows(self, W: np.ndarray) -> np.ndarray:
        """The rows a multiplier sits on where the round's own rows are W."""
        return W if self.base_rows is None else self.base_rows

    def _advance(self, centre: np.ndarray, mu: float) -> None:
        """Raise S to sigma sqrt(h_1 + ... + h_t + mu) if that is above it, by a
        term centred at `centre`."""
        target = self.sigma * math.sqrt(sum(self.hs) + mu)
        if target > self.S:
            self.sigmas.append(target - self.S)
            self.centres.append(np.array(centre, dtype=float))
            self.S = target

    def _kept(self):
        """Over the rounds and regularizer terms held: value and gradient of
        sum_s <c_s + J_s^T lam_s, x> + r(x), the sum of the linear terms, and
        whether r has any weight."""
        linear = np.sum(self.grads, axis=0) if self.grads else np.zeros(self.n)
        sigmas = np.array(self.sigmas)
        centres = np.array(self.centres).reshape(len(self.sigmas), self.n)

        def fun(x):
            dev = x - centres
            return (float(linear @ x) + 0.5 * float(sigmas @ (dev * dev).sum(axis=1)),
                    linear + sigmas @ dev)

        return fun, linear, bool(sigmas.any())

    def _minimize(self, fun, linear_only: bool, linear: np.ndarray, start: np.ndarray):
        """argmin of fun (value, gradient) over the box, from `start`; when fun is
        <linear, x>, the vertex rule with start's coordinate as the tie."""
        lo, hi = self.domain.lower, self.domain.upper
        if linear_only:
            return np.where(linear > 0.0, lo, np.where(linear < 0.0, hi, start))
        res = optimize.minimize(fun, start, jac=True, method="SLSQP", bounds=self.bounds,
                                options=_SLSQP_OPTIONS)
        return np.clip(res.x, lo, hi)

    def multiplier(self, bundle, x) -> np.ndarray:
        """lam_t: 0 in round 1, else [a_{t-1} (sum g(z) + v~)]_+, with a deferred
        v~ taken at the point x."""
        if self.t == 0:
            return np.zeros(self.d)
        W, u = bundle.constraint_affine
        v = W @ x + u if bundle.predicted_value is None else bundle.predicted_value
        return _plus(self.a_steps[-1] * (np.sum(self.gz, axis=0) + v))

    def primal(self, bundle) -> np.ndarray:
        """x_t, the minimizer of the round's primal objective."""
        kept, linear, curved = self._kept()
        Wp = bundle.constraint_affine[0]
        Jp = self._rows(Wp)
        kappa = float(np.vdot(Wp, Jp) / np.vdot(Jp, Jp)) if Jp.any() else 0.0
        assert kappa >= 0.0 and np.allclose(Wp, kappa * Jp), "W~ is not a multiple of J~"
        # at kappa = 0 a deferred lam does not depend on x, so any point gives it
        deferred = bundle.predicted_value is None and self.t > 0 and kappa > 0.0
        # the forecast's linear terms, and its quadratic w/2 ||x - c||^2
        lin = np.zeros(self.n) if deferred else Jp.T @ self.multiplier(bundle, self.last_x)
        if bundle.cost_gradient is None:
            w, c = bundle.cost_quadratic
        else:
            w, c = 0.0, None
            lin = lin + bundle.cost_gradient

        def fun(x):
            value, grad = kept(x)
            value, grad = value + float(lin @ x), grad + lin
            if w:
                value += 0.5 * w * float((x - c) @ (x - c))
                grad = grad + w * (x - c)
            if deferred:
                lam = self.multiplier(bundle, x)
                value += 0.5 * float(lam @ lam) / (self.a_steps[-1] * kappa)
                grad = grad + Jp.T @ lam
            return value, grad

        return self._minimize(fun, not (curved or w or deferred), linear + lin, self.last_x)

    def close(self, truth, bundle, x: np.ndarray) -> dict:
        """Close round t at the learner's x_t: its lam_t, h_t, z_t, xi_t and a_t,
        and the regularizer's advance; return lam_t, z_t and xi_t, and leave the
        sums to `totals`."""
        lam = self.multiplier(bundle, x)
        W, u = truth.constraint_affine
        Wp, up = bundle.constraint_affine
        J, Jp = self._rows(W), self._rows(Wp)
        c_t = truth.cost_gradient(x)
        if bundle.cost_gradient is None:
            w, c = bundle.cost_quadratic
            c_pred = w * (x - c)
        else:
            c_pred = bundle.cost_gradient
        h = float(np.linalg.norm(c_t - c_pred + (J - Jp).T @ lam))
        self.grads.append(c_t + J.T @ lam)
        self.xs.append(np.array(x, dtype=float))
        self.hs.append(h)
        if self.variant != "llp2":
            self._advance(x, 0.0)

        if h == 0.0:
            z = x
        else:
            kept, linear, curved = self._kept()
            z = self._minimize(kept, not curved, linear, x)
        gz = W @ z + u
        v = Wp @ x + up if bundle.predicted_value is None else bundle.predicted_value
        xi = float(np.linalg.norm(gz - v))
        self.gz.append(gz)
        self.xis.append(xi)
        denom = max(math.sqrt(4.0 * self.G ** 2 + sum(e * e for e in self.xis)),
                    float(self.t) ** self.beta)
        self.a_steps.append(min(self.a / denom, self.a_steps[-1]))
        if self.variant == "llp2":
            self.mu = self._mu(self.t + 1)
            self._advance(np.zeros(self.n), self.mu)
        self.last_x = self.xs[-1]
        return {"lam": lam, "z": z, "xi": xi}

    def totals(self) -> dict:
        """The running sums a trace row reads, from the rounds kept."""
        xi_sq = [e * e for e in self.xis]
        return {"h_cum": sum(self.hs), "prox_S": self.S, "mu": self.mu,
                "cum_gz": np.sum(self.gz, axis=0), "xi_sq_cum": sum(xi_sq),
                "sum_a_prev_xi_sq": sum(a * q for a, q in zip(self.a_steps, xi_sq)),
                "a_t": self.a_steps[-1], "a_prev": self.a_steps[-2]}
