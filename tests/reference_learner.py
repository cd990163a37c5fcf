"""The `llp` learner rebuilt from its unfolded definitions, as a test oracle.

`LlpLearner` carries folded sums: one prox weight, its centre and one
linear term.  This reference keeps every round instead, and solves each
step from the definitions with scipy's SLSQP:

- x_t minimizes sum_{s<t} <c_s + J_s^T lam_s, x> + f~_t(x) + <J~_t^T lam_t, x>
  + sum_{s<t} sigma_s/2 ||x - x_s||^2 over the box, where f~_t is
  <c~_t, x> for a gradient forecast and w/2 ||x - u||^2 for a quadratic
  forecast (w, u);
- lam_1 = 0, and lam_t = [a_{t-1} (sum_{s<t} g_s(z_s) + v~_t)]_+ after it.
  A deferred v~_t is W~_t x + u~_t at the x being chosen, so lam_t(x) is
  a fixed point, and its term is the convex penalty
  ||lam_t(x)||^2 / (2 a_{t-1}), whose gradient is J~_t^T lam_t(x);
- h_t = ||c_t - c~_t + (J_t - J~_t)^T lam_t||, with c_t = grad f_t(x_t) and
  c~_t the forecast's gradient at x_t;
- sigma_t = sigma sqrt(h_1 + ... + h_t) - sigma sqrt(h_1 + ... + h_{t-1});
- z_t minimizes sum_{s<=t} <c_s + J_s^T lam_s, x> + sum_{s<=t} sigma_s/2 ||x - x_s||^2;
- xi_t = ||g_t(z_t) - v~_t||, and the step size
  a_t = min(a / max(sqrt(4 G^2 + xi_1^2 + ... + xi_t^2), t^beta), a_{t-1}),
  from a_0 = a / max(2 G, 0^beta).

Ties follow the rules the learner states: with no curvature, a coordinate
whose slope is 0 keeps x_{t-1}; and z_t = x_t when h_t = 0, since x_t then
minimizes the prescient sum as well.  J_t = W_t and J~_t = W~_t, the
round's own rows.

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


class ReferenceLlp:
    """`llp` on an (n, d) box run, every round kept; see the module docstring."""

    def __init__(self, config, domain, dimension: int, constraints: int):
        b = config.bounds
        self.sigma, self.a, self.beta, self.G = config.sigma, config.a, config.beta, b.G
        self.domain = domain
        self.bounds = list(zip(domain.lower.tolist(), domain.upper.tolist()))
        self.n, self.d = dimension, constraints
        self.last_x = domain.project(np.zeros(dimension))
        self.a_steps = [config.a / max(2.0 * b.G, 0.0 ** config.beta)]  # a_0, a_1, ...
        # per round s: c_s + J_s^T lam_s, sigma_s, x_s, g_s(z_s), h_s, xi_s
        self.grads, self.sigmas, self.xs, self.gz, self.hs, self.xis = ([] for _ in range(6))

    @property
    def t(self) -> int:
        """The rounds closed so far."""
        return len(self.xs)

    def _kept(self, rounds: int):
        """Over the first `rounds` rounds: value and gradient of
        sum_s <c_s + J_s^T lam_s, x> + sigma_s/2 ||x - x_s||^2, the sum of the
        linear terms, and whether any sigma_s > 0."""
        linear = np.sum(self.grads[:rounds], axis=0) if rounds else np.zeros(self.n)
        sigmas = np.array(self.sigmas[:rounds])
        xs = np.array(self.xs[:rounds]).reshape(rounds, self.n)

        def fun(x):
            dev = x - xs
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
        kept, linear, curved = self._kept(self.t)
        W, u = bundle.constraint_affine
        deferred = bundle.predicted_value is None and self.t > 0
        # the forecast's linear terms, and its quadratic w/2 ||x - c||^2
        lin = np.zeros(self.n) if deferred else W.T @ self.multiplier(bundle, None)
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
                value += 0.5 * float(lam @ lam) / self.a_steps[-1]
                grad = grad + W.T @ lam
            return value, grad

        return self._minimize(fun, not (curved or w or deferred), linear + lin, self.last_x)

    def close(self, truth, bundle, x: np.ndarray) -> dict:
        """Close round t at the learner's x_t: its lam_t, h_t, sigma_t, z_t, xi_t and
        a_t; return lam_t, z_t and xi_t, and leave the sums to `totals`."""
        lam = self.multiplier(bundle, x)
        W, u = truth.constraint_affine
        Wp, up = bundle.constraint_affine
        c_t = truth.cost_gradient(x)
        if bundle.cost_gradient is None:
            w, c = bundle.cost_quadratic
            c_pred = w * (x - c)
        else:
            c_pred = bundle.cost_gradient
        h = float(np.linalg.norm(c_t - c_pred + (W - Wp).T @ lam))
        h_before = sum(self.hs)
        self.grads.append(c_t + W.T @ lam)
        self.sigmas.append(self.sigma * math.sqrt(h_before + h) - self.sigma * math.sqrt(h_before))
        self.xs.append(np.array(x, dtype=float))
        self.hs.append(h)

        if h == 0.0:
            z = x
        else:
            kept, linear, curved = self._kept(self.t)
            z = self._minimize(kept, not curved, linear, x)
        gz = W @ z + u
        v = Wp @ x + up if bundle.predicted_value is None else bundle.predicted_value
        xi = float(np.linalg.norm(gz - v))
        self.gz.append(gz)
        self.xis.append(xi)
        denom = max(math.sqrt(4.0 * self.G ** 2 + sum(e * e for e in self.xis)),
                    float(self.t) ** self.beta)
        self.a_steps.append(min(self.a / denom, self.a_steps[-1]))
        self.last_x = self.xs[-1]
        return {"lam": lam, "z": z, "xi": xi}

    def totals(self) -> dict:
        """The running sums a trace row reads, from the rounds kept."""
        xi_sq = [e * e for e in self.xis]
        return {"h_cum": sum(self.hs), "prox_S": self.sigma * math.sqrt(sum(self.hs)),
                "cum_gz": np.sum(self.gz, axis=0), "xi_sq_cum": sum(xi_sq),
                "sum_a_prev_xi_sq": sum(a * q for a, q in zip(self.a_steps, xi_sq)),
                "a_t": self.a_steps[-1], "a_prev": self.a_steps[-2]}
