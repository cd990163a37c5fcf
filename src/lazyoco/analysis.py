"""Offline benchmarks, trace metrics, bound evaluation, and rate fitting.

The benchmark routines replay a finished scenario and minimize the total
cost over one of two comparator sets: the per-round-feasible set (every
g_t(x) <= 0) or the aggregate-feasible set (sum_t g_t(x) <= 0).  Affine
rounds are accumulated into closed forms; the scalar affine case is
solved exactly, low dimensions fall back to a feasibility-filtered grid,
and higher dimensions run a penalized subgradient method cross-checked
against seeded feasible samples.

Bound evaluators plug run statistics into the regret/violation
certificates verbatim.  Two of them use different constants in the same
role (4G^2 under the adaptive step size, G^2 inside K_T); both are kept
exactly as defined at their use sites rather than reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sets import ConfigurationError, Simplex, positive_part

__all__ = [
    "BENCHMARK_KINDS",
    "PrefixOptimum",
    "BenchmarkResult",
    "compute_benchmark",
    "benchmark_round_costs",
    "TraceMetrics",
    "compute_metrics",
    "BoundReport",
    "regret_certificate",
    "llp_bound_report",
    "llp2_bound_report",
    "perturbed_report",
    "evaluate_theorem1_bounds",
    "evaluate_theorem3_bounds",
    "ExponentFit",
    "fit_growth_exponent",
    "dual_regret_gap",
]

BENCHMARK_KINDS = ("X_T", "X_T_max")

_FEAS_TOL = 1e-9


@dataclass
class PrefixOptimum:
    t: int
    x_star: np.ndarray | None
    total_cost: float
    feasible: bool


@dataclass
class BenchmarkResult:
    kind: str
    x_star: np.ndarray | None
    optimal_total_cost: float
    feasible: bool
    resolution: float
    prefix: tuple = ()


class _CostAccumulator:
    """Running closed forms for sum_t f_t, with a handle list as last resort."""

    def __init__(self, n: int):
        self.n = n
        self.lin = np.zeros(n)
        self.const = 0.0
        self.qw = 0.0
        self.ql = np.zeros(n)
        self.general: list = []

    def add(self, oracle) -> None:
        if oracle.cost_affine is not None:
            c, b = oracle.cost_affine
            self.lin = self.lin + np.asarray(c, dtype=float)
            self.const += float(b)
        elif oracle.cost_quadratic is not None:
            w, u, b = oracle.cost_quadratic
            w = float(w)
            u = np.asarray(u, dtype=float)
            self.qw += w
            self.ql = self.ql + w * u
            self.const += 0.5 * w * float(u @ u) + float(b)
        else:
            self.general.append(oracle)

    def value(self, x: np.ndarray) -> float:
        v = float(self.lin @ x) + self.const + 0.5 * self.qw * float(x @ x) - float(self.ql @ x)
        for oracle in self.general:
            v += oracle.cost_value(x)
        return v

    def value_grid(self, pts: np.ndarray) -> np.ndarray:
        v = pts @ self.lin + self.const + 0.5 * self.qw * np.sum(pts * pts, axis=1) - pts @ self.ql
        for oracle in self.general:
            v = v + np.array([oracle.cost_value(p) for p in pts])
        return v

    def snapshot(self) -> "_CostAccumulator":
        c = _CostAccumulator(self.n)
        c.lin = self.lin.copy()
        c.const = self.const
        c.qw = self.qw
        c.ql = self.ql.copy()
        c.general = list(self.general)
        return c


class _ConstraintAccumulator:
    """Feasibility state for either benchmark set."""

    def __init__(self, n: int, kind: str):
        self.n = n
        self.kind = kind
        self.rows: list[np.ndarray] = []       # per-round affine rows [w | u], X_T only
        self.Wsum = None                        # aggregate fold, X_T_max
        self.usum = None
        self.general: list = []
        self.affine_only = True
        self._cache = None                      # (row count, deduplicated stack)

    def add(self, oracle) -> None:
        aff = oracle.constraint_affine
        if aff is None:
            self.affine_only = False
            self.general.append(oracle)
            return
        W = np.asarray(aff[0], dtype=float)
        u = np.asarray(aff[1], dtype=float)
        if self.kind == "X_T_max":
            if self.Wsum is None:
                self.Wsum = W.copy()
                self.usum = u.copy()
            else:
                self.Wsum = self.Wsum + W
                self.usum = self.usum + u
        else:
            self.rows.append(np.hstack([W, u[:, None]]))

    def row_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated (W, u) stack of every affine inequality that must hold."""
        if self.kind == "X_T_max":
            if self.Wsum is None:
                return np.zeros((0, self.n)), np.zeros(0)
            return self.Wsum, self.usum
        if not self.rows:
            return np.zeros((0, self.n)), np.zeros(0)
        if self._cache is None or self._cache[0] != len(self.rows):
            self._cache = (len(self.rows), np.unique(np.vstack(self.rows), axis=0))
        stacked = self._cache[1]
        return stacked[:, :-1], stacked[:, -1]

    def row_count(self) -> int:
        W, _ = self.row_matrix()
        return len(W) + len(self.general)

    def violation(self, x: np.ndarray) -> float:
        W, u = self.row_matrix()
        worst = float(np.max(W @ x + u)) if len(u) else -math.inf
        if self.kind == "X_T_max":
            agg = None
            for oracle in self.general:
                v = np.asarray(oracle.constraint_value(x), dtype=float)
                agg = v if agg is None else agg + v
            if agg is not None:
                base = (W @ x + u) if len(u) else 0.0
                worst = float(np.max(base + agg))
        else:
            for oracle in self.general:
                worst = max(worst, float(np.max(oracle.constraint_value(x))))
        return worst

    def violation_grid(self, pts: np.ndarray) -> np.ndarray:
        W, u = self.row_matrix()
        if self.kind == "X_T_max":
            agg = None
            for oracle in self.general:
                vals = np.array([np.asarray(oracle.constraint_value(p), dtype=float) for p in pts])
                agg = vals if agg is None else agg + vals
            if agg is not None:
                base = pts @ W.T + u if len(u) else 0.0
                return np.max(base + agg, axis=1)
            if not len(u):
                return np.full(len(pts), -math.inf)
            return np.max(pts @ W.T + u, axis=1)
        worst = np.full(len(pts), -math.inf)
        if len(u):
            # chunk the row product so dense traces stay within memory
            step = max(1, int(2_000_000 // max(len(u), 1)))
            for k in range(0, len(pts), step):
                worst[k:k + step] = np.max(pts[k:k + step] @ W.T + u, axis=1)
        for oracle in self.general:
            vals = np.array([float(np.max(oracle.constraint_value(p))) for p in pts])
            worst = np.maximum(worst, vals)
        return worst

    def snapshot(self) -> "_ConstraintAccumulator":
        c = _ConstraintAccumulator(self.n, self.kind)
        c.rows = list(self.rows)
        c.Wsum = None if self.Wsum is None else self.Wsum.copy()
        c.usum = None if self.usum is None else self.usum.copy()
        c.general = list(self.general)
        c.affine_only = self.affine_only
        return c


def _interval_1d(cons: _ConstraintAccumulator, lo: float, hi: float) -> tuple[float, float]:
    W, u = cons.row_matrix()
    for w_row, u_row in zip(W[:, 0], u):
        if w_row > 0.0:
            hi = min(hi, (-u_row + _FEAS_TOL) / w_row)
        elif w_row < 0.0:
            lo = max(lo, (-u_row + _FEAS_TOL) / w_row)
        elif u_row > _FEAS_TOL:
            return 1.0, 0.0
    return lo, hi


def _solve_exact_1d(cost: _CostAccumulator, cons: _ConstraintAccumulator,
                    domain) -> tuple[np.ndarray | None, float, bool]:
    low, high = domain.bounding_box()
    lo, hi = _interval_1d(cons, float(low[0]), float(high[0]))
    if lo > hi:
        return None, math.nan, False
    slope = float(cost.lin[0] - cost.ql[0])
    if cost.qw > 0.0:
        x = min(max(-slope / cost.qw, lo), hi)
    else:
        x = hi if slope < 0.0 else lo
    xv = np.array([x])
    return xv, cost.value(xv), True


def _grid_points(domain, n: int, resolution: float, box=None,
                 cap: int | None = None) -> tuple[np.ndarray, float]:
    low, high = domain.bounding_box() if box is None else box
    axes = []
    step = resolution
    for i in range(n):
        span = float(high[i] - low[i])
        count = int(math.floor(span / resolution)) + 1
        limit = cap if cap is not None else (20001 if n == 1 else 801)
        if count > limit:
            count = limit
        count = max(count, 2)
        axes.append(np.linspace(float(low[i]), float(high[i]), count))
        step = max(step, span / (count - 1))
    if n == 1:
        pts = axes[0][:, None]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts, step


def _solve_grid(cost, cons, domain, n, resolution, box=None,
                cap: int | None = None) -> tuple[np.ndarray | None, float, bool, float]:
    pts, step = _grid_points(domain, n, resolution, box=box, cap=cap)
    feas = cons.violation_grid(pts) <= _FEAS_TOL
    if n > 1:
        feas &= domain.contains_grid(pts, tol=1e-9)
    if not np.any(feas):
        return None, math.nan, False, step
    pts = pts[feas]
    vals = cost.value_grid(pts)
    idx = int(np.argmin(vals))
    return pts[idx].copy(), float(vals[idx]), True, step


def _solve_2d(cost, cons, domain, resolution) -> tuple[np.ndarray | None, float, bool, float]:
    """Coarse grid sized to the constraint count, then local refinement.

    The full-resolution mesh against thousands of trace rows is quadratic
    work; shrinking windows reach the same resolution at a fixed budget.
    Total cost and both comparator sets are convex, so the refined window
    around the coarse argmin keeps improving the incumbent.
    """
    rows = max(cons.row_count(), 1)
    cap = 801
    while cap > 51 and cap * cap * rows > 30_000_000:
        cap = (cap - 1) // 2 + 1
    x, v, ok, step = _solve_grid(cost, cons, domain, 2, resolution, cap=cap)
    if not ok:
        # a thin feasible sliver can slip between coarse grid lines
        xs, vs, oks = _solve_subgradient(cost, cons, domain, 2)
        return xs, vs, oks, step
    low, high = domain.bounding_box()
    for _ in range(8):
        if step <= resolution:
            break
        prev = step
        box = (np.maximum(x - 2.0 * step, low), np.minimum(x + 2.0 * step, high))
        xr, vr, okr, step = _solve_grid(cost, cons, domain, 2, resolution,
                                        box=box, cap=41)
        if okr and vr < v:
            x, v = xr, vr
        if step >= prev:  # window stopped shrinking; resolution reached in spirit
            break
    return x, v, True, step


def _solve_subgradient(cost, cons, domain, n, seed=0x5EED) -> tuple[np.ndarray | None, float, bool]:
    rng = np.random.default_rng(seed)
    low, high = domain.bounding_box()
    scale = float(np.max(high - low)) + 1.0
    W, u = cons.row_matrix()

    def cost_grad(x):
        g = cost.lin + cost.qw * x - cost.ql
        for oracle in cost.general:
            g = g + oracle.cost(x)[1]
        return g

    def viol_and_grad(x):
        worst, grad = -math.inf, np.zeros(n)
        if len(u):
            vals = W @ x + u
            j = int(np.argmax(vals))
            worst, grad = float(vals[j]), W[j].copy()
        for oracle in cons.general:
            vals, jac = oracle.constraint(x)
            j = int(np.argmax(vals))
            if float(vals[j]) > worst:
                worst, grad = float(vals[j]), np.asarray(jac, dtype=float)[j].copy()
        return worst, grad

    rho = 100.0 * (float(np.linalg.norm(cost.lin - cost.ql)) + cost.qw * scale + 1.0)
    x = domain.project(np.zeros(n))
    best_x, best_val = None, math.inf
    for k in range(1, 4001):
        worst, vgrad = viol_and_grad(x)
        if worst <= _FEAS_TOL:
            val = cost.value(x)
            if val < best_val:
                best_x, best_val = x.copy(), val
        g = cost_grad(x) + (rho * vgrad if worst > 0.0 else 0.0)
        ng = float(np.linalg.norm(g))
        x = domain.project(x - (scale / ((1.0 + ng) * math.sqrt(k))) * g)
    for _ in range(500):
        cand = domain.sample(rng)
        if cons.violation(cand) <= _FEAS_TOL:
            val = cost.value(cand)
            if val < best_val:
                best_x, best_val = cand.copy(), val
    if best_x is None:
        return None, math.nan, False
    return best_x, best_val, True


def compute_benchmark(replay, domain, kind: str, horizon: int,
                      grid_resolution: float | None = None,
                      checkpoints: tuple[int, ...] = ()) -> BenchmarkResult:
    """Minimize the replayed total cost over the requested comparator set."""
    if kind not in BENCHMARK_KINDS:
        raise ConfigurationError(f"unknown benchmark kind {kind!r}")
    if horizon < 1:
        raise ConfigurationError("benchmark horizon must be >= 1")
    n = domain.dimension
    checkpoints = tuple(sorted(set(int(c) for c in checkpoints)))
    if checkpoints and (checkpoints[0] < 1 or checkpoints[-1] > horizon):
        raise ConfigurationError("checkpoints must lie in [1, horizon]")

    low, high = domain.bounding_box()
    scale = max(float(np.max(high - low)) / 2.0, 1e-12)
    resolution = grid_resolution if grid_resolution is not None else 1e-4 * 2.0 * scale
    if not resolution > 0.0:
        raise ConfigurationError("grid resolution must be positive")

    cost = _CostAccumulator(n)
    cons = _ConstraintAccumulator(n, kind)
    prefix: list[PrefixOptimum] = []
    marks = set(checkpoints)

    on_grid = not (isinstance(domain, Simplex) and n > 1)

    def solve(cost_acc, cons_acc):
        if n == 1 and cons_acc.affine_only and not cost_acc.general:
            x, v, ok = _solve_exact_1d(cost_acc, cons_acc, domain)
            return x, v, ok, 0.0
        if n == 1 and on_grid:
            return _solve_grid(cost_acc, cons_acc, domain, n, resolution)
        if n == 2 and on_grid:
            return _solve_2d(cost_acc, cons_acc, domain, resolution)
        x, v, ok = _solve_subgradient(cost_acc, cons_acc, domain, n)
        return x, v, ok, 1e-3 * scale

    for t in range(1, horizon + 1):
        oracle = replay.round(t)
        cost.add(oracle)
        cons.add(oracle)
        if t in marks and t != horizon:
            x, v, ok, _ = solve(cost.snapshot(), cons.snapshot())
            prefix.append(PrefixOptimum(t=t, x_star=x, total_cost=v, feasible=ok))

    x_star, total, feasible, res_used = solve(cost, cons)
    if checkpoints and checkpoints[-1] == horizon:
        prefix.append(PrefixOptimum(t=horizon, x_star=x_star, total_cost=total,
                                    feasible=feasible))
    return BenchmarkResult(kind=kind, x_star=x_star, optimal_total_cost=total,
                           feasible=feasible, resolution=res_used, prefix=tuple(prefix))


def benchmark_round_costs(replay, x_star: np.ndarray, horizon: int) -> np.ndarray:
    """Per-round cost of the fixed comparator along a replayed scenario."""
    out = np.empty(horizon)
    x = np.asarray(x_star, dtype=float)
    for t in range(1, horizon + 1):
        out[t - 1] = replay.round(t).cost_value(x)
    return out


# -- metrics -----------------------------------------------------------------


@dataclass
class TraceMetrics:
    cum_cost: np.ndarray
    regret: np.ndarray
    violation: np.ndarray
    violation_z: np.ndarray | None = None


def compute_metrics(f_values, g_values, bench_costs=None, gz_values=None) -> TraceMetrics:
    """Recompute cumulative metrics from raw per-round data.

    g_values is (T, d); bench_costs is the comparator's per-round cost (or
    None, which leaves regret as NaN).
    """
    f = np.asarray(f_values, dtype=float)
    g = np.atleast_2d(np.asarray(g_values, dtype=float))
    if g.shape[0] != f.shape[0]:
        g = g.T
    cum_cost = np.cumsum(f)
    if bench_costs is None:
        regret = np.full_like(cum_cost, math.nan)
    else:
        regret = cum_cost - np.cumsum(np.asarray(bench_costs, dtype=float))
    viol = np.linalg.norm(np.maximum(np.cumsum(g, axis=0), 0.0), axis=1)
    viol_z = None
    if gz_values is not None:
        gz = np.atleast_2d(np.asarray(gz_values, dtype=float))
        if gz.shape[0] != f.shape[0]:
            gz = gz.T
        viol_z = np.linalg.norm(np.maximum(np.cumsum(gz, axis=0), 0.0), axis=1)
    return TraceMetrics(cum_cost=cum_cost, regret=regret, violation=viol,
                        violation_z=viol_z)


# -- theoretical bounds --------------------------------------------------------


@dataclass
class BoundReport:
    B_T: float
    V_bound: float
    V_z_bound: float
    clamped: bool
    inputs: dict = field(default_factory=dict)


def _perturbed_constants(sigma: float, a: float, beta: float, bounds) -> tuple[float, float]:
    A1 = 2.0 * sigma * bounds.D ** 2 + 2.0 * bounds.L_f / sigma
    A2 = 4.0 * a * bounds.G ** 2 / (1.0 - beta)
    return A1, A2


def regret_certificate(variant: str, h_sum: float, sigma: float, bounds, *,
                       sum_a_prev_xi_sq: float = 0.0, mu: float = 0.0,
                       xi_sq_sum: float = 0.0, horizon: int = 0, a: float = 0.0,
                       beta: float = 0.0) -> float:
    """The regret certificate B_t of a lazy variant after `horizon` rounds.

    The per-row `bound_B_t` of a trace and the summary's `bound_B_T` both
    come from here.  `llp_perturbed` reads xi_sq_sum, horizon, a and beta;
    the other variants read sum_a_prev_xi_sq and mu, which is nonzero only
    for `llp2`.
    """
    if variant == "llp_perturbed":
        A1, A2 = _perturbed_constants(sigma, a, beta, bounds)
        tail = min(2.0 * a * math.sqrt(xi_sq_sum), A2 * float(horizon) ** (1.0 - beta))
        return A1 * math.sqrt(h_sum) + tail
    base = 2.0 * (sigma * bounds.D ** 2 + bounds.L_f / sigma)
    return base * math.sqrt(h_sum + mu) + sum_a_prev_xi_sq


def _llp_report(variant: str, h_sum: float, sum_a_prev_xi_sq: float, a_prev_last: float,
                regret: float, sigma: float, bounds, mu: float) -> BoundReport:
    B = regret_certificate(variant, h_sum, sigma, bounds, sum_a_prev_xi_sq=sum_a_prev_xi_sq,
                           mu=mu)
    gap = B - regret
    vz = math.sqrt(2.0 * max(gap, 0.0) / a_prev_last)
    v = vz + (2.0 * bounds.L_g / sigma) * math.sqrt(h_sum + mu)
    return BoundReport(B_T=B, V_bound=v, V_z_bound=vz, clamped=gap < 0.0,
                       inputs={"sigma": sigma, "D": bounds.D, "L_f": bounds.L_f,
                               "L_g": bounds.L_g, "h_sum": h_sum,
                               "sum_a_prev_xi_sq": sum_a_prev_xi_sq,
                               "a_prev_last": a_prev_last, "regret": regret})


def llp_bound_report(h_sum: float, sum_a_prev_xi_sq: float, a_prev_last: float,
                     regret: float, sigma: float, bounds) -> BoundReport:
    return _llp_report("llp", h_sum, sum_a_prev_xi_sq, a_prev_last, regret, sigma, bounds, 0.0)


def llp2_bound_report(h_sum: float, sum_a_prev_xi_sq: float, a_prev_last: float,
                      regret: float, sigma: float, bounds, mu_next: float) -> BoundReport:
    rep = _llp_report("llp2", h_sum, sum_a_prev_xi_sq, a_prev_last, regret, sigma, bounds,
                      mu_next)
    base = regret_certificate("llp", h_sum, sigma, bounds, sum_a_prev_xi_sq=sum_a_prev_xi_sq)
    rep.inputs.update(mu_next=mu_next, B_T_base=base)
    return rep


def perturbed_report(h_sum: float, xi_sq_sum: float, horizon: int, regret: float,
                     sigma: float, a: float, beta: float, bounds) -> BoundReport:
    A1, A2 = _perturbed_constants(sigma, a, beta, bounds)
    A3 = 2.0 / a
    A4 = 2.0 * bounds.L_g / sigma
    K = math.sqrt(bounds.G ** 2 + xi_sq_sum)
    t = float(horizon)
    B = regret_certificate("llp_perturbed", h_sum, sigma, bounds, xi_sq_sum=xi_sq_sum,
                           horizon=horizon, a=a, beta=beta)
    gap = B - regret
    clamped = gap < 0.0
    vz = math.sqrt(A3 * max(K, t ** beta) * max(gap, 0.0))
    v = vz + A4 * math.sqrt(h_sum)
    return BoundReport(B_T=B, V_bound=v, V_z_bound=vz, clamped=clamped,
                       inputs={"A_1": A1, "A_2": A2, "A_3": A3, "A_4": A4, "K_T": K,
                               "h_sum": h_sum, "xi_sq_sum": xi_sq_sum,
                               "beta": beta, "a": a, "regret": regret})


def _trace_arrays(records):
    h = np.array([r.h_t for r in records])
    xi = np.array([r.xi_t for r in records])
    a = np.array([r.a_t for r in records])
    return h, xi, a


def evaluate_theorem1_bounds(records, config, regret: float) -> BoundReport:
    h, xi, a = _trace_arrays(records)
    a0 = config.a / max(2.0 * config.bounds.G, 0.0 ** config.beta)
    a_prev = np.concatenate([[a0], a[:-1]])
    return llp_bound_report(float(np.sum(h)), float(np.sum(a_prev * xi * xi)),
                            float(a_prev[-1]), regret, config.sigma, config.bounds)


def evaluate_theorem3_bounds(records, config, regret: float, mu_next: float) -> BoundReport:
    h, xi, a = _trace_arrays(records)
    a0 = config.a / max(2.0 * config.bounds.G, 0.0 ** config.beta)
    a_prev = np.concatenate([[a0], a[:-1]])
    return llp2_bound_report(float(np.sum(h)), float(np.sum(a_prev * xi * xi)),
                             float(a_prev[-1]), regret, config.sigma, config.bounds,
                             mu_next)


# -- growth rates ----------------------------------------------------------------


@dataclass
class ExponentFit:
    exponent: float
    intercept: float
    r_squared: float
    dropped: int = 0

    def __iter__(self):
        return iter((self.exponent, self.intercept, self.r_squared))


def fit_growth_exponent(samples, tail_fraction: float = 1.0) -> ExponentFit:
    """Least-squares slope of log(value) against log(T).

    Pass tail_fraction < 1 to fit only the largest horizons, which
    suppresses small-T transients.  Nonpositive values cannot be logged;
    they are dropped and counted in the result.
    """
    samples = list(samples)
    if len(samples) < 4:
        raise ConfigurationError("need at least 4 (T, value) samples")
    ts = [float(t) for t, _ in samples]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConfigurationError("horizons must be strictly increasing")
    if not 0.0 < tail_fraction <= 1.0:
        raise ConfigurationError("tail_fraction must lie in (0, 1]")
    keep = max(2, int(math.ceil(len(samples) * tail_fraction)))
    tail = samples[-keep:]
    pts = [(t, v) for t, v in tail if v > 0.0]
    dropped = len(tail) - len(pts)
    if len(pts) < 2:
        return ExponentFit(exponent=0.0, intercept=0.0, r_squared=0.0, dropped=dropped)
    lt = np.log([t for t, _ in pts])
    lv = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(lt, lv, 1)
    pred = slope * lt + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - np.mean(lv)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(exponent=float(slope), intercept=float(intercept),
                       r_squared=r2, dropped=dropped)


# -- dual-side sanity -------------------------------------------------------------


def dual_regret_gap(gains, lams, mismatch_norms, a_prevs, comparator):
    """Realized dual regret of the multiplier sequence vs its FTRL certificate.

    gains[t] is the dual gain vector of round t (the constraint values at
    the prescient point), lams[t] the multiplier that was played,
    mismatch_norms[t] the norm of (gain - its optimistic estimate), and
    a_prevs[t] the step size a_{t-1} in force when lams[t] was chosen.
    Returns (realized_regret, certificate) against the given comparator.
    """
    lam_star = np.asarray(comparator, dtype=float)
    realized = 0.0
    cert = 0.0
    for u, lam, m, ap in zip(gains, lams, mismatch_norms, a_prevs):
        u = np.asarray(u, dtype=float)
        realized += float(u @ (lam_star - np.asarray(lam, dtype=float)))
        cert += ap * float(m) ** 2
    cert += float(lam_star @ lam_star) / (2.0 * a_prevs[-1])
    return realized, cert
