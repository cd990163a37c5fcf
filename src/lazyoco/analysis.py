"""Offline benchmarks, trace metrics, bound evaluation, and rate fitting.

The benchmark routines fold the rounds of a run, as it plays them, into
closed forms and minimize the total cost over one of two comparator sets:
the per-round-feasible set (every g_t(x) <= 0) or the aggregate-feasible
set (sum_t g_t(x) <= 0).  Rounds must have affine constraints and affine
or shifted-quadratic costs, and the minimizer is exact.  In one dimension
it is a clipped stationary point or an interval end.  In more dimensions
the total cost is qw/2 ||x - p||^2 plus a constant, so the comparator is
the projection of p onto the box cut by the accumulated rows, solved by a
dual active-set method whose multipliers certify the result:
`BenchmarkResult.gap` is the duality gap in cost units.  A trace row's
comparator cost is read from the cost sums copied at that row, so no
round is kept or drawn twice.

Bound evaluators plug run statistics into the regret/violation
certificates verbatim.  Two of them use different constants in the same
role (4G^2 under the adaptive step size, G^2 inside K_T); both are kept
exactly as defined at their use sites rather than reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sets import Box, ConfigurationError

__all__ = [
    "BENCHMARK_KINDS",
    "PrefixOptimum",
    "BenchmarkResult",
    "ComparatorFold",
    "compute_benchmark",
    "benchmark_round_costs",
    "TraceMetrics",
    "compute_metrics",
    "BoundReport",
    "regret_certificate",
    "llp_bound_report",
    "llp2_bound_report",
    "perturbed_report",
    "ExponentFit",
    "fit_growth_exponent",
]

BENCHMARK_KINDS = ("X_T", "X_T_max")

_FEAS_TOL = 1e-9
# a degenerate cycle of the active-set method would otherwise never end;
# each step adds or drops one of at most n linearly independent rows
_MAX_ACTIVE_SET_STEPS = 10_000


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
    gap: float
    prefix: tuple = ()


class _CostAccumulator:
    """Running closed form lin.x + const + qw/2 ||x||^2 - ql.x of sum_t f_t."""

    def __init__(self, n: int):
        self.n = n
        self.lin = np.zeros(n)
        self.const = 0.0
        self.qw = 0.0
        self.ql = np.zeros(n)

    def add(self, oracle) -> None:
        if oracle.cost_affine is not None:
            c, b = oracle.cost_affine
            self.lin = self.lin + np.asarray(c, dtype=float)
            self.const += float(b)
        else:
            w, u, b = oracle.cost_quadratic
            w = float(w)
            u = np.asarray(u, dtype=float)
            self.qw += w
            self.ql = self.ql + w * u
            self.const += 0.5 * w * float(u @ u) + float(b)

    def value(self, x: np.ndarray) -> float:
        return _cost_value(self.lin, self.const, self.qw, self.ql, x)


def _cost_value(lin, const, qw, ql, x: np.ndarray) -> float:
    # the one formula for a folded total cost, so a row's comparator cost and
    # the comparator's own total agree bit for bit
    return float(lin.dot(x)) + const + 0.5 * qw * float(x.dot(x)) - float(ql.dot(x))


class _ConstraintAccumulator:
    """Affine rows W x + u <= 0 of either benchmark set."""

    def __init__(self, n: int, kind: str):
        self.n = n
        self.kind = kind
        # the distinct rounds' rows (X_T only), keyed by the bytes of W then u;
        # every round has the same number of rows, as every scenario does
        self.rows: dict[bytes, None] = {}
        self.Wsum = None                        # aggregate fold, X_T_max
        self.usum = None

    def add(self, oracle) -> None:
        W = np.asarray(oracle.constraint_affine[0], dtype=float)
        u = np.asarray(oracle.constraint_affine[1], dtype=float)
        if self.kind == "X_T_max":
            if self.Wsum is None:
                self.Wsum = W.copy()
                self.usum = u.copy()
            else:
                self.Wsum = self.Wsum + W
                self.usum = self.usum + u
        else:
            self.rows[W.tobytes() + u.tobytes()] = None

    def row_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated (W, u) stack of every affine inequality that must hold."""
        if self.kind == "X_T_max":
            if self.Wsum is None:
                return np.zeros((0, self.n)), np.zeros(0)
            return self.Wsum, self.usum
        if not self.rows:
            return np.zeros((0, self.n)), np.zeros(0)
        n = self.n
        blocks = np.frombuffer(b"".join(self.rows), dtype=float).reshape(len(self.rows), -1)
        d = blocks.shape[1] // (n + 1)
        stacked = np.column_stack((blocks[:, :d * n].reshape(-1, n),
                                   blocks[:, d * n:].reshape(-1)))
        stacked = np.unique(stacked, axis=0)
        return stacked[:, :-1], stacked[:, -1]


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
    # a one-dimensional set is the interval between its linear minimizers
    lo, hi = _interval_1d(cons, float(domain.argmin_linear(np.ones(1))[0]),
                          float(domain.argmin_linear(-np.ones(1))[0]))
    if lo > hi:
        return None, math.nan, False
    slope = float(cost.lin[0] - cost.ql[0])
    if cost.qw > 0.0:
        x = min(max(-slope / cost.qw, lo), hi)
    else:
        x = hi if slope < 0.0 else lo
    xv = np.array([x])
    return xv, cost.value(xv), True


def _project_polytope(p: np.ndarray, G: np.ndarray,
                      h: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """min 1/2 ||x - p||^2 s.t. G x <= h by the Goldfarb-Idnani dual method.

    Starts at x = p with no active rows and adds the most violated row
    until every row holds within _FEAS_TOL.  Throughout, x = p - G^T u
    with u >= 0 zero off the active rows, which stay linearly independent
    and tight.  Returns (x, u), or (None, u) when a violated row has no
    step direction: the rows are then inconsistent.
    """
    x = p.copy()
    u = np.zeros(len(h))
    active: list[int] = []
    steps = 0
    while True:
        viol = G @ x - h
        j = int(np.argmax(viol))
        if viol[j] <= _FEAS_TOL:
            return x, u
        g = G[j]
        while True:  # raise u_j until row j is tight, dropping rows whose u hits 0
            steps += 1
            if steps > _MAX_ACTIVE_SET_STEPS:
                raise RuntimeError("comparator projection did not converge in "
                                   f"{_MAX_ACTIVE_SET_STEPS} active-set steps")
            N = G[active]
            r = np.linalg.lstsq(N.T, g, rcond=None)[0] if active else np.zeros(0)
            z = g - N.T @ r  # part of g_j orthogonal to the active rows
            zz = float(z @ z)
            t_full = float(g @ x - h[j]) / zz if zz > 1e-20 * float(g @ g) else math.inf
            pos = np.flatnonzero(r > 0.0)
            ratios = u[np.asarray(active)[pos]] / r[pos] if len(pos) else np.zeros(0)
            k = int(np.argmin(ratios)) if len(pos) else -1
            t = min(t_full, float(ratios[k]) if k >= 0 else math.inf)
            if t == math.inf:
                return None, u
            if t_full < math.inf:
                x = x - t * z
            u[active] -= t * r
            u[j] += t
            if t == t_full:
                active.append(j)
                break
            dropped = active.pop(int(pos[k]))
            u[dropped] = 0.0


def _solve_projection(cost: _CostAccumulator, cons: _ConstraintAccumulator,
                      domain) -> tuple[np.ndarray | None, float, bool, float]:
    if cost.qw <= 0.0:
        raise ConfigurationError("the comparator for n >= 2 needs a strictly convex "
                                 "total cost; the played costs have no quadratic part")
    W, u = cons.row_matrix()
    n = cost.n
    G = np.vstack([W, np.eye(n), -np.eye(n)])
    h = np.concatenate([-u, domain.upper, -domain.lower])
    p = (cost.ql - cost.lin) / cost.qw
    x, mult = _project_polytope(p, G, h)
    if x is None:
        return None, math.nan, False, math.nan
    Gu = G.T @ mult
    primal = 0.5 * float((x - p) @ (x - p))
    dual = float(mult @ (G @ p - h)) - 0.5 * float(Gu @ Gu)
    return x, cost.value(x), True, cost.qw * (primal - dual)


class ComparatorFold:
    """The played rounds, added once each in play order, folded for the comparator.

    `mark` keeps the comparator over the rounds so far as a prefix optimum.
    """

    def __init__(self, domain, kind: str):
        if kind not in BENCHMARK_KINDS:
            raise ConfigurationError(f"unknown benchmark kind {kind!r}")
        n = domain.dimension
        if n >= 2 and not isinstance(domain, Box):
            raise ConfigurationError(
                f"the comparator for n >= 2 needs a box domain, got {type(domain).__name__}")
        self.domain = domain
        self.kind = kind
        self.t = 0
        self.cost = _CostAccumulator(n)
        self.cons = _ConstraintAccumulator(n, kind)
        self.prefix: list[PrefixOptimum] = []
        self.cost_sums_size = 2 * n + 2

    def add(self, oracle) -> None:
        t = self.t + 1
        if oracle.cost_affine is None and oracle.cost_quadratic is None:
            raise ConfigurationError(f"round {t}: the comparator needs an affine or "
                                     "shifted-quadratic cost")
        if oracle.constraint_affine is None:
            raise ConfigurationError(f"round {t}: the comparator needs an affine constraint")
        self.cost.add(oracle)
        self.cons.add(oracle)
        self.t = t

    def copy_cost_sums(self, out: np.ndarray) -> None:
        """Write the cost sums lin, const, qw, ql into out, of length 2n + 2."""
        c = self.cost
        out[:c.n] = c.lin
        out[c.n] = c.const
        out[c.n + 1] = c.qw
        out[c.n + 2:] = c.ql

    def solve(self) -> tuple[np.ndarray | None, float, bool, float]:
        """(x, total cost, feasible, duality gap) over the rounds so far."""
        if self.cost.n >= 2:
            return _solve_projection(self.cost, self.cons, self.domain)
        x, v, ok = _solve_exact_1d(self.cost, self.cons, self.domain)
        return x, v, ok, 0.0 if ok else math.nan

    def mark(self) -> None:
        x, v, ok, _ = self.solve()
        self.prefix.append(PrefixOptimum(t=self.t, x_star=x, total_cost=v, feasible=ok))


def compute_benchmark(fold: ComparatorFold) -> BenchmarkResult:
    """Minimize the folded total cost over the fold's comparator set."""
    if fold.t < 1:
        raise ConfigurationError("the comparator needs at least one played round")
    x_star, total, feasible, gap = fold.solve()
    return BenchmarkResult(kind=fold.kind, x_star=x_star, optimal_total_cost=total,
                           feasible=feasible, gap=gap, prefix=tuple(fold.prefix))


def benchmark_round_costs(cost_sums: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """The comparator's total cost up to each trace row, from the cost sums
    `ComparatorFold.copy_cost_sums` wrote there (one row each)."""
    x = np.asarray(x_star, dtype=float)
    n = len(x)
    columns = (cost_sums[:, :n], cost_sums[:, n], cost_sums[:, n + 1], cost_sums[:, n + 2:])
    return np.fromiter((_cost_value(*row, x) for row in zip(*columns)), dtype=float,
                       count=len(cost_sums))


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
