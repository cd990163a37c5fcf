"""Offline benchmarks, bound evaluation, and rate fitting.

The benchmark routines fold the rounds of a run, as it plays them, into
closed forms and minimize the total cost over one of two comparator sets:
the per-round-feasible set (every g_t(x) <= 0) or the aggregate-feasible
set (sum_t g_t(x) <= 0) within the box domain.  Every round has an affine
constraint and an affine or shifted-quadratic cost (`problems.RoundOracle`
admits nothing else), and the minimizer is exact.  The fold keeps of the
constraints only what its set needs: in one dimension the per-round set is
an interval, three numbers folded as the rounds arrive; the aggregate set
is one summed row per constraint; and the per-round set in more
dimensions is every distinct row [W | u], held once as float64 in one
buffer that is deduplicated in place and read in place by the solve.
In one dimension the minimizer is a clipped stationary point or an
interval end.  In more dimensions the total cost is qw/2 ||x - p||^2 plus
a constant, so the comparator is the projection of p onto the box cut by
the rows, solved by a dual active-set method whose multipliers certify
the result: `BenchmarkResult.gap` is the duality gap in cost units.  A
trace row's comparator cost is read from the cost sums copied at that
row, so no round is kept or drawn twice.

Bound evaluators plug run statistics into the regret/violation
certificates verbatim.  Two of them use different constants in the same
role (4G^2 under the adaptive step size, G^2 inside K_T); both are kept
exactly as defined at their use sites rather than reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sets import ConfigurationError

__all__ = [
    "BENCHMARK_KINDS",
    "PrefixOptimum",
    "BenchmarkResult",
    "ComparatorFold",
    "compute_benchmark",
    "benchmark_round_costs",
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
        self._wu = np.empty(n)          # w u of the round being added

    def add(self, oracle) -> None:
        if oracle.cost_affine is not None:
            c, b = oracle.cost_affine
            # affine costs are 1-D in every scenario, and numpy adds two
            # 1-element arrays in place at twice the time of out of place
            self.lin = self.lin + c
            self.const += b
        else:
            w, u, b = oracle.cost_quadratic
            self.qw += w
            self.ql += np.multiply(u, w, out=self._wu)
            self.const += 0.5 * w * float(u @ u) + b

    def value(self, x: np.ndarray) -> float:
        return _cost_value(self.lin, self.const, self.qw, self.ql, x)


def _cost_value(lin, const, qw, ql, x: np.ndarray) -> float:
    # the one formula for a folded total cost, so a row's comparator cost and
    # the comparator's own total agree bit for bit
    return float(lin.dot(x)) + const + 0.5 * qw * float(x.dot(x)) - float(ql.dot(x))


def _box_rows(G: np.ndarray, h: np.ndarray, domain) -> None:
    """Write the box as the 2n rows x <= upper, -x <= -lower of G x <= h."""
    n = G.shape[1]
    G[:n] = np.eye(n)
    G[n:] = -np.eye(n)
    h[:n] = domain.upper
    h[n:] = -domain.lower


class _Interval:
    """X_T in one dimension: the interval of the box every round's rows leave.

    min and max are exact and independent of order, so folding the rows as
    they arrive gives the ends a scan of the distinct rows would.
    """

    def __init__(self, domain):
        self.lo = float(domain.lower[0])
        self.hi = float(domain.upper[0])
        self.infeasible = False

    def add(self, W: np.ndarray, u: np.ndarray) -> None:
        for (w,), v in zip(W.tolist(), u.tolist()):
            if w > 0.0:
                end = (-v + _FEAS_TOL) / w
                if end < self.hi:
                    self.hi = end
            elif w < 0.0:
                end = (-v + _FEAS_TOL) / w
                if end > self.lo:
                    self.lo = end
            elif v > _FEAS_TOL:
                self.infeasible = True

    def interval(self) -> tuple[float, float, bool]:
        return self.lo, self.hi, self.infeasible


class _RowSums:
    """X_T_max: the summed rows sum_t W_t x + sum_t u_t <= 0, one per constraint."""

    def __init__(self, domain):
        self.domain = domain
        self.n = domain.dimension
        self.G = None       # (d + 2n, n): the summed W, then the box rows
        self.usum = None
        self.h = None

    def _start(self, d: int) -> None:
        # -0.0 is the identity of +, so the first round's rows are kept bit for bit
        self.G = np.full((d + 2 * self.n, self.n), -0.0)
        self.usum = np.full(d, -0.0)
        self.h = np.empty(d + 2 * self.n)
        _box_rows(self.G[d:], self.h[d:], self.domain)

    def add(self, W: np.ndarray, u: np.ndarray) -> None:
        if self.G is None:
            self._start(len(u))
        self.G[:len(u)] += W
        self.usum += u

    def interval(self) -> tuple[float, float, bool]:
        folded = _Interval(self.domain)
        if self.G is not None:
            folded.add(self.G[:len(self.usum)], self.usum)
        return folded.interval()

    def system(self) -> tuple[np.ndarray, np.ndarray]:
        if self.G is None:
            self._start(0)
        np.negative(self.usum, out=self.h[:len(self.usum)])
        return self.G, self.h


class _DistinctRows:
    """X_T for n >= 2: the distinct rows [W | u] of every round, as float64.

    Each round's rows are appended to one buffer.  A full buffer is first
    deduplicated in place, and grows only if distinct rows then fill more
    than half of it, so it holds at most about twice the distinct rows.
    To solve, the rows are deduplicated and laid out in place as the system
    G x <= h, G = [W; I; -I] and h = [-u; upper; -lower], with G
    C-contiguous: BLAS rounds G^T y differently when G's rows are strided
    (n = 2, 3), and the comparator's floats should not depend on how its
    rows are stored.  The next added round lays the buffer out as rows again.
    """

    _START_ROWS = 256
    _CHUNK_ROWS = 4096      # rows moved per copy when the buffer is laid out anew

    def __init__(self, domain):
        self.domain = domain
        n = self.n = domain.dimension
        self.rows = np.empty((self._START_ROWS, n + 1))
        self.filled = 0
        # a sorted row's fields compare as np.unique(axis=0) compares rows
        self.key = np.dtype([(f"f{i}", float) for i in range(n + 1)])
        self.split = False      # the buffer holds the system, not the rows

    def add(self, W: np.ndarray, u: np.ndarray) -> None:
        if self.split:
            self._join()
        end = self.filled + len(u)
        if end > len(self.rows):
            self._make_room(len(u))
            end = self.filled + len(u)
        self.rows[self.filled:end, :self.n] = W
        self.rows[self.filled:end, self.n] = u
        self.filled = end

    def _grow(self, rows: int) -> None:
        # realloc: no second buffer; no view of the buffer outlives a solve
        self.rows.resize((rows, self.n + 1), refcheck=False)

    def _make_room(self, d: int) -> None:
        self.filled = self._distinct()
        if 2 * (self.filled + d) > len(self.rows):
            self._grow(2 * (self.filled + d))

    def _distinct(self) -> int:
        """Sort the filled rows as np.unique(axis=0) does and drop the repeats.

        A zero is kept as +0.0, so rows that differ only in the sign of a zero
        are one row.  Returns the number of distinct rows, which then lead the
        buffer in sorted order.
        """
        rows = self.rows[:self.filled]
        rows += 0.0
        keys = rows.view(self.key)[:, 0]
        # stable sort is timsort, which takes the rows the last call sorted as one run
        keys.sort(kind="stable")
        later = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        if len(later) + 1 < len(keys):
            # the kept rows move toward the front, chunk by chunk; a chunk's
            # rows are read before any row of a later chunk is overwritten
            for s in range(0, len(later), self._CHUNK_ROWS):
                idx = later[s:s + self._CHUNK_ROWS]
                rows[1 + s:1 + s + len(idx)] = rows[idx]
            return len(later) + 1
        return len(keys)

    def system(self) -> tuple[np.ndarray, np.ndarray]:
        """The views G, h of the deduplicated rows and the box."""
        if not self.split:
            self._split()
        return self._system_views()

    def _split(self) -> None:
        """Lay the distinct rows out as the system G x <= h."""
        n = self.n
        m = self.filled = self._distinct()
        if m + 2 * n > len(self.rows):
            self._grow(m + 2 * n)
        flat = self.rows.reshape(-1)
        h_top = -self.rows[:m, n]
        for a in range(0, m, self._CHUNK_ROWS):     # rows move toward the front
            b = min(a + self._CHUNK_ROWS, m)
            flat[a * n:b * n].reshape(b - a, n)[...] = self.rows[a:b, :n]
        G, h = self._system_views()
        h[:m] = h_top
        _box_rows(G[m:], h[m:], self.domain)
        self.split = True

    def _system_views(self) -> tuple[np.ndarray, np.ndarray]:
        size = self.filled + 2 * self.n
        flat = self.rows.reshape(-1)
        return flat[:size * self.n].reshape(size, self.n), flat[size * self.n:size * (self.n + 1)]

    def _join(self) -> None:
        """Lay the system out as rows [W | u] again."""
        n, m = self.n, self.filled
        G, h = self._system_views()
        u = -h[:m]
        for b in range(m, 0, -self._CHUNK_ROWS):       # rows move toward the back
            a = max(0, b - self._CHUNK_ROWS)
            self.rows[a:b, :n] = G[a:b]
        self.rows[:m, n] = u
        self.split = False


def _solve_exact_1d(cost: _CostAccumulator, lo: float, hi: float,
                    infeasible: bool) -> tuple[np.ndarray | None, float, bool]:
    if infeasible or lo > hi:
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
        viol = G @ x
        viol -= h
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


def _solve_projection(cost: _CostAccumulator, G: np.ndarray,
                      h: np.ndarray) -> tuple[np.ndarray | None, float, bool, float]:
    if cost.qw <= 0.0:
        raise ConfigurationError("the comparator for n >= 2 needs a strictly convex "
                                 "total cost; the played costs have no quadratic part")
    p = (cost.ql - cost.lin) / cost.qw
    x, mult = _project_polytope(p, G, h)
    if x is None:
        return None, math.nan, False, math.nan
    Gu = G.T @ mult
    primal = 0.5 * float((x - p) @ (x - p))
    slack = G @ p
    slack -= h
    dual = float(mult @ slack) - 0.5 * float(Gu @ Gu)
    return x, cost.value(x), True, cost.qw * (primal - dual)


class ComparatorFold:
    """The played rounds, added once each in play order, folded for the comparator.

    `mark` keeps the comparator over the rounds so far as a prefix optimum.
    """

    def __init__(self, domain, kind: str):
        if kind not in BENCHMARK_KINDS:
            raise ConfigurationError(f"unknown benchmark kind {kind!r}")
        n = domain.dimension
        self.kind = kind
        self.t = 0
        self.cost = _CostAccumulator(n)
        if kind == "X_T_max":
            self.cons = _RowSums(domain)
        elif n == 1:
            self.cons = _Interval(domain)
        else:
            self.cons = _DistinctRows(domain)
        self.prefix: list[PrefixOptimum] = []
        self.cost_sums_size = 2 * n + 2

    def add(self, oracle) -> None:
        self.cost.add(oracle)
        self.cons.add(*oracle.constraint_affine)
        self.t += 1

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
            return _solve_projection(self.cost, *self.cons.system())
        x, v, ok = _solve_exact_1d(self.cost, *self.cons.interval())
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


def regret_certificate(variant: str, h_sum, sigma: float, bounds, *,
                       sum_a_prev_xi_sq=0.0, mu=0.0, xi_sq_sum=0.0, horizon=0,
                       a: float = 0.0, beta: float = 0.0):
    """The regret certificate B_t of a lazy variant after `horizon` rounds.

    The `bound_B_t` column of a trace and the summary's `bound_B_T` both
    come from here.  `llp_perturbed` reads xi_sq_sum, horizon, a and beta;
    the other variants read sum_a_prev_xi_sq and mu, which is nonzero only
    for `llp2`.  The running sums (h_sum, sum_a_prev_xi_sq, mu, xi_sq_sum,
    horizon) are numbers, giving a float, or equal-length columns, giving
    the column of B_t row by row.
    """
    if variant == "llp_perturbed":
        A1, A2 = _perturbed_constants(sigma, a, beta, bounds)
        # Python's pow row by row: numpy's vectorized power can differ from
        # it in the last bit
        growth = np.array([A2 * float(t) ** (1.0 - beta)
                           for t in np.ravel(horizon).tolist()]).reshape(np.shape(horizon))
        B = A1 * np.sqrt(h_sum) + np.minimum(2.0 * a * np.sqrt(xi_sq_sum), growth)
    else:
        base = 2.0 * (sigma * bounds.D ** 2 + bounds.L_f / sigma)
        B = base * np.sqrt(h_sum + mu) + sum_a_prev_xi_sq
    return B if np.ndim(B) else float(B)


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
