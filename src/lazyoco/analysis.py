"""Offline benchmarks, bound evaluation, and rate fitting.

The benchmark routines fold the rounds of a run, a block at a time as it
plays them, into closed forms and minimize the total cost over one of two
comparator sets: the per-round-feasible set (every g_t(x) <= 0) or the
aggregate-feasible set (sum_t g_t(x) <= 0) within the box domain.  Every
round has an affine constraint and an affine or shifted-quadratic cost
(`problems.RoundOracle` admits nothing else), and the minimizer is exact.
The fold keeps the cost sums and, of the constraints, only what its set
needs, and each set solves itself: in one dimension the per-round set is
an interval, three numbers folded as the blocks arrive; in more it is
every round's rows, appended in play order to the system G x <= h that
the solve reads.  The aggregate set is one summed row per constraint,
which it hands, as one round, to a fresh per-round set and solves there.
In one dimension the minimizer is a clipped stationary point or an
interval end.  In more dimensions the total cost is qw/2 ||x - p||^2 plus
a constant, so the comparator is the projection of p onto the box cut by
the rows, solved by a dual active-set method whose multipliers certify
the result: `BenchmarkResult.gap` is the duality gap in cost units.  A
block's fold returns the cost sums after each of its rounds, and a trace
row's comparator cost is read from its round's sums, so no round is kept
past its block or drawn twice.

The certificates are two formulas.  `regret_certificate` is B_t, over
numbers or over a trace's running-sum columns; a run evaluates it once,
over its `bound_B_t` column, and the summary's `bound_B_T` is the last
row.  `violation_certificate` turns B_T, the regret and the run's sums
into V and V_z, with one branch for `llp`/`llp2` (a_{T-1}, mu) and one
for `llp_perturbed` (K_T, T^beta).  K_T = sqrt(G^2 + sum xi^2) takes G^2
where the adaptive step size takes 4G^2; both stay as defined at their
use sites rather than reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import _Scenario
from .sets import ConfigurationError

__all__ = [
    "BENCHMARK_KINDS",
    "BenchmarkResult",
    "ComparatorFold",
    "compute_benchmark",
    "benchmark_round_costs",
    "regret_certificate",
    "violation_certificate",
    "ExponentFit",
    "fit_growth_exponent",
]

BENCHMARK_KINDS = ("X_T", "X_T_max")

_FEAS_TOL = 1e-9
# trace rows per vector pass of `benchmark_round_costs`: the scenarios' draw block
_PASS_ROWS = _Scenario._BLOCK
# a degenerate cycle of the active-set method would otherwise never end;
# each step adds or drops one of at most n linearly independent rows
_MAX_ACTIVE_SET_STEPS = 10_000


@dataclass
class BenchmarkResult:
    kind: str
    x_star: np.ndarray | None
    optimal_total_cost: float
    feasible: bool
    gap: float


def _split(sums: np.ndarray, n: int):
    """(lin, const, qw, ql) of one vector of cost sums, or columns of a block of rows."""
    return sums[..., :n], sums[..., n], sums[..., n + 1], sums[..., n + 2:]


class _Interval:
    """X_T in one dimension: the interval of the box every round's rows leave.

    min and max are exact and independent of order, so folding a block's
    rows at once gives the ends a scan of the rows one at a time would: an
    end moves only to a strictly tighter one, the first of equal ends is
    kept (so the sign of a zero end is the scan's), and a NaN end, which no
    comparison admits, is skipped.
    """

    def __init__(self, domain):
        self.lo = float(domain.lower[0])
        self.hi = float(domain.upper[0])
        self.infeasible = False

    def add(self, Ws, us) -> None:
        """Fold the rows of each pair (W, u) of Ws and us."""
        w, v = np.concatenate(Ws)[:, 0], np.concatenate(us)
        up, down = w > 0.0, w < 0.0
        if (v[~(up | down)] > _FEAS_TOL).any():
            self.infeasible = True
        ends = (-v[up] + _FEAS_TOL) / w[up]
        ends = ends[ends < self.hi]
        if len(ends):
            self.hi = float(ends[ends.argmin()])
        ends = (-v[down] + _FEAS_TOL) / w[down]
        ends = ends[ends > self.lo]
        if len(ends):
            self.lo = float(ends[ends.argmax()])

    def solve(self, sums: np.ndarray) -> tuple[np.ndarray | None, float]:
        """(x, 0.0): the clipped stationary point or an interval end, exact;
        (None, 0.0) when the interval is empty."""
        if self.infeasible or self.lo > self.hi:
            return None, 0.0
        lin, _, qw, ql = _split(sums, 1)
        slope, qw = float(lin[0] - ql[0]), float(qw)
        if qw > 0.0:
            return np.array([min(max(-slope / qw, self.lo), self.hi)]), 0.0
        return np.array([self.hi if slope < 0.0 else self.lo]), 0.0


def _sum_in_order(start, terms) -> np.ndarray:
    """start + terms[0] + terms[1] + ..., added in that order: a cumulative sum
    adds in sequence, where a reduction may add pairwise."""
    shape = terms[0].shape
    acc = np.empty((len(terms) + 1, *shape))
    acc[0] = start
    np.concatenate(terms, out=acc[1:].reshape(-1, *shape[1:]))
    return np.cumsum(acc, axis=0)[-1]


def _per_round_set(domain):
    """X_T's fold: the interval in one dimension, every round's rows otherwise."""
    return _Interval(domain) if domain.dimension == 1 else _PlayedRows(domain)


class _RowSums:
    """X_T_max: the summed rows sum_t W_t x + sum_t u_t <= 0, one per constraint,
    which is X_T of one round whose rows are those sums."""

    def __init__(self, domain):
        self.domain = domain
        # -0.0 is the identity of +, so the first round's rows are kept bit for bit
        self.W = self.u = -0.0

    def add(self, Ws, us) -> None:
        self.W = _sum_in_order(self.W, Ws)
        self.u = _sum_in_order(self.u, us)

    def solve(self, sums: np.ndarray) -> tuple[np.ndarray | None, float]:
        summed = _per_round_set(self.domain)
        summed.add([self.W], [self.u])
        return summed.solve(sums)


class _PlayedRows:
    """X_T for n >= 2: every round's rows, in play order, as the system G x <= h.

    Each round's W goes into the next rows of G and -u into the next entries
    of h; both buffers double when full.  `system` writes the box rows
    I, -I and bounds upper, -lower after the last round's rows and returns
    the C-contiguous prefixes, which the next `add` overwrites.  A repeated
    row is kept: the active-set solve never adds a row whose twin is
    already active, since it is tight then.
    """

    _START_ROWS = 256

    def __init__(self, domain):
        self.domain = domain
        self.n = domain.dimension
        self.G = np.empty((self._START_ROWS, self.n))
        self.h = np.empty(self._START_ROWS)
        self.m = 0

    def _reserve(self, rows: int) -> None:
        size = len(self.h)
        while size < rows:
            size *= 2
        if size > len(self.h):
            # realloc: no second buffer; no view of the buffers outlives a solve
            self.G.resize((size, self.n), refcheck=False)
            self.h.resize(size, refcheck=False)

    def add(self, Ws, us) -> None:
        u = np.concatenate(us)
        end = self.m + len(u)
        self._reserve(end)
        np.concatenate(Ws, out=self.G[self.m:end])
        np.negative(u, out=self.h[self.m:end])
        self.m = end

    def system(self) -> tuple[np.ndarray, np.ndarray]:
        m, n = self.m, self.n
        self._reserve(m + 2 * n)
        G, h = self.G[:m + 2 * n], self.h[:m + 2 * n]
        G[m:m + n] = np.eye(n)
        G[m + n:] = -np.eye(n)
        h[m:m + n] = self.domain.upper
        h[m + n:] = -self.domain.lower
        return G, h

    def solve(self, sums: np.ndarray) -> tuple[np.ndarray | None, float]:
        """(x, duality gap in cost units), or (None, NaN) when the rows are inconsistent."""
        lin, _, qw, ql = _split(sums, self.n)
        qw = float(qw)
        if qw <= 0.0:
            raise ConfigurationError("the comparator for n >= 2 needs a strictly convex "
                                     "total cost; the played costs have no quadratic part")
        p = (ql - lin) / qw
        G, h = self.system()
        x, mult = _project_polytope(p, G, h)
        if x is None:
            return None, math.nan
        Gu = G.T @ mult
        primal = 0.5 * float((x - p) @ (x - p))
        slack = G @ p
        slack -= h
        dual = float(mult @ slack) - 0.5 * float(Gu @ Gu)
        return x, qw * (primal - dual)


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


class ComparatorFold:
    """The played rounds, added once each in play order, folded for the comparator.

    `sums` is the running closed form lin.x + const + qw/2 ||x||^2 - ql.x of
    sum_t f_t, one vector (lin, const, qw, ql) of length 2n + 2 started at
    +0.0, and `cons` is the comparator set's fold of the constraint rows.
    A block of rounds is added to the sums as one cumulative sum of its
    per-round terms, which adds them in play order, as a `+=` a round
    would.  A round adds +0.0 to the sums it does not touch (qw and ql at
    an affine round, lin at a quadratic one), which changes no bit: a sum
    started at +0.0 is never -0.0.  `compute_benchmark` reads the fold as
    it stands, so it gives the comparator of the rounds so far at any
    round, without replaying one.
    """

    def __init__(self, domain, kind: str):
        if kind not in BENCHMARK_KINDS:
            raise ConfigurationError(f"unknown benchmark kind {kind!r}")
        self.kind = kind
        self.n = domain.dimension
        self.t = 0
        self.sums = np.zeros(2 * self.n + 2)
        self.cons = _RowSums(domain) if kind == "X_T_max" else _per_round_set(domain)

    def add(self, rounds) -> np.ndarray:
        """Fold played rounds, in play order; return the cost sums after each
        of them, one row of `len(sums)` per round."""
        if not rounds:
            return np.empty((0, len(self.sums)))
        n = self.n
        steps = np.zeros((len(rounds) + 1, len(self.sums)))
        steps[0] = self.sums
        affine = [i for i, o in enumerate(rounds, 1) if o.cost_affine is not None]
        if affine:
            c, b = zip(*[rounds[i - 1].cost_affine for i in affine])
            steps[affine, :n] = np.concatenate(c).reshape(-1, n)
            steps[affine, n] = b
        if len(affine) < len(rounds):
            quadratic = [i for i, o in enumerate(rounds, 1) if o.cost_affine is None]
            w, u, b = zip(*[rounds[i - 1].cost_quadratic for i in quadratic])
            w, U = np.array(w), np.concatenate(u).reshape(-1, n)
            # each round keeps its own u.dot(u): no vector op repeats the
            # order in which that dot adds
            uu = np.array([float(v.dot(v)) for v in u])
            steps[quadratic, n] = 0.5 * w * uu + b
            steps[quadratic, n + 1] = w
            steps[quadratic, n + 2:] = U * w[:, None]
        np.cumsum(steps, axis=0, out=steps)
        self.sums = steps[-1].copy()
        self.cons.add([o.constraint_affine[0] for o in rounds],
                      [o.constraint_affine[1] for o in rounds])
        self.t += len(rounds)
        return steps[1:]


def compute_benchmark(fold: ComparatorFold) -> BenchmarkResult:
    """Minimize the folded total cost over the fold's comparator set, so far.

    The one entry to the comparator: x* is priced by `benchmark_round_costs`
    on the fold's sums, the formula every trace row's comparator cost takes.
    """
    if fold.t < 1:
        raise ConfigurationError("the comparator needs at least one played round")
    x, gap = fold.cons.solve(fold.sums)
    if x is None:
        return BenchmarkResult(kind=fold.kind, x_star=None, optimal_total_cost=math.nan,
                               feasible=False, gap=math.nan)
    return BenchmarkResult(kind=fold.kind, x_star=x, feasible=True, gap=gap,
                           optimal_total_cost=float(benchmark_round_costs(fold.sums[None], x)[0]))


def benchmark_round_costs(cost_sums: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """The comparator's total cost up to each trace row, from the cost sums
    `ComparatorFold.add` returned for that row's round (one row each).

    lin.x + const + qw/2 x.x - ql.x on every row, in vector passes of up to
    `_PASS_ROWS` rows, so no temporary grows with the trace: at n = 1 a
    dot is one product, and at n >= 2 each row keeps its own `.dot`, whose
    order of adding no vector op repeats.
    """
    x = np.asarray(x_star, dtype=float)
    n = len(x)
    xx = float(x.dot(x))
    costs = np.empty(len(cost_sums))
    for a in range(0, len(costs), _PASS_ROWS):
        lin, const, qw, ql = _split(cost_sums[a:a + _PASS_ROWS], n)
        if n == 1:
            lin_x, ql_x = lin[:, 0] * x[0], ql[:, 0] * x[0]
        else:
            lin_x = np.array([row.dot(x) for row in lin])
            ql_x = np.array([row.dot(x) for row in ql])
        costs[a:a + _PASS_ROWS] = lin_x + const + 0.5 * qw * xx - ql_x
    return costs


# -- theoretical bounds --------------------------------------------------------


def regret_certificate(variant: str, h_sum, sigma: float, bounds, *,
                       sum_a_prev_xi_sq=0.0, mu=0.0, xi_sq_sum=0.0, horizon=0,
                       a: float = 0.0, beta: float = 0.0):
    """The regret certificate B_t of a lazy variant after `horizon` rounds.

    The `bound_B_t` column of a trace comes from here, and the summary's
    `bound_B_T` is its last row.  `llp_perturbed` reads xi_sq_sum, horizon,
    a and beta; the other variants read sum_a_prev_xi_sq and mu, which is
    nonzero only for `llp2`.  The running sums (h_sum, sum_a_prev_xi_sq,
    mu, xi_sq_sum, horizon) are numbers, giving a float, or equal-length
    columns, giving the column of B_t row by row.
    """
    if variant == "llp_perturbed":
        A1 = 2.0 * sigma * bounds.D ** 2 + 2.0 * bounds.L_f / sigma
        A2 = 4.0 * a * bounds.G ** 2 / (1.0 - beta)
        # Python's pow row by row: numpy's vectorized power can differ from
        # it in the last bit
        growth = np.array([A2 * float(t) ** (1.0 - beta)
                           for t in np.ravel(horizon).tolist()]).reshape(np.shape(horizon))
        B = A1 * np.sqrt(h_sum) + np.minimum(2.0 * a * np.sqrt(xi_sq_sum), growth)
    else:
        base = 2.0 * (sigma * bounds.D ** 2 + bounds.L_f / sigma)
        B = base * np.sqrt(h_sum + mu) + sum_a_prev_xi_sq
    return B if np.ndim(B) else float(B)


def violation_certificate(variant: str, B_T: float, regret: float, sigma: float, bounds, *,
                          h_sum: float, a_prev: float = 0.0, mu: float = 0.0,
                          xi_sq_sum: float = 0.0, horizon: int = 0, a: float = 0.0,
                          beta: float = 0.0) -> tuple[float, float, bool]:
    """(V, V_z, clamped): the violation certificates of a lazy variant after
    `horizon` rounds, from its regret certificate B_T and realized regret.

    V_z bounds the prescient points' violation and V the played points'.
    Both read the slack B_T - regret, taken as 0 when it is negative, which
    `clamped` reports.  `llp_perturbed` scales it by K_T = sqrt(G^2 +
    xi_sq_sum) or T^beta, whichever is larger, and reads a and beta; the
    other variants divide it by a_prev = a_{T-1} and read mu.
    """
    gap = B_T - regret
    if variant == "llp_perturbed":
        K = math.sqrt(bounds.G ** 2 + xi_sq_sum)
        vz = math.sqrt(2.0 / a * max(K, float(horizon) ** beta) * max(gap, 0.0))
        return vz + 2.0 * bounds.L_g / sigma * math.sqrt(h_sum), vz, gap < 0.0
    vz = math.sqrt(2.0 * max(gap, 0.0) / a_prev)
    return vz + (2.0 * bounds.L_g / sigma) * math.sqrt(h_sum + mu), vz, gap < 0.0


# -- growth rates ----------------------------------------------------------------


@dataclass
class ExponentFit:
    exponent: float
    intercept: float
    r_squared: float
    dropped: int = 0


def fit_growth_exponent(samples) -> ExponentFit:
    """Least-squares slope of log(value) against log(T), over every sample.

    Nonpositive values cannot be logged; they are dropped and counted in
    the result.
    """
    samples = list(samples)
    if len(samples) < 4:
        raise ConfigurationError("need at least 4 (T, value) samples")
    ts = [float(t) for t, _ in samples]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConfigurationError("horizons must be strictly increasing")
    pts = [(t, v) for t, v in samples if v > 0.0]
    dropped = len(samples) - len(pts)
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
