"""Brute-force reference computations for the test suite.

Everything here re-derives results from first principles (dense grids,
direct summation, the step-size recursion rebuilt from each round's
values) so that expected values are frozen from an independent oracle
rather than from the code under test.  `play` and `play_run` take those
per-round values off the learner after each round.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from lazyoco.analysis import regret_certificate, violation_certificate
from lazyoco.predictors import zero_bundle
from lazyoco.runner import ROW_COLUMNS, play_rounds

# one verdict line per acceptance criterion; a conftest hook echoes these
# in the terminal summary so they survive output capture
ACCEPTANCE_LINES: list[str] = []


def grid_min_1d(fn, lo, hi, resolution):
    """Argmin of fn over a uniform grid on [lo, hi]."""
    count = int(round((hi - lo) / resolution)) + 1
    xs = np.linspace(lo, hi, count)
    vals = np.array([float(fn(float(x))) for x in xs])
    return float(xs[int(np.argmin(vals))])


def grid_min_1d_vec(values_fn, lo, hi, resolution):
    """Same, but values_fn maps the whole grid array to an array of values."""
    count = int(round((hi - lo) / resolution)) + 1
    xs = np.linspace(lo, hi, count)
    vals = np.asarray(values_fn(xs), dtype=float)
    return float(xs[int(np.argmin(vals))])


def refine_min_1d(fn, lo, hi, coarse=1e-3, fine=1e-6):
    """Two-stage grid argmin; valid when fn has no spurious local minima."""
    x = grid_min_1d(fn, lo, hi, coarse)
    w = 4.0 * coarse
    return grid_min_1d(fn, max(lo, x - w), min(hi, x + w), fine)


def grid_min_2d_vec(values_fn, low, high, count):
    """Argmin over a count x count grid; values_fn takes an (m, 2) array."""
    xs = np.linspace(low[0], high[0], count)
    ys = np.linspace(low[1], high[1], count)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = np.asarray(values_fn(pts), dtype=float)
    k = int(np.argmin(vals))
    return pts[k].copy(), float(vals[k])


def refine_min_2d_vec(values_fn, low, high, coarse_count=1001, fine_step=1e-4):
    """Coarse grid then a local window at fine_step resolution.

    Sound for objectives without spurious local minima (everything we
    solve is convex).
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    x, _ = grid_min_2d_vec(values_fn, low, high, coarse_count)
    step = float(np.max((high - low) / (coarse_count - 1)))
    while step > fine_step:
        lo = np.maximum(x - 2.0 * step, low)
        hi = np.minimum(x + 2.0 * step, high)
        count = max(int(np.ceil(np.max(hi - lo) / max(fine_step, step / 16.0))) + 1, 9)
        count = min(count, 81)
        x, _ = grid_min_2d_vec(values_fn, lo, hi, count)
        new_step = float(np.max((hi - lo) / (count - 1)))
        if new_step >= step:
            break
        step = new_step
    return x


def refine_min_box_vec(values_fn, low, high, coarse_count=41, fine_step=1e-4):
    """Grid argmin over a box of any dimension, then shrinking local windows.

    values_fn takes an (m, n) array of points.  Sound for convex
    objectives whose level sets are not badly stretched (the primal
    subproblems have an isotropic quadratic part, or none).
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    lo, hi, count = low, high, coarse_count
    while True:
        axes = [np.linspace(a, b, count) for a, b in zip(lo, hi)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, low.size)
        x = pts[int(np.argmin(np.asarray(values_fn(pts), dtype=float)))]
        step = float(np.max((hi - lo) / (count - 1)))
        if step <= fine_step:
            return x.copy()
        lo = np.maximum(x - 2.0 * step, low)
        hi = np.minimum(x + 2.0 * step, high)
        count = 17


def dual_grid_argmax(a_t, total, resolution=1e-3, pad=0.5):
    """Grid argmax of <lam, total> - ||lam||^2/(2 a_t) over lam >= 0.

    Per-axis ranges are capped a little above a_t * max(total_i, 0), which
    always contains the maximizer of this coercive concave objective.
    """
    total = np.asarray(total, dtype=float)
    axes = [np.arange(0.0, max(a_t * max(v, 0.0), 0.0) + pad + resolution, resolution)
            for v in total]
    if len(axes) == 1:
        lam = axes[0]
        obj = lam * total[0] - lam * lam / (2.0 * a_t)
        return np.array([lam[int(np.argmax(obj))]])
    l1 = axes[0][:, None]
    l2 = axes[1][None, :]
    obj = l1 * total[0] + l2 * total[1] - (l1 * l1 + l2 * l2) / (2.0 * a_t)
    k = int(np.argmax(obj))
    i, j = np.unravel_index(k, obj.shape)
    return np.array([axes[0][i], axes[1][j]])


def saddle_point_grid(f_vals_fn, g_vals_fn, lo, hi, lam_hi, resolution=1e-3):
    """Grid saddle of L(x, lam) = f(x) + lam * g(x) on [lo, hi] x [0, lam_hi].

    Returns (x_hat, lam_hat): x_hat minimizes f over the grid points with
    g <= 0, lam_hat maximizes the dual function q(lam) = min_x L(x, lam)
    evaluated on the x grid.  Scalar x and scalar constraint only.
    """
    xs = np.arange(lo, hi + resolution, resolution)
    f = np.asarray(f_vals_fn(xs), dtype=float)
    g = np.asarray(g_vals_fn(xs), dtype=float)
    feas = g <= 1e-12
    assert np.any(feas), "no feasible grid point"
    x_hat = float(xs[feas][int(np.argmin(f[feas]))])
    lams = np.arange(0.0, lam_hi + resolution, resolution)
    q = np.array([float(np.min(f + lam * g)) for lam in lams])
    lam_hat = float(lams[int(np.argmax(q))])
    return x_hat, lam_hat


def cumulative_violation(g_rows):
    """V_t series: norm of the positive part of the running constraint sum."""
    g = np.atleast_2d(np.asarray(g_rows, dtype=float))
    if g.shape[0] == 1 and g.shape[1] > 1:
        g = g.T
    run = np.cumsum(g, axis=0)
    return np.linalg.norm(np.maximum(run, 0.0), axis=1)


def draw_rounds(scenario, horizon):
    """Rounds 1..horizon of a non-adaptive scenario: each is drawn once, in order."""
    return [scenario.round(t) for t in range(1, horizon + 1)]


def sample(domain, rng):
    """A random member of a box."""
    return rng.uniform(domain.lower, domain.upper)


class Played(NamedTuple):
    """A round as the learner leaves it: the point it returned, the round's own
    values, the running totals after it, and g(x) from the round's truth."""

    x: np.ndarray
    lam: np.ndarray
    f_value: float
    xi_t: float
    a_t: float
    h_cum: float
    prox_S: float
    max_xz: float
    drift_gap: float
    g_values: np.ndarray
    cum_gz: np.ndarray  # sum of g(z); the greedy baseline's z is x


def _snapshot(learner, truth, x) -> Played:
    # at n = d = 1 the lazy learner holds lam and cum_gz as floats; a
    # snapshot holds them as 1-D arrays whatever the shape
    return Played(x, np.atleast_1d(learner.lam), learner.f_value, learner.xi_t, learner.a_t,
                  learner.h_cum, learner.prox_S, learner.max_xz, learner.drift_gap,
                  truth.constraint(x)[0], np.atleast_1d(learner.cum_gz))


def play(learner, truth, bundle=None) -> Played:
    """Play one round, given bundle or else the zero forecast, and snapshot it."""
    if bundle is None:
        bundle = zero_bundle(learner.n, learner.d)
    return _snapshot(learner, truth, learner.play_round(truth, bundle))


def play_run(scenario, predictor, learner, horizon) -> list[tuple]:
    """`runner.play_rounds` over rounds 1..horizon: each truth with its snapshot."""
    return [(truth, _snapshot(learner, truth, x))
            for truth, x in play_rounds(scenario, predictor, learner, horizon)]


def trace_row(result, i) -> dict:
    """Row i of a run's table as {column: value}: the table's floats, then the flags."""
    return dict(zip(ROW_COLUMNS, result.table[i].tolist()), flags=result.flags[i])


def _bound_inputs(rounds, config):
    """(sum h_t, sum a_{t-1} xi_t^2, a_{T-1}) with a_{t-1} rebuilt from each round's a_t."""
    xi = np.array([r.xi_t for r in rounds])
    a = np.array([r.a_t for r in rounds])
    a0 = config.a / max(2.0 * config.bounds.G, 0.0 ** config.beta)
    a_prev = np.concatenate([[a0], a[:-1]])
    return rounds[-1].h_cum, float(np.sum(a_prev * xi * xi)), float(a_prev[-1])


class Certificates(NamedTuple):
    B_T: float
    V: float
    V_z: float
    clamped: bool


def _certificates(variant, rounds, config, regret, mu):
    h_sum, sum_a_prev_xi_sq, a_prev = _bound_inputs(rounds, config)
    B = regret_certificate(variant, h_sum, config.sigma, config.bounds,
                           sum_a_prev_xi_sq=sum_a_prev_xi_sq, mu=mu)
    return Certificates(B, *violation_certificate(variant, B, regret, config.sigma,
                                                  config.bounds, h_sum=h_sum,
                                                  a_prev=a_prev, mu=mu))


def evaluate_theorem1_bounds(rounds, config, regret):
    """Theorem 1's certificates from the played rounds' snapshots."""
    return _certificates("llp", rounds, config, regret, 0.0)


def evaluate_theorem3_bounds(rounds, config, regret, mu_next):
    """Theorem 3's certificates (llp2) from the played rounds' snapshots."""
    return _certificates("llp2", rounds, config, regret, mu_next)


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
