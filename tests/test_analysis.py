import math

import numpy as np
import pytest

from lazyoco import analysis
from lazyoco.analysis import (
    ComparatorFold,
    benchmark_round_costs,
    compute_benchmark,
    fit_growth_exponent,
    regret_certificate,
    violation_certificate,
)
from lazyoco.learners import LearnerConfig, LlpLearner
from lazyoco.predictors import make_predictor
from lazyoco.problems import (
    ProblemBounds,
    RoundOracle,
    affine_round,
    make_scenario,
)
from lazyoco.sets import Box, ConfigurationError, norm, positive_part

from helpers import (
    compute_metrics,
    draw_rounds,
    dual_regret_gap,
    evaluate_theorem1_bounds,
    evaluate_theorem3_bounds,
    play,
    play_run,
)


def benchmark_of(rounds, domain, kind, marks=()):
    """The comparator over a list of rounds, with prefix optima after rounds `marks`."""
    fold = ComparatorFold(domain, kind)
    for oracle in rounds:
        fold.add(oracle)
        if fold.t in marks:
            fold.mark()
    return compute_benchmark(fold)


def grid_feasible_argmin(sc, rounds, resolution=1e-6):
    """Brute-force per-round-feasible optimum for a 1D scenario."""
    lo, hi = sc.domain.lower[0], sc.domain.upper[0]
    xs = np.linspace(lo, hi, int(round((hi - lo) / resolution)) + 1)
    total = np.zeros_like(xs)
    feas = np.ones_like(xs, dtype=bool)
    for oracle in rounds:
        c = oracle.cost_affine
        total += c[0][0] * xs + c[1]
        W, u = oracle.constraint_affine
        feas &= W[0][0] * xs + u[0] <= 1e-12
    assert np.any(feas)
    return float(xs[feas][int(np.argmin(total[feas]))])


def test_benchmark_alternating_per_round_exact():
    sc = make_scenario("alternating_linear", horizon=10)
    rounds = draw_rounds(sc, 10)
    # binding constraint: 0.79 x + 0.26 <= 0, so x* = -26/79 with slope -25
    oracle_x = grid_feasible_argmin(sc, rounds)
    assert oracle_x == pytest.approx(-26.0 / 79.0, abs=2e-6)
    res = benchmark_of(rounds, sc.domain, "X_T")
    assert res.feasible
    assert res.x_star[0] == pytest.approx(-26.0 / 79.0, abs=2e-9)
    # the binding row is honored up to the benchmark feasibility tolerance
    assert res.optimal_total_cost == pytest.approx(-25.0 * (-26.0 / 79.0), abs=1e-7)
    assert res.kind == "X_T"

    # a one-point domain: the comparator's interval is that point
    point = Box(np.array([1.0]), np.array([1.0]))
    res = benchmark_of([affine_round([1.0], 0.0, [[0.0]], [-1.0])] * 3, point, "X_T")
    assert res.feasible and point.contains(res.x_star)
    assert res.optimal_total_cost == pytest.approx(3.0, abs=1e-12)


def test_benchmark_aggregate_relaxes_per_round():
    sc = make_scenario("alternating_linear", horizon=10)
    rounds = draw_rounds(sc, 10)
    res = benchmark_of(rounds, sc.domain, "X_T_max")
    # summed constraint: 7.15 x + 0.625 <= 0
    assert res.x_star[0] == pytest.approx(-0.625 / 7.15, abs=2e-9)
    strict = benchmark_of(rounds, sc.domain, "X_T")
    assert res.optimal_total_cost <= strict.optimal_total_cost + 1e-12


def play_adversary(sc, xs):
    rounds = []
    for t, x in enumerate(xs, start=1):
        rounds.append(sc.round(t))
        sc.record_action(t, np.array([float(x)]))
    return rounds


def test_benchmark_adversary_blocks_and_prefix():
    sc = make_scenario("impossibility_adversary", horizon=6)
    rounds = play_adversary(sc, [0.0] * 6)
    assert sc.block_ends == [2, 4, 6]
    res = benchmark_of(rounds, sc.domain, "X_T_max", marks=(2, 4, 6))
    # q,p alternation: sum g = 6x - 6 <= 0 frees the whole box, cost slope -9
    assert res.x_star[0] == 1.0
    assert res.optimal_total_cost == pytest.approx(-9.0, abs=1e-9)
    assert [p.t for p in res.prefix] == [2, 4, 6]
    assert [p.total_cost for p in res.prefix] == pytest.approx([-3.0, -6.0, -9.0])
    assert all(p.feasible for p in res.prefix)

    strict = benchmark_of(rounds, sc.domain, "X_T")
    # every q round demands 2x - 1 <= 0
    assert strict.x_star[0] == pytest.approx(0.5, abs=2e-9)
    assert strict.optimal_total_cost == pytest.approx(-4.5, abs=1e-8)


def test_benchmark_stochastic_binds_at_zero():
    sc = make_scenario("stochastic_constraint", horizon=60, seed=1)
    rounds = draw_rounds(sc, 60)
    active = sum(o.constraint_affine[0][0, 0] == 1.0 for o in rounds)
    assert active >= 1
    res = benchmark_of(rounds, sc.domain, "X_T")
    assert res.feasible
    assert abs(res.x_star[0]) <= 2e-9
    assert abs(res.optimal_total_cost) <= 1e-6


def quadratic_round(W, u) -> RoundOracle:
    """||x||^2 / 2 subject to W x + u <= 0."""
    return RoundOracle(constraint_affine=(W, u), cost_quadratic=(1.0, np.zeros(len(W[0])), 0.0))


def test_benchmark_reports_infeasible():
    # every round asks 0 . x + 1 <= 0, which no point satisfies
    for n, oracle in ((1, affine_round([1.0], 0.0, [[0.0]], [1.0])),
                      (2, quadratic_round([[0.0, 0.0]], [1.0]))):
        dom = Box(-np.ones(n), np.ones(n))
        for kind in ("X_T", "X_T_max"):
            res = benchmark_of([oracle] * 5, dom, kind)
            assert not res.feasible
            assert res.x_star is None
            assert math.isnan(res.optimal_total_cost)
            assert math.isnan(res.gap)


def test_benchmark_validation():
    sc = make_scenario("alternating_linear", horizon=4)
    with pytest.raises(ConfigurationError):
        ComparatorFold(sc.domain, "X_median")
    with pytest.raises(ConfigurationError, match="at least one played round"):
        compute_benchmark(ComparatorFold(sc.domain, "X_T"))

    # inputs the exact comparator has no closed form for are refused by cause
    plane = affine_round([1.0, 0.0], 0.0, [[1.0, 0.0]], [0.0])
    with pytest.raises(ConfigurationError, match="strictly convex"):
        benchmark_of([plane] * 3, Box(-np.ones(2), np.ones(2)), "X_T")
    # a round without an affine constraint or a closed-form cost cannot be built
    with pytest.raises(ConfigurationError, match="affine constraint"):
        RoundOracle(constraint_affine=None, cost_quadratic=(2.0, np.zeros(1), 0.0))
    with pytest.raises(ConfigurationError, match="quadratic cost"):
        RoundOracle(constraint_affine=(np.array([[1.0]]), np.array([0.0])))
    with pytest.raises(ConfigurationError, match="exactly one"):
        RoundOracle(constraint_affine=(np.array([[1.0]]), np.array([0.0])),
                    cost_affine=(np.ones(1), 0.0), cost_quadratic=(1.0, np.zeros(1), 0.0))


def totals_at(rounds, x):
    """Total cost and the worst per-round and aggregate constraint values at x."""
    total, worst, agg = 0.0, -math.inf, 0.0
    for oracle in rounds:
        total += oracle.cost(x)[0]
        g = oracle.constraint_value(x)
        worst = max(worst, float(np.max(g)))
        agg = agg + g
    return total, worst, float(np.max(agg))


@pytest.mark.parametrize("kind", ["X_T", "X_T_max"])
@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_projection_comparator_certified(n, d, kind):
    horizon = 200
    sc = make_scenario("random_quadratic", horizon=horizon, dimension=n, constraints=d,
                       seed=10 * n + d)
    rounds = draw_rounds(sc, horizon)
    res = benchmark_of(rounds, sc.domain, kind)
    assert res.feasible
    assert sc.domain.contains(res.x_star)
    total, worst, agg = totals_at(rounds, res.x_star)
    assert (worst if kind == "X_T" else agg) <= 1e-9
    assert res.optimal_total_cost == pytest.approx(total, rel=1e-12)
    assert abs(res.gap) <= 1e-9 * max(1.0, abs(res.optimal_total_cost))
    # random_quadratic keeps the origin feasible in every round
    assert res.optimal_total_cost <= totals_at(rounds, np.zeros(n))[0]


@pytest.mark.parametrize("n, d, kind, params", [
    (3, 3, "X_T", {}),
    (5, 3, "X_T_max", {"offset_scale": 0.0}),    # the summed rows bind at the origin
    (10, 5, "X_T", {"center_scale": 2.0}),       # the centers leave the box
])
def test_projection_comparator_against_slsqp(n, d, kind, params):
    optimize = pytest.importorskip("scipy.optimize")
    horizon = 60
    sc = make_scenario("random_quadratic", horizon=horizon, dimension=n, constraints=d,
                       seed=n + d, params=params)
    oracles = draw_rounds(sc, horizon)
    W = np.vstack([o.constraint_affine[0] for o in oracles])
    u = np.concatenate([o.constraint_affine[1] for o in oracles])
    if kind == "X_T_max":
        W = sum(o.constraint_affine[0] for o in oracles)
        u = sum(o.constraint_affine[1] for o in oracles)

    def mean_cost(x):  # on the unscaled total SLSQP's line search stops short
        return (sum(o.cost(x)[0] for o in oracles) / horizon,
                sum(o.cost(x)[1] for o in oracles) / horizon)

    ref = optimize.minimize(mean_cost, np.zeros(n), jac=True, method="SLSQP",
                            bounds=[(-1.0, 1.0)] * n,
                            constraints=[{"type": "ineq", "fun": lambda x: -(W @ x + u),
                                          "jac": lambda x: -W}],
                            options={"ftol": 1e-14, "maxiter": 1000})
    assert ref.success
    res = benchmark_of(oracles, sc.domain, kind)
    assert res.optimal_total_cost == pytest.approx(ref.fun * horizon, rel=1e-8)


def test_benchmark_round_costs_values():
    """Each row's comparator cost is the running total of its round costs."""
    sc = make_scenario("alternating_linear", horizon=4)
    fold = ComparatorFold(sc.domain, "X_T")
    sums = np.empty((4, fold.cost_sums_size))
    for t in range(1, 5):
        fold.add(sc.round(t))
        fold.copy_cost_sums(sums[t - 1])
    costs = benchmark_round_costs(sums, np.array([0.5]))
    np.testing.assert_allclose(costs, [-0.5, -2.5, -3.0, -5.0])

    # quadratic rounds, with the last row equal to the solved total bit for bit
    sc = make_scenario("random_quadratic", horizon=30, dimension=3, constraints=2, seed=2)
    rounds = draw_rounds(sc, 30)
    fold = ComparatorFold(sc.domain, "X_T")
    sums = np.empty((3, fold.cost_sums_size))
    for oracle in rounds:
        fold.add(oracle)
        if fold.t % 10 == 0:
            fold.copy_cost_sums(sums[fold.t // 10 - 1])
    res = compute_benchmark(fold)
    costs = benchmark_round_costs(sums, res.x_star)
    for i, upto in enumerate((10, 20, 30)):
        want = sum(o.cost(res.x_star)[0] for o in rounds[:upto])
        assert costs[i] == pytest.approx(want, rel=1e-12)
    assert costs[-1] == res.optimal_total_cost


def distinct_rows_before(rounds):
    """The X_T rows as the comparator built them before it kept a row buffer:
    one bytes key per distinct round, then np.unique(axis=0) of the stacked rows."""
    n = rounds[0].constraint_affine[0].shape[1]
    keys = dict.fromkeys(W.tobytes() + u.tobytes()
                         for W, u in (o.constraint_affine for o in rounds))
    blocks = np.frombuffer(b"".join(keys), dtype=float).reshape(len(keys), -1)
    d = blocks.shape[1] // (n + 1)
    stacked = np.column_stack((blocks[:, :d * n].reshape(-1, n), blocks[:, d * n:].reshape(-1)))
    return np.unique(stacked, axis=0)


def rounds_with_repeats(n, d, horizon, seed):
    """random_quadratic rounds, then the same rounds again, a round with one of
    its rows twice, and rounds whose rows differ from a kept row only in the
    sign of a zero."""
    sc = make_scenario("random_quadratic", horizon=horizon, dimension=n, constraints=d,
                       seed=seed)
    rounds = draw_rounds(sc, horizon)
    W, u = rounds[0].constraint_affine
    twice = W.copy()
    twice[1] = twice[0]
    utwice = u.copy()
    utwice[1] = utwice[0]
    signed = []
    for sign in (0.0, -0.0):
        Wz, uz = W.copy(), u.copy()
        Wz[:, 0] = sign
        uz[-1] = sign
        signed.append(RoundOracle(constraint_affine=(Wz, uz),
                                  cost_quadratic=(1.0, np.zeros(n), 0.0)))
    extra = [RoundOracle(constraint_affine=(twice, utwice),
                         cost_quadratic=(0.5, np.full(n, 0.1), 0.0))]
    return rounds + rounds[::-1] + extra + signed + signed[::-1]


@pytest.mark.parametrize("start_rows", [4096, 3])
@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (5, 3)])
def test_distinct_rows_are_the_unique_rows(n, d, start_rows, monkeypatch):
    """The n >= 2 solve reads every round's [W | -u] in play order, repeats
    included, then the box rows, and gives the x* and total cost of the solve
    on the old np.unique rows bit for bit, whether the buffers never grow
    (4 096 rows) or double many times (3 rows)."""
    monkeypatch.setattr(analysis._PlayedRows, "_START_ROWS", start_rows)
    rounds = rounds_with_repeats(n, d, 150, seed=n + d)
    fold = ComparatorFold(Box(-np.ones(n), np.ones(n)), "X_T")
    for t, oracle in enumerate(rounds, start=1):
        fold.add(oracle)
        if t == len(rounds) // 2:
            fold.solve()        # the next round overwrites the box rows
    G, h = fold.cons.system()
    assert G.flags.c_contiguous and h.flags.c_contiguous
    box = [np.eye(n), -np.eye(n)]
    want_G = np.vstack([o.constraint_affine[0] for o in rounds] + box)
    want_h = np.concatenate([-o.constraint_affine[1] for o in rounds] + [np.ones(2 * n)])
    assert G.tobytes() == want_G.tobytes() and h.tobytes() == want_h.tobytes()

    # the solve on the system the comparator built with np.unique
    ref = distinct_rows_before(rounds)
    assert len(ref) < len(rounds) * d
    G_old = np.vstack([ref[:, :-1]] + box)
    h_old = np.concatenate([-ref[:, -1], np.ones(2 * n)])
    x_old, cost_old, ok_old, gap_old = analysis._solve_projection(fold.cost, G_old, h_old)
    x, cost, ok, gap = fold.solve()
    assert ok and ok_old
    assert x.tobytes() == x_old.tobytes() and cost == cost_old
    assert abs(gap - gap_old) <= 1e-12


def interval_before(rounds, lo, hi):
    """The old 1-D X_T interval: a scan over every distinct row, (lo, hi, feasible)."""
    rows = distinct_rows_before(rounds)
    for w_row, u_row in zip(rows[:, 0], rows[:, 1]):
        if w_row > 0.0:
            hi = min(hi, (-u_row + analysis._FEAS_TOL) / w_row)
        elif w_row < 0.0:
            lo = max(lo, (-u_row + analysis._FEAS_TOL) / w_row)
        elif u_row > analysis._FEAS_TOL:
            return 1.0, 0.0, False
    return lo, hi, lo <= hi


@pytest.mark.parametrize("seed", range(6))
def test_folded_interval_is_the_row_scan(seed):
    rng = np.random.default_rng(seed)
    tol = analysis._FEAS_TOL
    d = 1 + seed % 3

    def draw(u_zero, u_high):
        w = rng.choice([-1.0, 0.0, 1.0], size=(d, 1)) * rng.uniform(0.5, 2.0, size=(d, 1))
        u = np.where(w[:, 0] == 0.0, rng.choice(u_zero, size=d),
                     rng.uniform(-1.0, u_high, size=d))
        return affine_round([1.0], 0.0, w, u)

    # w = 0 rows at the tolerance, on its feasible side, while the other rows
    # narrow the box; then rows that may empty it either way, and one that must
    rounds = [draw([-tol, 0.0, tol], 0.0) for _ in range(30)]
    rounds += [draw([tol, 2.0 * tol], 1.0) for _ in range(10)]
    rounds.append(affine_round([1.0], 0.0, np.zeros((d, 1)), np.full(d, 2.0 * tol)))
    feasible_at = []
    for t in range(1, len(rounds) + 1):
        fold = ComparatorFold(Box(np.array([-1.0]), np.array([1.0])), "X_T")
        for oracle in rounds[:t]:
            fold.add(oracle)
        lo, hi, infeasible = fold.cons.interval()
        feasible = not infeasible and lo <= hi
        want = interval_before(rounds[:t], -1.0, 1.0)
        assert feasible == want[2]
        if feasible:
            assert (lo, hi) == want[:2]
        feasible_at.append(feasible)
    assert feasible_at[29] and not feasible_at[-1]


@pytest.mark.parametrize("kind", ["X_T", "X_T_max"])
@pytest.mark.parametrize("n, d", [(1, 1), (3, 2)])
def test_mark_is_the_prefix_comparator(n, d, kind):
    """A prefix optimum marked after every round is the comparator of a fresh
    fold of that prefix."""
    if n == 1:
        sc = make_scenario("perturbed_linear", horizon=80, seed=3)
        rounds = draw_rounds(sc, 80)
    else:
        # 290 rows: the buffers grow between marks, and no view a
        # mark's solve took may stay live across the realloc
        rounds = rounds_with_repeats(n, d, 70, seed=7)
    dom = Box(-np.ones(n), np.ones(n))
    res = benchmark_of(rounds, dom, kind, marks=range(1, len(rounds) + 1))
    assert len(res.prefix) == len(rounds)
    for t, mark in enumerate(res.prefix, start=1):
        fresh = benchmark_of(rounds[:t], dom, kind)
        assert mark.t == t and mark.feasible == fresh.feasible
        assert mark.x_star.tobytes() == fresh.x_star.tobytes()
        assert mark.total_cost == fresh.optimal_total_cost


def test_metrics_hand_example():
    m = compute_metrics([1.0, 2.0, 3.0], [[1.0], [-2.0], [2.0]],
                        bench_costs=[0.0, 0.0, 1.0],
                        gz_values=[[0.0], [1.0], [1.0]])
    np.testing.assert_allclose(m.cum_cost, [1.0, 3.0, 6.0])
    np.testing.assert_allclose(m.regret, [1.0, 3.0, 5.0])
    np.testing.assert_allclose(m.violation, [1.0, 0.0, 1.0])
    np.testing.assert_allclose(m.violation_z, [0.0, 1.0, 2.0])
    assert math.isnan(compute_metrics([1.0], [[0.0]]).regret[0])


def _llp_run(scenario_kind, horizon, predictor="noisy", seed=7, **sc_kw):
    sc = make_scenario(scenario_kind, horizon=horizon, seed=seed, **sc_kw)
    config = LearnerConfig(variant="llp", sigma=1.0, a=1.0, beta=0.5, bounds=sc.bounds)
    learner = LlpLearner(config, sc.domain, sc.dimension, sc.n_constraints)
    p = make_predictor(predictor, bounds=sc.bounds, domain=sc.domain,
                       dimension=sc.dimension, constraints=sc.n_constraints,
                       level=0.4, seed=seed + 1)
    return config, learner, [r for _, r in play_run(sc, p, learner, horizon)]


def test_metrics_match_learner_stream():
    _, learner, rounds = _llp_run("random_quadratic", 200, dimension=2, constraints=2)
    m = compute_metrics([r.f_value for r in rounds],
                        np.array([r.g_values for r in rounds]))
    assert m.cum_cost[-1] == pytest.approx(learner.cum_cost, rel=1e-12)
    assert m.violation[-1] == pytest.approx(norm(positive_part(learner.cum_gx)),
                                            rel=1e-12, abs=1e-12)


def test_llp_certificates_hand_arithmetic():
    b = ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, F=1.0, E_m=0.0, Delta_m=0.0)
    B = regret_certificate("llp", 4.0, 1.0, b, sum_a_prev_xi_sq=4.0)
    # 2(1 + 1) sqrt(4) + 4 = 12; V = sqrt(2 * 8 / 1) + 2 sqrt(4) = 8
    assert B == pytest.approx(12.0)
    V, V_z, clamped = violation_certificate("llp", B, 4.0, 1.0, b, h_sum=4.0, a_prev=1.0)
    assert V_z == pytest.approx(4.0)
    assert V == pytest.approx(8.0)
    assert not clamped

    V, V_z, clamped = violation_certificate("llp", B, 20.0, 1.0, b, h_sum=4.0, a_prev=1.0)
    assert clamped and V_z == 0.0 and V == pytest.approx(4.0)


def test_llp2_bound_dominates_llp_bound():
    b = ProblemBounds(L_f=2.0, L_g=1.5, G=1.0, D=1.0, F=2.0, E_m=1.0, Delta_m=0.5)
    rng = np.random.default_rng(11)
    for _ in range(50):
        h, s_axi, mu = rng.uniform(0.0, 20.0, size=3)
        a_last = rng.uniform(0.01, 1.0)
        regret = rng.uniform(-10.0, 10.0)
        B3 = regret_certificate("llp2", h, 1.0, b, sum_a_prev_xi_sq=s_axi, mu=mu)
        B1 = regret_certificate("llp", h, 1.0, b, sum_a_prev_xi_sq=s_axi)
        V3, _, _ = violation_certificate("llp2", B3, regret, 1.0, b, h_sum=h,
                                         a_prev=a_last, mu=mu)
        V1, _, _ = violation_certificate("llp", B1, regret, 1.0, b, h_sum=h, a_prev=a_last)
        assert B3 >= B1
        assert V3 >= V1 - 1e-12


def test_perturbed_report_unit_constants():
    b = ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, F=1.0, E_m=2.0, Delta_m=2.0)
    # A_1 = 2 sigma D^2 + 2 L_f / sigma = 4, A_2 = 4 a G^2 / (1 - beta) = 8,
    # A_3 = 2 / a = 2, A_4 = 2 L_g / sigma = 2, K_T = sqrt(G^2 + sum xi^2)
    kw = dict(sigma=1.0, bounds=b, a=1.0, beta=0.5)

    # no dual mismatch: K_T = 1 < T^beta = 4, and B_T is A_1 alone
    B = regret_certificate("llp_perturbed", 1.0, xi_sq_sum=0.0, horizon=16, **kw)
    assert B == pytest.approx(4.0)  # A_1 sqrt(1) + min(0, A_2 * 4)
    V, V_z, clamped = violation_certificate("llp_perturbed", B, 0.0, h_sum=1.0,
                                            xi_sq_sum=0.0, horizon=16, **kw)
    assert V_z == pytest.approx(math.sqrt(2.0 * 4.0 * 4.0))  # A_3 T^beta B_T
    assert V == pytest.approx(V_z + 2.0)  # + A_4 sqrt(1)
    assert not clamped

    # sum xi^2 = 80: 2a sqrt(80) > A_2 T^(1 - beta) = 16, and K_T = 9 > T^beta = 2
    B = regret_certificate("llp_perturbed", 1.0, xi_sq_sum=80.0, horizon=4, **kw)
    assert B == pytest.approx(4.0 + 16.0)  # A_1 sqrt(1) + A_2 * 2
    V, V_z, clamped = violation_certificate("llp_perturbed", B, 0.0, h_sum=1.0,
                                            xi_sq_sum=80.0, horizon=4, **kw)
    assert V_z == pytest.approx(math.sqrt(2.0 * 9.0 * 20.0))  # A_3 K_T B_T
    assert V == pytest.approx(V_z + 2.0)


def test_evaluate_bounds_reconstruct_step_sizes():
    config, learner, rounds = _llp_run("alternating_linear", 150)
    rep = evaluate_theorem1_bounds(rounds, config, regret=0.0)

    a0 = config.a / (2.0 * config.bounds.G)  # beta = 1/2 so 0**beta = 0
    a_prev, h_sum, s_axi = a0, 0.0, 0.0
    for r in rounds:
        h_sum = r.h_cum
        s_axi += a_prev * r.xi_t ** 2
        a_prev = r.a_t
    want = 2.0 * (config.sigma * config.bounds.D ** 2
                  + config.bounds.L_f / config.sigma) * math.sqrt(h_sum) + s_axi
    assert rep.B_T == pytest.approx(want, rel=1e-12)
    assert learner.sum_a_prev_xi_sq == pytest.approx(s_axi, rel=1e-12)
    assert learner.h_cum == pytest.approx(h_sum, rel=1e-12)

    r3 = evaluate_theorem3_bounds(rounds, config, regret=0.0, mu_next=3.0)
    assert r3.B_T >= rep.B_T


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_size_sum_certificates(beta, seed):
    """sum_t a_{t-1} xi_t^2 <= min{2a sqrt(sum xi^2), 4aG^2 T^(1-b)/(1-b)}."""
    b = ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, F=1.0, E_m=0.0, Delta_m=0.0)
    config = LearnerConfig(variant="llp", sigma=1.0, a=1.0, beta=beta, bounds=b)
    dom = Box(np.array([-1.0]), np.array([1.0]))
    learner = LlpLearner(config, dom, 1, 1)
    rng = np.random.default_rng(seed)
    horizon = 400
    xi_sq = 0.0
    for _ in range(horizon):
        u = rng.uniform(0.0, 2.0)  # |g| <= 2G keeps the worst-case premise
        r = play(learner, affine_round([0.0], 0.0, [[0.0]], [u]))
        assert r.xi_t == pytest.approx(u, abs=1e-15)
        xi_sq += u * u
    cap = min(2.0 * math.sqrt(xi_sq),
              4.0 * horizon ** (1.0 - beta) / (1.0 - beta))
    assert learner.sum_a_prev_xi_sq <= cap + 1e-9


def test_exponent_fit_recovers_power_law():
    fit = fit_growth_exponent([(10, 3 * 10 ** 0.75), (100, 3 * 100 ** 0.75),
                               (1000, 3 * 1000 ** 0.75), (10000, 3 * 10000 ** 0.75)])
    assert fit.exponent == pytest.approx(0.75, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.dropped == 0

    flat = fit_growth_exponent([(10, 5.0), (100, 5.0), (1000, 5.0), (10000, 5.0)])
    assert flat.exponent == pytest.approx(0.0, abs=1e-12)
    assert flat.r_squared == 1.0


def test_exponent_fit_edge_cases():
    with pytest.raises(ConfigurationError):
        fit_growth_exponent([(10, 1.0), (100, 2.0), (1000, 3.0)])
    with pytest.raises(ConfigurationError):
        fit_growth_exponent([(10, 1.0), (10, 2.0), (100, 3.0), (1000, 4.0)])
    with pytest.raises(ConfigurationError):
        fit_growth_exponent([(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)], tail_fraction=0.0)

    part = fit_growth_exponent([(10, 0.0), (100, 0.0), (1000, 8.0), (10000, 16.0)])
    assert part.dropped == 2
    assert part.exponent == pytest.approx(math.log(2.0) / math.log(10.0), abs=1e-12)

    allz = fit_growth_exponent([(10, 0.0), (100, 0.0), (1000, 0.0), (10000, -1.0)])
    assert allz.exponent == 0.0 and allz.dropped == 4

    tail = fit_growth_exponent([(10, 99.0), (100, 99.0), (1000, 8.0), (10000, 16.0)],
                               tail_fraction=0.5)
    assert tail.exponent == pytest.approx(math.log(2.0) / math.log(10.0), abs=1e-12)


@pytest.mark.parametrize("comparator", [np.array([0.0]), np.array([0.7]),
                                        np.array([2.3])])
def test_dual_regret_certificate_on_real_run(comparator):
    """The played multipliers satisfy their optimistic-FTRL regret bound."""
    config, learner, rounds = _llp_run("alternating_linear", 200, seed=3)
    # g(z_t), the increments of the learner's running sum of g(z)
    gains = np.diff([np.zeros(1)] + [r.cum_gz for r in rounds], axis=0)
    lams = [r.lam for r in rounds]
    mismatches = [r.xi_t for r in rounds]
    a0 = config.a / (2.0 * config.bounds.G)
    a_prevs = [a0] + [r.a_t for r in rounds[:-1]]

    realized, cert = dual_regret_gap(gains, lams, mismatches, a_prevs, comparator)
    manual = sum(float(u @ (comparator - lam)) for u, lam in zip(gains, lams))
    assert realized == pytest.approx(manual, rel=1e-12, abs=1e-12)
    assert realized <= cert + 1e-9
