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


def benchmark_of(rounds, domain, kind):
    """The comparator over a list of rounds, folded as one block."""
    fold = ComparatorFold(domain, kind)
    fold.add(rounds)
    return compute_benchmark(fold)


def prefix_optima(rounds, domain, kind, marks):
    """(t, x, total cost, feasible) of the comparator over rounds 1..t, solved on
    one fold as the block that ends at round t is added, for each t in `marks`."""
    fold = ComparatorFold(domain, kind)
    optima = []
    for t in sorted(marks):
        fold.add(rounds[fold.t:t])
        res = compute_benchmark(fold)
        optima.append((fold.t, res.x_star, res.optimal_total_cost, res.feasible))
    return optima


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
    res = benchmark_of(rounds, sc.domain, "X_T_max")
    # q,p alternation: sum g = 6x - 6 <= 0 frees the whole box, cost slope -9
    assert res.x_star[0] == 1.0
    assert res.optimal_total_cost == pytest.approx(-9.0, abs=1e-9)
    prefix = prefix_optima(rounds, sc.domain, "X_T_max", sc.block_ends)
    assert [t for t, *_ in prefix] == [2, 4, 6]
    assert [v for *_, v, _ in prefix] == pytest.approx([-3.0, -6.0, -9.0])
    assert all(ok for *_, ok in prefix)

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
        g = oracle.constraint(x)[0]
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


class FoldOneAtATime:
    """The comparator fold a round at a time, in the arithmetic it had before
    it took blocks: the reference the block fold must equal bit for bit."""

    def __init__(self, domain, kind):
        self.n = n = domain.dimension
        self.kind = kind
        self.lin, self.const, self.qw, self.ql = np.zeros(n), 0.0, 0.0, np.zeros(n)
        self.lo, self.hi, self.infeasible = float(domain.lower[0]), float(domain.upper[0]), False
        self.W = self.u = -0.0
        self.G, self.h = [], []

    def add(self, oracle) -> np.ndarray:
        if oracle.cost_affine is not None:
            c, b = oracle.cost_affine
            self.lin = self.lin + c
            self.const += b
        else:
            w, u, b = oracle.cost_quadratic
            self.qw += w
            self.ql += np.multiply(u, w)
            self.const += 0.5 * w * float(u.dot(u)) + b
        W, u = oracle.constraint_affine
        if self.kind == "X_T_max":
            self.W = self.W + W
            self.u = self.u + u
        elif self.n == 1:
            for (w,), v in zip(W.tolist(), u.tolist()):
                if w > 0.0:
                    end = (-v + analysis._FEAS_TOL) / w
                    if end < self.hi:
                        self.hi = end
                elif w < 0.0:
                    end = (-v + analysis._FEAS_TOL) / w
                    if end > self.lo:
                        self.lo = end
                elif v > analysis._FEAS_TOL:
                    self.infeasible = True
        else:
            self.G.append(W)
            self.h.append(-u)
        return np.concatenate([self.lin, [self.const, self.qw], self.ql])


def mixed_rounds(n, d, count, seed):
    """Affine and quadratic rounds at random, led by a round of -0.0 rows and
    costs, with zero slopes at the tolerance, a NaN interval end and a zero
    end of either sign among them."""
    rng = np.random.default_rng(seed)
    tol = analysis._FEAS_TOL
    rounds = [RoundOracle(constraint_affine=(np.full((d, n), -0.0), np.full(d, -0.0)),
                          cost_affine=(np.full(n, -0.0), -0.0))]
    for t in range(1, count):
        W = rng.normal(size=(d, n)) * rng.choice([0.0, 1.0], size=(d, n), p=[0.2, 0.8])
        u = rng.normal(size=d)
        u[W[:, 0] == 0.0] = rng.choice([-tol, tol, 2.0 * tol])
        if t % 97 == 5:
            u[0], W[0, 0] = math.nan, 1.0        # a NaN end, which the scan skips
        if t % 89 == 7:
            u[-1], W[-1, 0] = tol, -2.0          # an end at -0.0
        if t % 83 == 3:
            u[0], W[0, 0] = tol, 3.0             # an end at +0.0
        if rng.random() < 0.5:
            cost = {"cost_affine": (rng.normal(size=n), 1e-3 * float(rng.normal()))}
        else:
            # b cancels all but the last digits of w/2 |u|^2, so const stays
            # small and keeps the low bits of each round's u.u
            w, p = float(rng.uniform(0.1, 2.0)), rng.normal(size=n)
            cost = {"cost_quadratic": (w, p, -round(0.5 * w * float(np.sum(p * p)), 2))}
        rounds.append(RoundOracle(constraint_affine=(W, u), **cost))
    return rounds


def _cost_value(lin, const, qw, ql, x):
    """A folded total cost lin.x + const + qw/2 x.x - ql.x at x, in Python floats."""
    return float(lin.dot(x)) + const + 0.5 * qw * float(x.dot(x)) - float(ql.dot(x))


def row_costs_one_at_a_time(sums, x):
    """`_cost_value` at x on each row of cost sums, one row at a time."""
    n = len(x)
    return np.array([_cost_value(row[:n], float(row[n]), float(row[n + 1]), row[n + 2:], x)
                     for row in sums])


def test_benchmark_round_costs_values():
    """Each row's comparator cost is the running total of its round costs."""
    sc = make_scenario("alternating_linear", horizon=4)
    fold = ComparatorFold(sc.domain, "X_T")
    sums = fold.add(draw_rounds(sc, 4))
    costs = benchmark_round_costs(sums, np.array([0.5]))
    np.testing.assert_allclose(costs, [-0.5, -2.5, -3.0, -5.0])
    # the vector pass is the one-row formula, bit for bit, at a signed zero too
    for x in (np.array([0.5]), np.array([-0.0]), np.array([-0.7])):
        assert (benchmark_round_costs(sums, x).tobytes()
                == row_costs_one_at_a_time(sums, x).tobytes())

    # quadratic rounds, with the last row equal to the solved total bit for bit
    sc = make_scenario("random_quadratic", horizon=30, dimension=3, constraints=2, seed=2)
    rounds = draw_rounds(sc, 30)
    fold = ComparatorFold(sc.domain, "X_T")
    sums = np.vstack([fold.add(rounds[t - 10:t])[-1] for t in (10, 20, 30)])
    res = compute_benchmark(fold)
    costs = benchmark_round_costs(sums, res.x_star)
    for i, upto in enumerate((10, 20, 30)):
        want = sum(o.cost(res.x_star)[0] for o in rounds[:upto])
        assert costs[i] == pytest.approx(want, rel=1e-12)
    assert costs[-1] == res.optimal_total_cost
    assert costs.tobytes() == row_costs_one_at_a_time(sums, res.x_star).tobytes()

    # many rows, across the 256-row passes, at n = 1 and n = 3
    for n, x in ((1, np.array([0.3])), (1, np.array([-0.0])), (3, np.array([0.31, 0.47, -0.83]))):
        rounds = mixed_rounds(n, 2, 600, seed=n)
        sums = ComparatorFold(Box(-np.ones(n), np.ones(n)), "X_T").add(rounds)
        assert (benchmark_round_costs(sums, x).tobytes()
                == row_costs_one_at_a_time(sums, x).tobytes())


@pytest.mark.parametrize("block", [1, 255, 256, 257])
@pytest.mark.parametrize("n, d, kind", [(1, 2, "X_T"), (1, 2, "X_T_max"), (3, 2, "X_T"),
                                        (3, 2, "X_T_max"), (1, 1, "X_T"), (1, 1, "X_T_max")])
def test_block_fold_is_the_round_fold(block, n, d, kind):
    """Folding blocks of any size gives each round's cost sums and the fold's
    constraint state of a fold a round at a time, bit for bit."""
    rounds = mixed_rounds(n, d, 600, seed=10 * n + d)
    domain = Box(-np.ones(n), np.ones(n))
    ref = FoldOneAtATime(domain, kind)
    want = np.vstack([ref.add(o) for o in rounds])
    fold = ComparatorFold(domain, kind)
    got = np.vstack([fold.add(rounds[a:a + block]) for a in range(0, len(rounds), block)])
    assert fold.t == len(rounds)
    assert got.tobytes() == want.tobytes()
    assert fold.sums.tobytes() == want[-1].tobytes()
    if kind == "X_T_max":
        assert fold.cons.W.tobytes() == ref.W.tobytes()
        assert fold.cons.u.tobytes() == ref.u.tobytes()
    elif n == 1:
        lo, hi, infeasible = fold.cons.lo, fold.cons.hi, fold.cons.infeasible
        assert (infeasible, float(lo).hex(), float(hi).hex()) == (
            ref.infeasible, ref.lo.hex(), ref.hi.hex())
    else:
        G, h = fold.cons.system()
        assert G[:-2 * n].tobytes() == np.vstack(ref.G).tobytes()
        assert h[:-2 * n].tobytes() == np.concatenate(ref.h).tobytes()


@pytest.mark.parametrize("flip", [False, True])
def test_interval_keeps_the_first_of_equal_ends(flip):
    """Two rows whose interval ends are +0.0 and -0.0 (one by an end that
    underflows) in one block: the end is the first one, as in a scan."""
    tol = analysis._FEAS_TOL
    above = math.nextafter(tol, math.inf)
    for rows in (([[-2.0], [-1e300]], [tol, above]),     # lo: -0.0, then +0.0
                 ([[3.0], [1e300]], [tol, above])):      # hi: +0.0, then -0.0
        W, u = (np.array(a[::-1] if flip else a) for a in rows)
        oracle = affine_round([1.0], 0.0, W, u)
        ref = FoldOneAtATime(Box(np.array([-1.0]), np.array([1.0])), "X_T")
        ref.add(oracle)
        fold = ComparatorFold(Box(np.array([-1.0]), np.array([1.0])), "X_T")
        fold.add([oracle])
        lo, hi = fold.cons.lo, fold.cons.hi
        assert (lo.hex(), hi.hex()) == (ref.lo.hex(), ref.hi.hex())
        assert 0.0 in (lo, hi)


@pytest.mark.parametrize("v, emptied", [(2.0 * analysis._FEAS_TOL, True), (0.0, False)])
def test_interval_takes_a_nan_slope_as_flat(v, emptied):
    """A row with a NaN slope fails both slope tests, so the scan reads it as
    a flat row: it empties the interval when its offset passes the tolerance."""
    oracle = affine_round([1.0], 0.0, [[math.nan], [1.0]], [v, -0.5])
    ref = FoldOneAtATime(Box(np.array([-1.0]), np.array([1.0])), "X_T")
    ref.add(oracle)
    fold = ComparatorFold(Box(np.array([-1.0]), np.array([1.0])), "X_T")
    fold.add([oracle])
    assert (fold.cons.lo, fold.cons.hi, fold.cons.infeasible) == (ref.lo, ref.hi, ref.infeasible)
    assert ref.infeasible is emptied


def test_block_fold_edge_rounds():
    """The rounds `mixed_rounds` plants do reach the fold: the first round's
    -0.0 rows start X_T_max, and the 1-D scan meets a NaN end and zero ends."""
    rounds = mixed_rounds(1, 2, 600, seed=12)
    fold = ComparatorFold(Box(-np.ones(1), np.ones(1)), "X_T_max")
    fold.add(rounds[:1])
    assert np.signbit(fold.cons.W).all() and np.signbit(fold.cons.u).all()
    ends = [(-v + analysis._FEAS_TOL) / w for o in rounds
            for (w,), v in zip(*(a.tolist() for a in o.constraint_affine)) if w != 0.0]
    assert any(math.isnan(e) for e in ends)
    assert any(e == 0.0 and math.copysign(1.0, e) < 0.0 for e in ends)
    assert any(e == 0.0 and math.copysign(1.0, e) > 0.0 for e in ends)


def fold_state(fold):
    """t, the cost sums and the comparator set's state of a fold, as bits."""
    cons = fold.cons
    if isinstance(cons, analysis._RowSums):
        kept = (np.asarray(cons.W).tobytes(), np.asarray(cons.u).tobytes())
    elif isinstance(cons, analysis._Interval):
        kept = (cons.lo.hex(), cons.hi.hex(), cons.infeasible)
    else:
        kept = tuple(a.tobytes() for a in cons.system())
    return fold.t, fold.sums.tobytes(), kept


def result_bits(res):
    """A comparator result with every float as its bits."""
    x = None if res.x_star is None else res.x_star.tobytes()
    return res.kind, res.feasible, x, res.optimal_total_cost.hex(), res.gap.hex()


@pytest.mark.parametrize("n, kind", [(1, "X_T"), (3, "X_T"), (1, "X_T_max"), (3, "X_T_max")])
def test_empty_block_changes_nothing(n, kind):
    """A fold of no rounds returns no rows of cost sums and leaves t, the sums
    and the constraint state as they were, before and after other rounds."""
    rounds = mixed_rounds(n, 2, 20, seed=n)
    domain = Box(-np.ones(n), np.ones(n))
    fold, plain = ComparatorFold(domain, kind), ComparatorFold(domain, kind)
    before = fold_state(fold)
    empty = fold.add([])
    assert empty.shape == (0, len(fold.sums))
    assert fold_state(fold) == before
    assert fold.add(rounds[:7]).tobytes() == plain.add(rounds[:7]).tobytes()
    before = fold_state(fold)
    assert fold.add([]).shape == (0, len(fold.sums))
    assert fold_state(fold) == before
    assert fold.add(rounds[7:]).tobytes() == plain.add(rounds[7:]).tobytes()
    assert fold_state(fold) == fold_state(plain)


@pytest.mark.parametrize("kind", ["X_T", "X_T_max"])
@pytest.mark.parametrize("n", [1, 3])
def test_solving_reads_the_fold_only(n, kind):
    """`compute_benchmark` changes nothing it reads: solved twice midway it
    gives the same bits both times and leaves the sums and the set's state as
    they were, and the fold then ends where a fold never solved midway ends."""
    sc = make_scenario("random_quadratic", horizon=600, dimension=n, constraints=2, seed=n)
    rounds = draw_rounds(sc, 600)
    fold, plain = ComparatorFold(sc.domain, kind), ComparatorFold(sc.domain, kind)
    fold.add(rounds[:300])
    plain.add(rounds[:300])
    before = fold_state(fold)
    first = result_bits(compute_benchmark(fold))
    assert result_bits(compute_benchmark(fold)) == first
    assert fold_state(fold) == before == fold_state(plain)
    fold.add(rounds[300:])
    plain.add(rounds[300:])
    assert result_bits(compute_benchmark(fold)) == result_bits(compute_benchmark(plain))
    assert fold_state(fold) == fold_state(plain)


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
    half = len(rounds) // 2
    fold.add(rounds[:half])
    compute_benchmark(fold)     # the next block overwrites the box rows
    fold.add(rounds[half:])
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
    res = compute_benchmark(fold)
    monkeypatch.setattr(fold.cons, "system", lambda: (G_old, h_old))
    old = compute_benchmark(fold)
    assert res.feasible and old.feasible
    assert (res.x_star.tobytes() == old.x_star.tobytes()
            and res.optimal_total_cost == old.optimal_total_cost)
    assert abs(res.gap - old.gap) <= 1e-12


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
        fold.add(rounds[:t])
        lo, hi, infeasible = fold.cons.lo, fold.cons.hi, fold.cons.infeasible
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
    """The fold solved after every round gives the comparator of a fresh fold
    of that prefix."""
    if n == 1:
        sc = make_scenario("perturbed_linear", horizon=80, seed=3)
        rounds = draw_rounds(sc, 80)
    else:
        # 290 rows: the buffers grow between solves, and no view a
        # solve took may stay live across the realloc
        rounds = rounds_with_repeats(n, d, 70, seed=7)
    dom = Box(-np.ones(n), np.ones(n))
    prefix = prefix_optima(rounds, dom, kind, range(1, len(rounds) + 1))
    assert len(prefix) == len(rounds)
    for t, (mark_t, x, total, feasible) in enumerate(prefix, start=1):
        fresh = benchmark_of(rounds[:t], dom, kind)
        assert mark_t == t and feasible == fresh.feasible
        assert x.tobytes() == fresh.x_star.tobytes()
        assert total == fresh.optimal_total_cost


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
    b = ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, E_m=0.0, Delta_m=0.0)
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
    b = ProblemBounds(L_f=2.0, L_g=1.5, G=1.0, D=1.0, E_m=1.0, Delta_m=0.5)
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
    b = ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, E_m=2.0, Delta_m=2.0)
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
    b = ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, E_m=0.0, Delta_m=0.0)
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

    part = fit_growth_exponent([(10, 0.0), (100, 0.0), (1000, 8.0), (10000, 16.0)])
    assert part.dropped == 2
    assert part.exponent == pytest.approx(math.log(2.0) / math.log(10.0), abs=1e-12)

    allz = fit_growth_exponent([(10, 0.0), (100, 0.0), (1000, 0.0), (10000, -1.0)])
    assert allz.exponent == 0.0 and allz.dropped == 4


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
