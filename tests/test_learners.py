import math

import numpy as np
import pytest

from lazyoco import learners
from lazyoco.learners import GreedyLearner, LearnerConfig, LlpLearner, make_learner
from lazyoco.predictors import PredictionBundle, make_predictor, zero_bundle
from lazyoco.problems import ProblemBounds, RoundOracle, affine_round, make_scenario
from lazyoco.sets import Box, ConfigurationError, positive_part

from helpers import grid_min_1d, play, play_run, refine_min_box_vec, saddle_point_grid, sample

BOX1 = Box(np.array([-1.0]), np.array([1.0]))


def bounds1(**over):
    base = dict(L_f=1.0, L_g=1.0, G=1.0, D=1.0, E_m=0.0, Delta_m=0.0)
    base.update(over)
    return ProblemBounds(**base)


def cfg(variant="llp", sigma=1.0, a=1.0, beta=0.5, bounds=None, **kw):
    return LearnerConfig(variant=variant, sigma=sigma, a=a, beta=beta,
                         bounds=bounds if bounds is not None else bounds1(), **kw)


def affine_bundle(c, W, u, value=None):
    """Exact forecast of an affine round; value defaults to deferred (W x + u)."""
    return PredictionBundle(
        cost_gradient=np.asarray(c, dtype=float),
        constraint_affine=(np.asarray(W, dtype=float), np.asarray(u, dtype=float)),
        predicted_value=None if value is None else np.asarray(value, dtype=float),
    )


def test_round_one_zero_predictions_stays_at_start():
    learner = LlpLearner(cfg(), BOX1, 1, 1)
    r = play(learner, affine_round([-1.0], 0.0, [[0.64]], [-0.135]))
    assert np.array_equal(r.x, [0.0])
    assert np.array_equal(r.lam, [0.0])


def test_round_one_perfect_forecast_plays_vertex():
    # oracle: the assembled round-1 objective is just c~ x = -x on [-1, 1]
    expected = grid_min_1d(lambda x: -x, -1.0, 1.0, 1e-6)
    assert expected == 1.0
    sc = make_scenario("alternating_linear", horizon=4)
    learner = LlpLearner(cfg(bounds=sc.bounds), sc.domain, 1, 1)
    r = play(learner, sc.round(1), affine_bundle([-1.0], [[0.64]], [-0.135]))
    assert r.x[0] == expected


def round_mismatch(learner, eps, W, pred_W, lam):
    """h of one mid-run round played at multiplier lam, with cost-gradient
    error eps, true rows W and forecast rows pred_W."""
    learner.t, learner.a_t, learner.cum_gz = 1, 1.0, np.zeros(len(lam))
    zeros = np.zeros(len(lam))
    bundle = affine_bundle(np.zeros(learner.n), pred_W, zeros, value=lam)
    play(learner, affine_round(eps, 0.0, W, zeros), bundle)
    assert np.array_equal(learner.lam, lam)
    return learner.h_cum


def test_mismatch_norm_formula():
    """eps=(1,0), delta row=(0.5,0.5), lam=(2) -> h = ||(2,1)|| = sqrt(5)."""
    learner = LlpLearner(cfg(), Box(-np.ones(2), np.ones(2)), 2, 1)
    eps = np.array([1.0, 0.0])
    jac_x = np.array([[1.0, 1.0]])
    bundle = affine_bundle([0.0, 0.0], [[0.5, 0.5]], [0.0], value=[0.0])
    lam = np.array([2.0])
    h = round_mismatch(learner, eps, jac_x, bundle.constraint_affine[0], lam)
    assert h == pytest.approx(math.sqrt(5.0), abs=1e-15)

    pert = LlpLearner(cfg("llp_perturbed"), Box(-np.ones(2), np.ones(2)), 2, 1,
                      base_affine=(np.array([[1.0, 0.0]]), np.array([0.0])))
    h = round_mismatch(pert, eps, jac_x, bundle.constraint_affine[0], lam)
    assert h == 1.0  # perturbed variant only sees the cost-gradient error


def test_regularizer_increments():
    learner = LlpLearner(cfg(sigma=1.0), BOX1, 1, 1)
    learner._advance_regularizer(4.0, np.array([0.5]), 0.0)
    assert learner.prox_S == pytest.approx(2.0)
    learner._advance_regularizer(5.0, np.array([0.5]), 0.0)
    assert learner.prox_S == pytest.approx(3.0)


def test_dual_step_size_first_round_example():
    # a=1, G=1, beta=1/2, xi_1=0 -> a_1 = 1/max{2, 1} = 0.5
    learner = LlpLearner(cfg(), BOX1, 1, 1)
    r = play(learner, affine_round([0.0], 0.0, [[0.0]], [0.0]))
    assert r.a_t == 0.5


def test_dual_step_size_worst_case_example():
    # all xi_t = 2G = 2 for 100 rounds -> a_100 = 1/max{sqrt(404), 10}
    learner = LlpLearner(cfg(), BOX1, 1, 1)
    oracle = affine_round([0.0], 0.0, [[0.0]], [2.0])
    for _ in range(100):
        r = play(learner, oracle)
        assert r.xi_t == 2.0
    assert r.a_t == pytest.approx(1.0 / math.sqrt(404.0), abs=1e-15)


def test_xi_is_norm_of_value_gap():
    # g(z) = (1, -1) with zero forecast -> xi = sqrt(2)
    learner = LlpLearner(cfg(), BOX1, 1, 2)
    r = play(learner, affine_round([0.0], 0.0, [[0.0], [0.0]], [1.0, -1.0]))
    assert r.xi_t == pytest.approx(math.sqrt(2.0), abs=1e-15)


def run_rounds(learner, sc, predictor_kind, horizon, level=0.3, seed=5):
    p = make_predictor(predictor_kind, bounds=sc.bounds, domain=sc.domain,
                       dimension=sc.dimension, constraints=sc.n_constraints,
                       level=level, seed=seed)
    return [r for _, r in play_run(sc, p, learner, horizon)]


def test_multipliers_nonnegative_and_step_nonincreasing():
    for pk in ("none", "noisy", "adversarial"):
        sc = make_scenario("random_quadratic", horizon=120, dimension=2,
                           constraints=2, seed=4)
        learner = LlpLearner(cfg(bounds=sc.bounds), sc.domain, 2, 2)
        a_prev = math.inf
        for r in run_rounds(learner, sc, pk, 120):
            assert np.all(r.lam >= 0.0)
            assert r.a_t <= a_prev + 1e-15
            a_prev = r.a_t


def test_sigma_cum_matches_h_identity():
    """sigma_{1:t} = sigma * sqrt(h_{1:t}) for llp, with mu folded in for llp2."""
    sc = make_scenario("alternating_linear", horizon=80)
    llp = LlpLearner(cfg(sigma=1.3, bounds=sc.bounds), sc.domain, 1, 1)
    run_rounds(llp, sc, "noisy", 80, level=0.5)
    assert llp.prox_S == pytest.approx(1.3 * math.sqrt(llp.h_cum), rel=1e-12)

    sc = make_scenario("alternating_linear", horizon=80)  # a scenario plays one run
    llp2 = LlpLearner(cfg("llp2", sigma=1.3, bounds=sc.bounds), sc.domain, 1, 1)
    run_rounds(llp2, sc, "noisy", 80, level=0.5)
    assert llp2.prox_S == pytest.approx(1.3 * math.sqrt(llp2.h_cum + llp2.mu), rel=1e-12)


def test_per_round_drift_inequality():
    """||x_t - z_t|| <= h_t / sigma_{1:t} + slack whenever sigma_{1:t} > 0.

    The learner's drift_gap is the running max of ||x_t - z_t|| - h_t /
    sigma_{1:t} over those rounds, so it passes the slack from the first
    round that breaks the inequality; `test_sigma_cum_matches_h_identity`
    pins sigma_{1:t} = sigma sqrt(h_{1:t}).
    """
    sc = make_scenario("random_quadratic", horizon=250, dimension=2, constraints=2, seed=9)
    learner = LlpLearner(cfg(sigma=0.8, bounds=sc.bounds), sc.domain, 2, 2)
    slack = 1e-8
    checked = 0
    for r in run_rounds(learner, sc, "noisy", 250, level=0.4, seed=13):
        if r.prox_S > 0.0:
            assert r.drift_gap <= slack
            checked += 1
    assert checked > 200
    assert learner.drift_gap <= slack


def test_xi_stays_below_twice_constraint_bound():
    for pk in ("none", "noisy", "adversarial"):
        sc = make_scenario("alternating_linear", horizon=150)
        learner = LlpLearner(cfg(bounds=sc.bounds), sc.domain, 1, 1)
        for r in run_rounds(learner, sc, pk, 150, level=0.8):
            assert r.xi_t <= 2.0 * sc.bounds.G + 1e-9


def test_records_are_finite():
    """x, lam and each round's values stay finite; a finite max ||x - z|| keeps z
    finite, a finite h_{1:t} each h_t (and the forecast error under it), and a
    finite sigma_{1:t} each increment."""
    sc = make_scenario("random_quadratic", horizon=100, dimension=3, constraints=2, seed=17)
    learner = LlpLearner(cfg(bounds=sc.bounds), sc.domain, 3, 2)
    for r in run_rounds(learner, sc, "noisy", 100, level=0.5):
        assert np.all(np.isfinite(r.x)) and math.isfinite(r.max_xz)
        assert np.all(np.isfinite(r.lam))
        for v in (r.f_value, r.h_cum, r.xi_t, r.prox_S, r.a_t):
            assert math.isfinite(v)


def test_perfect_collapse_step_size_identity():
    """With exact forecasts a_t = a / max(2G, t^beta) and all xi vanish."""
    sc = make_scenario("alternating_linear", horizon=120)
    learner = LlpLearner(cfg(a=1.0, beta=0.5, bounds=sc.bounds), sc.domain, 1, 1)
    rounds = run_rounds(learner, sc, "perfect", 120)
    assert learner.xi_sq_cum == 0.0
    for t, r in enumerate(rounds, start=1):
        want = 1.0 / max(2.0 * sc.bounds.G, float(t) ** 0.5)
        assert r.a_t == pytest.approx(want, rel=1e-15)
    assert learner.max_xz == 0.0
    assert learner.flag_counts == {}


def test_llp2_mu_arithmetic():
    # a_100 = 1/max(2, 10) = 0.1, so mu_101 = 0 + 0.1 * 1 * 101 * 1 = 10.1
    b = bounds1(E_m=0.0, Delta_m=1.0)
    learner = LlpLearner(cfg("llp2", a=1.0, beta=0.5, bounds=b), BOX1, 1, 1)
    oracle = affine_round([-1.0], 0.0, [[0.0]], [-0.01])
    bundle = affine_bundle([-1.0], [[0.0]], [-0.01], value=[-0.01])
    for _ in range(100):
        r = play(learner, oracle, bundle)
        assert r.h_cum == 0.0 and r.xi_t == 0.0
    assert learner.mu == pytest.approx(10.1, abs=1e-12)
    assert learner.prox_S == pytest.approx(math.sqrt(10.1), rel=1e-12)


LAZY_VARIANTS = ("llp", "llp2", "llp_perturbed")


def primal_case(rng, variant, n, d, S, zero_jacobian):
    """A learner mid-run, after a dual step, with an exact affine bundle.

    The learner holds the array body's state, at n = d = 1 too, and its
    regularizer is set through its one setter, which keeps the centre.
    Returns (learner, bundle, J) where the variant's primal puts the
    multiplier on J: the base rows for the perturbed variant, whose folded
    multipliers seed lag_lin, else the forecast rows.
    """
    perturbed = variant == "llp_perturbed"
    base_W = rng.uniform(-1.0, 1.0, size=(d, n))
    learner = LlpLearner(cfg(variant), Box(-np.ones(n), np.ones(n)), n, d,
                         base_affine=(base_W, np.zeros(d)) if perturbed else None)
    learner._start_arrays(np.zeros(n))
    learner.t = 5
    learner.ccum = rng.normal(size=n)
    learner._set_prox(S, S * rng.uniform(-1.5, 1.5, size=n))
    learner.last_x = rng.uniform(-1.0, 1.0, size=n)
    learner.a_t = float(rng.uniform(0.2, 2.0))
    learner.cum_gz = rng.uniform(-1.0, 1.5, size=d)
    if perturbed:
        learner.lag_lin = base_W.T @ rng.uniform(0.0, 2.0, size=d)
        # forecast rows are nonnegative multiples of the base rows
        W = rng.uniform(0.0, 1.5, size=(d, 1)) * base_W
    else:
        learner.lag_lin = rng.normal(size=n)
        W = rng.uniform(-1.0, 1.0, size=(d, n))
    if zero_jacobian:
        W = np.zeros((d, n))
    bundle = affine_bundle(rng.normal(size=n), W, rng.uniform(-0.5, 0.5, size=d))
    return learner, bundle, base_W if perturbed else W


@pytest.mark.parametrize("variant", LAZY_VARIANTS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_primal_fixed_point_against_grid(variant, n, d):
    """lam = [a (cum + v~(x))]_+ exactly, and x solves the subproblem at that lam.

    The round's truth is its forecast, so h = 0, z = x and xi = ||g(x) - v~||
    is 0 exactly when the v~ the round used is W~ x + u~ at the x it played.
    """
    rng = np.random.default_rng(100 * n + 10 * d + LAZY_VARIANTS.index(variant))
    active = 0
    for case in range(6):
        S = 0.0 if case % 2 == 0 else float(rng.uniform(0.5, 3.0))
        learner, bundle, J = primal_case(rng, variant, n, d, S, case >= 4)
        # the state the primal step reads, which the rest of the round moves on
        a_dual, cum, ccum, lag_lin, prox_b = (learner.a_t, learner.cum_gz, learner.ccum,
                                              learner.lag_lin, learner.prox_b)
        W, u = bundle.constraint_affine
        x = learner._play_arrays(affine_round(bundle.cost_gradient, 0.0, W, u), bundle)
        lam = learner.lam
        assert learner.flags == ""
        vt = W @ x + u
        assert learner.h_cum == 0.0 and learner.xi_t == 0.0
        assert np.array_equal(lam, positive_part(a_dual * (cum + vt)))
        active += bool(np.any(lam > 0.0))

        linear = ccum + bundle.cost_gradient + lag_lin + J.T @ lam
        center = prox_b / S if S > 0.0 else np.zeros(n)

        def subproblem(pts):
            return pts @ linear + 0.5 * S * np.sum((pts - center) ** 2, axis=1)

        x_grid = refine_min_box_vec(subproblem, -np.ones(n), np.ones(n))
        assert subproblem(x[None, :])[0] <= subproblem(x_grid[None, :])[0] + 1e-6
        if S > 0.0:
            assert np.max(np.abs(x - x_grid)) <= 1e-3
    assert active > 0


def test_exact_forecasts_scalar_fixed_point(monkeypatch):
    """n = 1 without a prox term under exact forecasts.

    Every round ties: the primal objective is linear and its slope vanishes
    at the fixed point, so iterating lam -> x(lam) jumps between the ends of
    the interval.  The exact scalar step needs no solve beyond lam = 0, and
    at n = 1 `minimize` never runs.
    """
    calls = []
    real_minimize = learners.minimize
    monkeypatch.setattr(learners, "minimize",
                        lambda obj, **kw: calls.append(1) or real_minimize(obj, **kw))
    sc = make_scenario("alternating_linear", horizon=200)
    p = make_predictor("perfect", bounds=sc.bounds, domain=sc.domain, dimension=1,
                       constraints=1)
    learner = LlpLearner(cfg(beta=0.0, bounds=sc.bounds), sc.domain, 1, 1)
    interior = 0
    for t in range(1, 201):
        # the latest dual step's a_t and sum of g(z); none before round 1
        dual = (learner.a_t, learner.cum_gz) if learner.t else None
        truth = sc.round(t)
        r = play(learner, truth, p.bundle_for(truth))
        assert learner.flags == "" and r.prox_S == 0.0
        if dual is not None:
            want = positive_part(dual[0] * (dual[1] + r.g_values))
            assert np.array_equal(r.lam, want)
            interior += bool(-1.0 < r.x[0] < 1.0 and r.lam[0] > 0.0)
    assert interior > 50
    assert calls == []


@pytest.mark.parametrize("variant", ("llp", "llp2"))
@pytest.mark.parametrize("n, d", [(1, 1), (5, 3)])
def test_quadratic_cost_forecast_is_one_projection(monkeypatch, variant, n, d):
    """An exact quadratic cost forecast folds into the prox instead of being iterated.

    `perfect_gradients` gives the value forecast outright, so every step is
    one exact projection and `minimize` never runs.  `perfect` defers it, and
    `minimize` runs only for a solve that carries the fixed-point penalty
    term with a positive smoothness (n >= 2 with the multiplier on).  The
    exact steps are `sets.exact_step`, or its float form at n = d = 1.
    """
    steps, calls = [], []
    real_minimize = learners.minimize

    def counted_step(real_step):
        def step(*args):
            steps[-1] += 1
            return real_step(*args)
        return step

    def counted(obj, **kw):
        res = real_minimize(obj, **kw)
        calls[-1].append(any(L > 0.0 for _, L in obj.constraint_terms))
        return res

    for name in ("exact_step", "_float_step"):
        monkeypatch.setattr(learners, name, counted_step(getattr(learners, name)))
    monkeypatch.setattr(learners, "minimize", counted)
    for kind in ("perfect_gradients", "perfect"):
        steps.append(0)
        calls.append([])
        sc = make_scenario("random_quadratic", horizon=200, dimension=n, constraints=d, seed=3)
        learner = LlpLearner(cfg(variant, bounds=sc.bounds), sc.domain, n, d)
        run_rounds(learner, sc, kind, 200)
        assert learner.flag_counts == {}
    gradients, perfect = calls
    assert min(steps) >= 200
    assert gradients == []
    assert all(perfect)
    if n == 1:
        assert perfect == []


@pytest.mark.parametrize("variant", ("llp", "llp2"))
def test_blind_constraint_forecast_fixed_point_is_one_exact_step(monkeypatch, variant):
    """`noisy` at level 1 forecasts the rows as W~ = 0, so the multiplier of a
    deferred v~ is [a (cum + u~)]_+ whatever x is: the n >= 2 fixed point is
    one exact step at that multiplier, and `minimize` never runs."""
    entered, calls = [], []
    real_fixed_point, real_minimize = LlpLearner._fixed_point, learners.minimize

    def counted_fixed_point(self, *args):
        entered.append(1)
        return real_fixed_point(self, *args)

    monkeypatch.setattr(LlpLearner, "_fixed_point", counted_fixed_point)
    monkeypatch.setattr(learners, "minimize",
                        lambda *args, **kw: calls.append(1) or real_minimize(*args, **kw))
    sc = make_scenario("random_quadratic", horizon=400, dimension=3, constraints=2, seed=3)
    learner = LlpLearner(cfg(variant, bounds=sc.bounds), sc.domain, 3, 2)
    run_rounds(learner, sc, "noisy", 400, level=1.0, seed=4)
    assert entered and calls == []
    assert learner.flag_counts == {}


@pytest.mark.parametrize("n, d", [(1, 1), (2, 2)])
def test_llp_perturbed_is_llp_when_rows_are_base(n, d):
    """With forecast and true rows equal to the base rows, J is the same for
    both variants, so they play the same rounds bit for bit."""
    rng = np.random.default_rng(10 * n + d)
    base_W = rng.uniform(-1.0, 1.0, size=(d, n))
    box = Box(-np.ones(n), np.ones(n))
    llp = LlpLearner(cfg(), box, n, d)
    pert = LlpLearner(cfg("llp_perturbed"), box, n, d, base_affine=(base_W, np.zeros(d)))
    active = 0
    for t in range(1, 61):
        c, u = rng.normal(size=n), rng.uniform(-0.2, 0.6, size=d)
        truth = affine_round(c, 0.0, base_W, u)
        # a noisy cost forecast, the exact rows, and v~ deferred or given
        value = None if t % 3 else base_W @ sample(box, rng) + u
        bundle = affine_bundle(c + 0.3 * rng.normal(size=n), base_W, u, value=value)
        a, b = play(llp, truth, bundle), play(pert, truth, bundle)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.lam, b.lam), t
        assert np.array_equal(a.cum_gz, b.cum_gz), t
        assert (a.h_cum, a.prox_S) == (b.h_cum, b.prox_S), t
        active += bool(np.any(a.lam > 0.0))
    assert active > 10 and llp.prox_S > 0.0


@pytest.mark.parametrize("variant", LAZY_VARIANTS)
def test_cached_center_is_the_regularizer_centre(variant):
    """After every round at n >= 2, the centre the array body reads is
    prox_b / prox_S bit for bit, and zeros while prox_S = 0; llp2's advance
    passes no x, and exact forecasts keep llp's prox_S at 0."""
    n, d = 3, 2
    base = (np.random.default_rng(8).uniform(-1.0, 1.0, size=(d, n)), np.zeros(d))
    seen = {"zero": 0, "positive": 0}
    for kind in ("perfect", "noisy"):
        sc = make_scenario("random_quadratic", horizon=300, dimension=n, constraints=d, seed=7)
        learner = LlpLearner(cfg(variant, bounds=sc.bounds), sc.domain, n, d,
                             base_affine=base if variant == "llp_perturbed" else None)
        p = make_predictor(kind, bounds=sc.bounds, domain=sc.domain, dimension=n,
                           constraints=d, level=0.3, seed=9)
        for t, _ in enumerate(play_run(sc, p, learner, 300), 1):
            S = learner.prox_S
            want = learner.prox_b / S if S > 0.0 else np.zeros(n)
            assert learner.prox_center.tobytes() == want.tobytes(), (kind, t)
            seen["positive" if S > 0.0 else "zero"] += 1
    assert seen["positive"] > 0 and (seen["zero"] > 0) == (variant != "llp2")


def test_llp_perturbed_requires_base_constraint():
    with pytest.raises(ConfigurationError):
        LlpLearner(cfg("llp_perturbed"), BOX1, 1, 1)


def test_learner_config_validation():
    with pytest.raises(ConfigurationError):
        cfg(variant="nonexistent")
    with pytest.raises(ConfigurationError):
        cfg(sigma=0.0)
    with pytest.raises(ConfigurationError):
        cfg(beta=1.0)
    with pytest.raises(ConfigurationError):
        LlpLearner(cfg(x0=np.array([2.0])), BOX1, 1, 1)  # outside the box


def test_greedy_single_gradient_step():
    learner = GreedyLearner(cfg("greedy_baseline", a=1.0), BOX1, 1, 1)
    learner.play_round(affine_round([-1.0], 0.0, [[0.0]], [0.0]), zero_bundle(1, 1))
    assert np.array_equal(learner.x, [1.0])


def test_greedy_multiplier_positive_part():
    learner = GreedyLearner(cfg("greedy_baseline", a=1.0), BOX1, 1, 1)
    learner.lam_next = np.array([0.2])
    learner.play_round(affine_round([0.0], 0.0, [[0.0]], [-0.5]), zero_bundle(1, 1))
    assert np.array_equal(learner.lam, [0.2])  # the multiplier it played
    assert np.array_equal(learner.lam_next, [0.0])


def test_greedy_converges_to_static_saddle():
    """Constant round: f(x) = x^2/2 - x, g(x) = x - 0.3 on [-1, 1].

    The grid saddle is x ~= 0.3 (feasibility binds) with lam ~= 0.7
    (stationarity x - 1 + lam = 0); greedy's tail averages must land there.
    """
    x_hat, lam_hat = saddle_point_grid(lambda xs: 0.5 * xs * xs - xs,
                                       lambda xs: xs - 0.3,
                                       -1.0, 1.0, lam_hi=3.0, resolution=1e-3)
    assert x_hat == pytest.approx(0.3, abs=2e-3)
    assert lam_hat == pytest.approx(0.7, abs=2e-3)

    # x^2/2 - x = (x - 1)^2/2 - 1/2
    oracle = RoundOracle(constraint_affine=([[1.0]], [-0.3]),
                         cost_quadratic=(1.0, [1.0], -0.5))
    learner = GreedyLearner(cfg("greedy_baseline", a=1.0), BOX1, 1, 1)
    xs, lams = [], []
    for _ in range(4000):
        r = play(learner, oracle)
        xs.append(r.x[0])
        lams.append(r.lam[0])
    assert np.mean(xs[2000:]) == pytest.approx(x_hat, abs=0.05)
    assert np.mean(lams[2000:]) == pytest.approx(lam_hat, abs=0.05)


@pytest.mark.parametrize("horizon", [1, 2, 7])
@pytest.mark.parametrize("kind, n, d", [("alternating_linear", 1, 1), ("random_quadratic", 3, 2)])
def test_greedy_stats_are_its_summary_entries(kind, n, d, horizon):
    """The summary entries no greedy row holds: a_prev is the step of round T - 1
    (a at T = 1), its z is x, and no step raises a flag or leaves x."""
    sc = make_scenario(kind, horizon=horizon, dimension=n, constraints=d, seed=2)
    a = 0.7
    learner = make_learner(cfg("greedy_baseline", a=a, bounds=sc.bounds), sc.domain, n, d)
    run_rounds(learner, sc, "noisy", horizon)
    stats = learner.stats()
    assert stats["a_prev"] == a / math.sqrt(max(horizon - 1, 1))
    assert stats["violation_z_norm"] == learner.violation_norm
    assert stats["flag_counts"] == {}
    assert stats["max_xz"] == 0.0
    assert stats["drift_gap"] == -math.inf


# what `runner.execute_run` reads off a learner for each row
ROW_ATTRIBUTES = ("t", "f_value", "cum_cost", "violation_norm", "lambda_norm", "a_t", "prox_S",
                  "h_cum", "xi_t", "solver_residual", "sum_a_prev_xi_sq", "mu", "xi_sq_cum",
                  "flags")


@pytest.mark.parametrize("variant, kind, n, d", [
    *((v, kind, n, d) for v in ("llp", "llp2", "greedy_baseline")
      for kind, n, d in (("alternating_linear", 1, 1), ("random_quadratic", 3, 2))),
    ("llp_perturbed", "perturbed_linear", 1, 1)])
def test_every_learner_has_the_row_attributes(variant, kind, n, d):
    sc = make_scenario(kind, horizon=2, dimension=n, constraints=d, seed=1)
    learner = make_learner(cfg(variant, bounds=sc.bounds), sc.domain, n, d,
                           base_affine=getattr(sc, "base_affine", None))
    for played in (0, 1):
        if played:
            run_rounds(learner, sc, "none", 1)
        assert learner.t == played
        assert [name for name in ROW_ATTRIBUTES if not hasattr(learner, name)] == []
        assert sorted(learner.stats()) == ["a_prev", "drift_gap", "flag_counts", "max_xz",
                                           "violation_z_norm"]


def test_make_learner_dispatch():
    assert isinstance(make_learner(cfg("greedy_baseline"), BOX1, 1, 1), GreedyLearner)
    assert isinstance(make_learner(cfg("llp"), BOX1, 1, 1), LlpLearner)
    with pytest.raises(ConfigurationError):
        GreedyLearner(cfg("llp"), BOX1, 1, 1)
    with pytest.raises(ConfigurationError, match="use GreedyLearner"):
        LlpLearner(cfg("greedy_baseline"), BOX1, 1, 1)
