import numpy as np
import pytest

from lazyoco.learners import LearnerConfig, LlpLearner
from lazyoco.predictors import (
    PREDICTOR_KINDS,
    make_predictor,
    zero_bundle,
)
from lazyoco.problems import make_scenario
from lazyoco.sets import ConfigurationError

from helpers import draw_rounds, play_run


def alternating():
    return make_scenario("alternating_linear", horizon=200)


def predictor_for(sc, kind, level=0.1, seed=0):
    return make_predictor(kind, bounds=sc.bounds, domain=sc.domain,
                          dimension=sc.dimension, constraints=sc.n_constraints,
                          level=level, seed=seed)


def test_none_predictor_is_all_zero():
    sc = alternating()
    p = predictor_for(sc, "none")
    b = p.bundle_for(draw_rounds(sc, 5)[-1])
    assert np.array_equal(b.cost_gradient, [0.0])
    assert np.array_equal(b.predicted_value, [0.0])
    W, u = b.constraint_affine
    assert np.array_equal(W, [[0.0]]) and np.array_equal(u, [0.0])


def test_zero_bundle_shapes():
    b = zero_bundle(3, 2)
    assert b.cost_gradient.shape == (3,)
    assert b.predicted_value.shape == (2,)
    assert b.constraint_affine[0].shape == (2, 3)
    assert b.constraint_affine[1].shape == (2,)


def test_perfect_forecast_on_alternating_even_round():
    sc = alternating()
    p = predictor_for(sc, "perfect")
    b = p.bundle_for(draw_rounds(sc, 2)[-1])
    assert np.array_equal(b.cost_gradient, [-4.0])
    W, u = b.constraint_affine
    assert W[0, 0] == 0.79 and u[0] == 0.26
    # the deferred constraint value forecast is the true g at the played point
    assert b.predicted_value is None
    assert (W @ np.array([0.5]) + u)[0] == pytest.approx(0.655)


def test_unknown_predictor_kind_rejected():
    sc = alternating()
    with pytest.raises(ConfigurationError):
        predictor_for(sc, "psychic")


def run_learner(sc, predictor, horizon, variant="llp", beta=0.5):
    cfg = LearnerConfig(variant=variant, sigma=1.0, a=1.0, beta=beta, bounds=sc.bounds)
    learner = LlpLearner(cfg, sc.domain, sc.dimension, sc.n_constraints)
    return learner, [r for _, r in play_run(sc, predictor, learner, horizon)]


def test_perfect_errors_vanish_through_learner():
    sc = alternating()
    p = predictor_for(sc, "perfect")
    learner, rounds = run_learner(sc, p, 120)
    # exact forecasts make W~ = W, so h_t = ||eps_t||: h_{1:t} stays 0 iff every eps_t = 0
    assert all(r.h_cum == 0.0 for r in rounds)
    assert all(r.xi_t == 0.0 for r in rounds)
    assert learner.max_xz <= 10.0 * learner.cfg.solver.tolerance


@pytest.mark.parametrize("kind,level", [("noisy", 0.3), ("noisy", 1.5), ("adversarial", 0.0)])
@pytest.mark.parametrize("scenario_kind", ["alternating_linear", "random_quadratic"])
def test_a4_error_clipping(kind, level, scenario_kind):
    """Realized forecast errors stay inside the declared A4 constants."""
    sc = make_scenario(scenario_kind, horizon=150, dimension=2, constraints=2, seed=3) \
        if scenario_kind == "random_quadratic" else alternating()
    p = predictor_for(sc, kind, level=level, seed=11)
    b = sc.bounds
    rng = np.random.default_rng(1)
    lo, hi = sc.domain.lower, sc.domain.upper
    for t in range(1, 121):
        truth = sc.round(t)
        bundle = p.bundle_for(truth)
        x = rng.uniform(lo, hi)
        p.note_action(x)
        c_true = truth.cost(x)[1]
        c_tilde = bundle.cost_gradient
        assert np.linalg.norm(c_tilde) <= b.L_f + 1e-9
        assert np.linalg.norm(c_true - c_tilde) <= b.E_m + 1e-9
        jac_true = truth.constraint(x)[1]
        W, u = bundle.constraint_affine
        assert np.linalg.norm(jac_true - W) <= b.Delta_m + 1e-9
        vals = W @ x + u
        assert np.linalg.norm(vals) <= b.G + 1e-9


def test_adversarial_opposes_truth():
    sc = alternating()
    p = predictor_for(sc, "adversarial")
    truth = draw_rounds(sc, 2)[-1]  # c = -4, g increasing
    bundle = p.bundle_for(truth)
    assert bundle.cost_gradient[0] == pytest.approx(sc.bounds.L_f)  # -L_f * sign(-4)
    assert bundle.predicted_value[0] == pytest.approx(-sc.bounds.G)
    W, _ = bundle.constraint_affine
    assert W[0, 0] < 0.0  # slope flipped against the true 0.79


def test_noisy_predictor_deterministic_per_seed():
    sc = make_scenario("random_quadratic", horizon=60, dimension=2, constraints=1, seed=2)
    pa = predictor_for(sc, "noisy", level=0.5, seed=7)
    pb = predictor_for(sc, "noisy", level=0.5, seed=7)
    for t in range(1, 61):
        truth = sc.round(t)
        ba, bb = pa.bundle_for(truth), pb.bundle_for(truth)
        assert np.array_equal(ba.cost_gradient, bb.cost_gradient)
        x = np.array([0.3, -0.4])
        (Wa, ua), (Wb, ub) = ba.constraint_affine, bb.constraint_affine
        assert np.array_equal(Wa @ x + ua, Wb @ x + ub)


def test_perfect_gradients_predicts_zero_value():
    sc = alternating()
    p = predictor_for(sc, "perfect_gradients")
    bundle = p.bundle_for(draw_rounds(sc, 2)[-1])
    assert np.array_equal(bundle.cost_gradient, [-4.0])
    assert np.array_equal(bundle.predicted_value, [0.0])
    W, _ = bundle.constraint_affine
    assert W[0, 0] == 0.79


def test_predictor_kind_registry():
    assert set(PREDICTOR_KINDS) == {"none", "perfect", "perfect_gradients",
                                    "noisy", "adversarial"}


def test_perfect_collapse_on_learner_runs():
    """x_t = z_t within solver tolerance under perfect forecasts."""
    for scenario_kind in ("alternating_linear", "stochastic_constraint"):
        sc = make_scenario(scenario_kind, horizon=150, seed=6)
        p = predictor_for(sc, "perfect")
        learner, _ = run_learner(sc, p, 150)
        assert learner.max_xz <= 10.0 * learner.cfg.solver.tolerance
        assert learner.xi_sq_cum == 0.0
