import numpy as np
import pytest

from lazyoco.learners import LearnerConfig, LlpLearner
from lazyoco.predictors import (
    PREDICTOR_KINDS,
    _unit,
    _unit_rows,
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
    assert learner.max_xz == 0.0


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


@pytest.mark.parametrize("level", [0.3, 1.5])
def test_noisy_bundle_equals_normal_and_uniform_draws(level):
    """The noisy forecast, bit for bit, as drawn with `normal` and `uniform` and
    with the guessed gradient read off `cost`, at the last noted action; at
    T = 515 across two edges of the blocks the noise is drawn in, and at
    n + d > 256 across the edges of blocks shorter than 256 rounds."""
    for n, d, horizon in ((5, 3, 300), (5, 3, 515), (3, 2, 515), (1, 1, 515),
                          (200, 60, 515)):
        sc = make_scenario("random_quadratic", horizon=horizon, dimension=n, constraints=d,
                           seed=6)
        p = predictor_for(sc, "noisy", level=level, seed=9)
        assert p._rows == (256 if n + d <= 256 else (1 << 16) // (n + d))
        b = sc.bounds
        rng, gamma, last_x = np.random.default_rng(9), min(level, 1.0), np.zeros(n)
        actions = np.random.default_rng(10).uniform(-1.0, 1.0, size=(horizon, n))
        for t in range(1, horizon + 1):
            truth = sc.round(t)
            e = rng.normal(size=n)
            e = e / np.linalg.norm(e) * level * b.L_f * rng.uniform()
            c = truth.cost(last_x)[1] + e
            if np.linalg.norm(c) > b.L_f:
                c = c * (b.L_f / np.linalg.norm(c))
            shift = rng.normal(size=d)
            shift = shift / np.linalg.norm(shift) * b.G * rng.uniform()
            W, u = truth.constraint_affine

            bundle = p.bundle_for(truth)
            assert np.array_equal(bundle.cost_gradient, c), (n, d, t)
            Wp, up = bundle.constraint_affine
            assert np.array_equal(Wp, (1.0 - gamma) * W), (n, d, t)
            assert np.array_equal(up, (1.0 - gamma) * u + gamma * shift), (n, d, t)
            assert bundle.predicted_value is None
            last_x = actions[t - 1]
            p.note_action(last_x)


def test_unit_rows_is_unit_of_each_row():
    """The block's row-unit helper gives `_unit` of each row bit for bit, and
    `_unit`'s first axis on a zero row, signed zeros included."""
    rows = np.random.default_rng(3).standard_normal((300, 4))
    rows[[0, 7]] = 0.0
    rows[9] = -0.0
    out = _unit_rows(rows)
    for row, got in zip(rows, out):
        want = _unit(row)
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(out[[0, 7, 9]], np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))


def test_perfect_gradients_predicts_zero_value():
    sc = alternating()
    p = predictor_for(sc, "perfect_gradients")
    bundle = p.bundle_for(draw_rounds(sc, 2)[-1])
    assert np.array_equal(bundle.cost_gradient, [-4.0])
    assert np.array_equal(bundle.predicted_value, [0.0])
    W, _ = bundle.constraint_affine
    assert W[0, 0] == 0.79


def test_deferred_rows_on_perturbed_linear_are_nonnegative_base_multiples():
    """Every forecast that defers v~ on `perturbed_linear` has rows W~ = c B with
    c >= 0 and B the base rows, so the `llp_perturbed` scalar fixed point, whose
    multiplier sits on B, has a nondecreasing derivative and its breakpoint rule
    is exact."""
    deferring = set()
    for kind in PREDICTOR_KINDS:
        for level in (0.3, 1.0, 2.5):
            sc = make_scenario("perturbed_linear", horizon=100, seed=3)
            B = sc.base_affine[0]
            p = predictor_for(sc, kind, level=level, seed=4)
            for truth in draw_rounds(sc, 100):
                bundle = p.bundle_for(truth)
                if bundle.predicted_value is not None:
                    continue
                deferring.add(kind)
                W = bundle.constraint_affine[0]
                c = float(np.sum(W * B) / np.sum(B * B))
                assert c >= 0.0 and np.array_equal(W, c * B), (kind, level)
    assert deferring == {"perfect", "noisy"}


def test_predictor_kind_registry():
    assert set(PREDICTOR_KINDS) == {"none", "perfect", "perfect_gradients",
                                    "noisy", "adversarial"}


def test_perfect_collapse_on_learner_runs():
    """x_t = z_t exactly under perfect forecasts."""
    for scenario_kind in ("alternating_linear", "stochastic_constraint"):
        sc = make_scenario(scenario_kind, horizon=150, seed=6)
        p = predictor_for(sc, "perfect")
        learner, _ = run_learner(sc, p, 150)
        assert learner.max_xz == 0.0
        assert learner.xi_sq_cum == 0.0
