"""The lazy learner's two round bodies: floats at n = d = 1, arrays otherwise.

The float body must be the array body bit for bit, which the properties
below check round by round, each body called directly: on random
one-dimensional runs, and on hand-made rounds at signed zeros and
subnormals.  Both bodies must play under `LlpLearner.play_round`
and report under `LlpLearner.stats`, which is where a tracer that
rebinds those class attributes finds them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazyoco import runner
from lazyoco.learners import LearnerConfig, LlpLearner
from lazyoco.predictors import PREDICTOR_KINDS, PredictionBundle, make_predictor, zero_bundle
from lazyoco.problems import ProblemBounds, RoundOracle, make_scenario
from lazyoco.sets import Box

ONE_DIMENSIONAL = ("alternating_linear", "stochastic_constraint", "impossibility_adversary",
                   "perturbed_linear", "random_quadratic")
# the values a round leaves on the learner, compared bit for bit
COMPARED = ("lam", "f_value", "xi_t", "a_t", "h_cum", "prox_S", "cum_gz", "cum_gx",
            "max_xz", "drift_gap")
# every value of the learner's state, which the float body holds as Python floats
STATE = COMPARED + ("ccum", "lag_lin", "prox_b", "prox_center", "last_x", "sum_a_prev_xi_sq",
                    "xi_sq_cum", "a_prev", "mu", "cum_cost", "solver_residual")


def bits(v) -> bytes:
    """The float64 bits of a float or a 1-element array, signed zeros and NaNs included."""
    return np.atleast_1d(np.asarray(v, dtype=float)).tobytes()


def one_run(kind, variant, predictor, level, sigma, a, beta, horizon, seed):
    """A fresh n = d = 1 scenario, its predictor, and a learner on it."""
    sc = make_scenario(kind, horizon=horizon, seed=seed)
    config = LearnerConfig(variant=variant, sigma=sigma, a=a, beta=beta, bounds=sc.bounds)
    learner = LlpLearner(config, sc.domain, 1, 1, base_affine=getattr(sc, "base_affine", None))
    p = make_predictor(predictor, bounds=sc.bounds, domain=sc.domain, dimension=1,
                       constraints=1, level=level, seed=seed + 1)
    return sc, p, learner


def assert_float_state(learner):
    """Every value of the state is a Python float, the prox centre too while S = 0."""
    for name in STATE:
        assert type(getattr(learner, name)) is float, (learner.t, learner.prox_S, name)


@st.composite
def scalar_runs(draw):
    kind = draw(st.sampled_from(ONE_DIMENSIONAL))
    variants = ["llp", "llp2"] + (["llp_perturbed"] if kind == "perturbed_linear" else [])
    return dict(kind=kind, variant=draw(st.sampled_from(variants)),
                predictor=draw(st.sampled_from(sorted(PREDICTOR_KINDS))),
                level=draw(st.sampled_from([0.0, 0.3, 1.0])),
                sigma=10.0 ** draw(st.floats(-2.0, 2.0)), a=10.0 ** draw(st.floats(-2.0, 2.0)),
                beta=draw(st.sampled_from([0.0, 0.5, 0.95])),
                horizon=draw(st.integers(1, 300)), seed=draw(st.integers(0, 5)))


@settings(max_examples=60, deadline=None)
@given(scalar_runs())
def test_float_body_is_the_array_body_bit_for_bit(run):
    floats, arrays = one_run(**run), one_run(**run)
    # the second learner restarted on the array body, whose round is called directly
    arrays[2]._start_arrays(np.array([arrays[2].last_x]))
    assert_float_state(floats[2])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(1, run["horizon"] + 1):
            xs = []
            for (sc, p, learner), play in ((floats, floats[2]._play_floats),
                                           (arrays, arrays[2]._play_arrays)):
                truth = sc.round(t)
                x = play(truth, p.bundle_for(truth))
                assert isinstance(x, np.ndarray) and x.shape == (1,)
                sc.record_action(t, x)
                p.note_action(x)
                xs.append(x)
            assert bits(xs[0]) == bits(xs[1]), t
            for name in COMPARED:
                assert bits(getattr(floats[2], name)) == bits(getattr(arrays[2], name)), (t, name)
            assert_float_state(floats[2])
    assert isinstance(arrays[2].lam, np.ndarray)
    for name in ("lambda_norm", "violation_norm"):
        assert bits(getattr(floats[2], name)) == bits(getattr(arrays[2], name)), name
    assert (bits(floats[2].stats()["violation_z_norm"])
            == bits(arrays[2].stats()["violation_z_norm"]))


# floats where numpy's signed zeros and rounding show: zeros of both signs,
# the smallest subnormals (whose products underflow to a signed zero) and a
# few plain values
EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.25, -0.25, 1.0, -1.0,
                        3.0])


@st.composite
def edge_rounds(draw):
    """A learner's config and box, and a few hand-made n = d = 1 rounds with their forecasts."""
    lo, hi = draw(st.sampled_from([(-1.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (0.0, 0.0),
                                   (-0.0, 0.0)]))
    x0 = draw(st.sampled_from([None, lo, hi]))
    variant = draw(st.sampled_from(["llp", "llp2", "llp_perturbed"]))
    rounds = []
    for _ in range(draw(st.integers(1, 12))):
        W, u, c, b = (draw(EDGE) for _ in range(4))
        if draw(st.booleans()):
            truth = RoundOracle(constraint_affine=([[W]], [u]), cost_affine=([c], b))
        else:
            truth = RoundOracle(constraint_affine=([[W]], [u]),
                                cost_quadratic=(draw(st.sampled_from([0.5, 1.0, 2.5])), [c], b))
        kind = draw(st.sampled_from(["none", "affine", "quadratic"]))
        bundle = zero_bundle(1, 1)
        if kind != "none":
            Wt, ut, ct = (draw(EDGE) for _ in range(3))
            value = draw(st.one_of(st.none(), EDGE))
            cost = ({"cost_gradient": np.array([ct])} if kind == "affine" else
                    {"cost_gradient": None,
                     "cost_quadratic": (draw(st.sampled_from([0.5, 1.0])), np.array([ct]))})
            bundle = PredictionBundle(constraint_affine=(np.array([[Wt]]), np.array([ut])),
                                      predicted_value=None if value is None else np.array([value]),
                                      **cost)
        rounds.append((truth, bundle))
    config = LearnerConfig(variant=variant, sigma=draw(st.sampled_from([1e-3, 1.0, 50.0])),
                           a=draw(st.sampled_from([1e-3, 1.0, 50.0])),
                           beta=draw(st.sampled_from([0.0, 0.5])),
                           bounds=ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, E_m=1.0,
                                                Delta_m=1.0),
                           x0=None if x0 is None else [x0])
    base = draw(st.sampled_from([1.0, 0.25, -0.0]))
    return config, Box(np.array([lo]), np.array([hi])), base, rounds


@settings(max_examples=300, deadline=None)
@given(edge_rounds())
def test_float_body_keeps_numpy_signed_zeros(case):
    """Hand-made rounds at signed zeros and subnormals: the float body is still
    the array body bit for bit, or both stop with the same exception."""
    config, box, base, rounds = case
    learners = [LlpLearner(config, box, 1, 1, base_affine=(np.array([[base]]), np.zeros(1)))
                for _ in range(2)]
    learners[1]._start_arrays(np.array([learners[1].last_x]))
    plays = (learners[0]._play_floats, learners[1]._play_arrays)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t, (truth, bundle) in enumerate(rounds, start=1):
            outcomes = []
            for play in plays:
                try:
                    outcomes.append(bits(play(truth, bundle)))
                except ArithmeticError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], t
            if not isinstance(outcomes[0], bytes):
                return
            for name in COMPARED:
                assert bits(getattr(learners[0], name)) == bits(getattr(learners[1], name)), \
                    (t, name)


@pytest.mark.parametrize("n, d, body", [(1, 1, "_play_floats"), (1, 2, "_play_arrays"),
                                        (2, 1, "_play_arrays")])
def test_the_shape_picks_the_body(monkeypatch, n, d, body):
    played = []
    for name in ("_play_floats", "_play_arrays"):
        real = getattr(LlpLearner, name)
        monkeypatch.setattr(LlpLearner, name,
                            lambda self, *args, name=name, real=real:
                            played.append(name) or real(self, *args))
    sc = make_scenario("random_quadratic", horizon=3, dimension=n, constraints=d, seed=1)
    config = LearnerConfig(variant="llp", sigma=1.0, a=1.0, beta=0.5, bounds=sc.bounds)
    learner = LlpLearner(config, sc.domain, n, d)
    for t in range(1, 4):
        x = learner.play_round(sc.round(t), zero_bundle(n, d))
        assert x.shape == (n,)
    assert played == [body] * 3


@pytest.mark.parametrize("scenario", [
    {"kind": "alternating_linear", "horizon": 120},
    {"kind": "random_quadratic", "horizon": 120, "dimension": 3, "constraints": 2},
], ids=["n1", "n3"])
def test_play_round_and_stats_are_the_class_entry_points(monkeypatch, scenario):
    """A tracer that rebinds `LlpLearner.play_round` and `.stats` sees every
    round and the one stats call, whichever body the shape picked."""
    calls = {"play_round": 0, "stats": 0}
    for name in calls:
        real = getattr(LlpLearner, name)

        def counted(self, *args, name=name, real=real):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(LlpLearner, name, counted)
    result = runner.execute_run(runner.parse_run_config({
        "scenario": scenario,
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "predictor": {"kind": "noisy"},
    }))
    assert calls == {"play_round": 120, "stats": 1}
    assert math.isfinite(result.summary["cum_cost"])
