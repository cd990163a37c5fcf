"""The lazy learners against `reference_learner`, their rounds rebuilt from the definitions.

Bit-identity with a parent commit shows that nothing changed, not that
the folded state is right; these properties replay small runs of `llp`,
`llp2` and `llp_perturbed` on both round bodies (floats at n = d = 1,
arrays otherwise) and require every round to match the unfolded
reference within SLSQP's accuracy.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lazyoco.learners import LearnerConfig, LlpLearner
from lazyoco.predictors import make_predictor
from lazyoco.problems import RoundOracle, make_scenario

pytest.importorskip("scipy.optimize")
from reference_learner import ReferenceLearner  # noqa: E402

# SLSQP's steps and the learner's iterative fixed point at n >= 2 both stop
# short of the exact point; over every value of every round these
# properties draw they agreed within 2.1e-8, relative to max(1, |value|),
# so the tolerance leaves a margin of about 50
TOL = 1e-6


def close(learner_value, reference_value) -> bool:
    got, want = np.atleast_1d(learner_value), np.atleast_1d(reference_value)
    return bool(np.all(np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want))))


@st.composite
def small_runs(draw):
    return dict(n=draw(st.integers(1, 3)), d=draw(st.integers(1, 3)),
                predictor=draw(st.sampled_from(["none", "noisy", "perfect"])),
                sigma=10.0 ** draw(st.floats(-1.0, 1.0)), a=10.0 ** draw(st.floats(-1.0, 1.5)),
                beta=draw(st.sampled_from([0.0, 0.5, 0.9])), horizon=draw(st.integers(1, 40)),
                # at offset 0 the origin is on every round's constraint, so the multiplier moves
                offset=draw(st.sampled_from([0.0, 0.5])), seed=draw(st.integers(0, 5)))


def assert_rounds_match(learner, ref, predictor, rounds):
    """Play `rounds` on the learner and the reference alike, and require every
    round's x_t, multiplier, xi_t and running totals, and max ||x - z||, to match."""
    max_xz = 0.0
    for t, truth in enumerate(rounds, start=1):
        bundle = predictor.bundle_for(truth)
        x_ref = ref.primal(bundle)
        x = learner.play_round(truth, bundle)
        assert learner.flags == "", t
        assert close(x, x_ref), (t, x, x_ref)
        step = ref.close(truth, bundle, x)
        max_xz = max(max_xz, float(np.linalg.norm(x - step["z"])))
        for name, want in (*ref.totals().items(), ("lam", step["lam"]), ("xi_t", step["xi"]),
                           ("max_xz", max_xz)):
            assert close(getattr(learner, name), want), (t, name, getattr(learner, name), want)
        predictor.note_action(x)


def play_random_quadratic(variant, run):
    """`variant` against the reference on a `random_quadratic` run drawn by `small_runs`."""
    n, d, T = run["n"], run["d"], run["horizon"]
    sc = make_scenario("random_quadratic", horizon=T, dimension=n, constraints=d,
                       seed=run["seed"], params={"offset_scale": run["offset"]})
    config = LearnerConfig(variant=variant, sigma=run["sigma"], a=run["a"], beta=run["beta"],
                           bounds=sc.bounds)
    predictor = make_predictor(run["predictor"], bounds=sc.bounds, domain=sc.domain,
                               dimension=n, constraints=d, level=0.3, seed=run["seed"])
    assert_rounds_match(LlpLearner(config, sc.domain, n, d),
                        ReferenceLearner(config, sc.domain, n, d), predictor,
                        (sc.round(t) for t in range(1, T + 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_runs())
# float-body runs whose multiplier is on in many rounds, on forecast rows J~ != J
@example(dict(n=1, d=1, predictor="none", sigma=1.0, a=3.0, beta=0.5, horizon=40, offset=0.0,
              seed=1))
@example(dict(n=1, d=1, predictor="noisy", sigma=1.0, a=3.0, beta=0.5, horizon=40, offset=0.0,
              seed=1))
def test_llp_rounds_match_the_reference_learner(run):
    play_random_quadratic("llp", run)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_runs())
@example(dict(n=1, d=1, predictor="noisy", sigma=1.0, a=3.0, beta=0.5, horizon=40, offset=0.0,
              seed=1))
@example(dict(n=3, d=2, predictor="perfect", sigma=0.3, a=3.0, beta=0.5, horizon=40,
              offset=0.0, seed=2))
def test_llp2_rounds_match_the_reference_learner(run):
    play_random_quadratic("llp2", run)


def fixed_row_rounds(n, d, horizon, seed, offset):
    """Rounds g(x) + b_t with g(x) = B x on fixed rows B: `random_quadratic`'s
    costs and shifts b_t, with its first round's rows in every round."""
    sc = make_scenario("random_quadratic", horizon=horizon, dimension=n, constraints=d,
                       seed=seed, params={"offset_scale": offset})
    drawn = [sc.round(t) for t in range(1, horizon + 1)]
    B = drawn[0].constraint_affine[0]
    return sc, B, [RoundOracle(constraint_affine=(B, r.constraint_affine[1]),
                               cost_quadratic=r.cost_quadratic) for r in drawn]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_runs(), st.sampled_from([0.0, 0.1, 0.5]), st.sampled_from([0.3, 1.0]))
# the float body with the multiplier on in many rounds, under each forecast
@example(dict(n=1, d=1, predictor="none", sigma=1.0, a=3.0, beta=0.5, horizon=40, offset=0.0,
              seed=1), 0.5, 0.3)
@example(dict(n=1, d=1, predictor="noisy", sigma=1.0, a=3.0, beta=0.5, horizon=40, offset=0.0,
              seed=1), 0.5, 0.3)
@example(dict(n=1, d=1, predictor="perfect", sigma=1.0, a=3.0, beta=0.5, horizon=40,
              offset=0.0, seed=1), 0.5, 0.3)
# the array body, its forecast rows W~ = 0.7 B and B
@example(dict(n=3, d=2, predictor="noisy", sigma=1.0, a=3.0, beta=0.5, horizon=40, offset=0.0,
              seed=2), 0.0, 0.3)
@example(dict(n=2, d=3, predictor="perfect", sigma=1.0, a=3.0, beta=0.5, horizon=40,
              offset=0.0, seed=2), 0.0, 0.3)
def test_llp_perturbed_rounds_match_the_reference_learner(run, amplitude, level):
    """The float body on `perturbed_linear` (n = 1), the array body on
    `fixed_row_rounds` (n >= 2); the noisy forecast's rows are (1 - level) B."""
    T, seed = run["horizon"], run["seed"]
    if run["n"] == 1:
        n = d = 1
        sc = make_scenario("perturbed_linear", horizon=T, seed=seed,
                           params={"amplitude": amplitude})
        B, rounds = sc.base_affine[0], (sc.round(t) for t in range(1, T + 1))
    else:
        n, d = run["n"], run["d"]
        sc, B, rounds = fixed_row_rounds(n, d, T, seed, run["offset"])
    config = LearnerConfig(variant="llp_perturbed", sigma=run["sigma"], a=run["a"],
                           beta=run["beta"], bounds=sc.bounds)
    predictor = make_predictor(run["predictor"], bounds=sc.bounds, domain=sc.domain,
                               dimension=n, constraints=d, level=level, seed=seed)
    assert_rounds_match(LlpLearner(config, sc.domain, n, d, base_affine=(B, np.zeros(d))),
                        ReferenceLearner(config, sc.domain, n, d, base_rows=B), predictor,
                        rounds)
