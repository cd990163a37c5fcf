"""The `llp` learner against `reference_learner`, its rounds rebuilt from the definitions.

Bit-identity with a parent commit shows that nothing changed, not that
the folded state is right; this property replays small runs on both
round bodies (floats at n = d = 1, arrays otherwise) and requires every
round to match the unfolded reference within SLSQP's accuracy.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lazyoco.learners import LearnerConfig, LlpLearner
from lazyoco.predictors import make_predictor
from lazyoco.problems import make_scenario

pytest.importorskip("scipy.optimize")
from reference_learner import ReferenceLlp  # noqa: E402

# SLSQP's steps and the learner's iterative fixed point at n >= 2 both stop
# short of the exact point; over every value of every round this property
# draws they agreed within 2.9e-8, relative to max(1, |value|), so the
# tolerance leaves a margin of about 30
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_runs())
# float-body runs whose multiplier is on in many rounds, on forecast rows J~ != J
@example(dict(n=1, d=1, predictor="none", sigma=1.0, a=3.0, beta=0.5, horizon=40, offset=0.0,
              seed=1))
@example(dict(n=1, d=1, predictor="noisy", sigma=1.0, a=3.0, beta=0.5, horizon=40, offset=0.0,
              seed=1))
def test_llp_rounds_match_the_reference_learner(run):
    n, d, T = run["n"], run["d"], run["horizon"]
    sc = make_scenario("random_quadratic", horizon=T, dimension=n, constraints=d,
                       seed=run["seed"], params={"offset_scale": run["offset"]})
    config = LearnerConfig(variant="llp", sigma=run["sigma"], a=run["a"], beta=run["beta"],
                           bounds=sc.bounds)
    learner = LlpLearner(config, sc.domain, n, d)
    predictor = make_predictor(run["predictor"], bounds=sc.bounds, domain=sc.domain,
                               dimension=n, constraints=d, level=0.3, seed=run["seed"])
    ref = ReferenceLlp(config, sc.domain, n, d)
    max_xz = 0.0
    for t in range(1, T + 1):
        truth = sc.round(t)
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
