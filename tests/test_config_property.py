"""Generated run configs: each is refused at parse or runs to a finite, repeatable summary.

At extreme magnitudes a run may instead stop with a FloatingPointError that
names the round and the total that overflowed.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lazyoco import runner
from lazyoco.analysis import BENCHMARK_KINDS
from lazyoco.learners import VARIANTS
from lazyoco.predictors import PREDICTOR_KINDS
from lazyoco.problems import SCENARIO_KINDS
from lazyoco.sets import ConfigurationError

# one deliberate fault per document, or none; each must be refused at parse
_FAULTS = (None, None, None, None, None, "sigma", "a", "beta", "x0 shape", "x0 outside",
           "noise level", "dimension", "param", "bound overflow", "negative seed")


@st.composite
def run_docs(draw, faults=_FAULTS):
    fault = draw(st.sampled_from(faults))
    positive = st.sampled_from([0.05, 0.3, 1.0, 2.5])
    kind = draw(st.sampled_from(sorted(SCENARIO_KINDS)))
    scenario = {"kind": kind, "horizon": draw(st.integers(min_value=1, max_value=50)),
                "seed": draw(st.integers(min_value=0, max_value=3))}
    n = 1
    if kind == "random_quadratic":
        n = draw(st.integers(min_value=1, max_value=3))
        scenario["dimension"] = n
        scenario["constraints"] = draw(st.integers(min_value=1, max_value=3))
        scenario["params"] = draw(st.fixed_dictionaries({}, optional={
            "matrix_scale": positive, "center_scale": positive, "offset_scale": positive}))
    elif kind == "perturbed_linear":
        scenario["params"] = draw(st.fixed_dictionaries({}, optional={
            "amplitude": positive, "cost_slope": st.sampled_from([-2.0, -0.5, 1.0])}))
    # the variant is drawn freely: llp_perturbed needs the perturbed_linear kind
    learner = {"variant": draw(st.sampled_from(VARIANTS)),
               "sigma": draw(positive), "a": draw(positive),
               "beta": draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))}
    # optional sections; a null one reads as absent
    for section, fields in (
            ("bounds", {key: positive for key in ("L_f", "L_g", "G", "D", "F", "E_m", "Delta_m")}),
            ("solver", {"tolerance": st.sampled_from([1e-9, 1e-6]),
                        "max_iterations": st.sampled_from([3, 50, 10000])})):
        if draw(st.booleans()):
            learner[section] = draw(st.none() | st.fixed_dictionaries({}, optional=fields))
    if draw(st.booleans()):
        learner["x0"] = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]),
                                      min_size=n, max_size=n))
    predictor = {"kind": draw(st.sampled_from(sorted(PREDICTOR_KINDS))),
                 "level": draw(st.sampled_from([0.0, 0.3, 0.8, 1.5])),
                 "seed": draw(st.integers(min_value=0, max_value=3))}
    if fault in ("sigma", "a"):
        learner[fault] = -1.0
    elif fault == "beta":
        learner["beta"] = 1.0
    elif fault == "x0 shape":
        learner["x0"] = [0.0] * (n + 1)
    elif fault == "x0 outside":
        learner["x0"] = [1.5] * n
    elif fault == "noise level":
        predictor.update(kind="noisy", level=-0.5)
    elif fault == "dimension":
        scenario["dimension"] = 0 if kind == "random_quadratic" else 2
    elif fault == "bound overflow":
        learner["bounds"] = draw(st.sampled_from([{"G": 1e160}, {"D": 1e200}]))
    elif fault == "negative seed":
        if draw(st.booleans()):
            scenario["seed"] = -1
        else:
            predictor.update(kind="noisy", seed=-3)
    elif fault == "param":
        scenario["params"] = {"amplitude" if kind == "perturbed_linear" else "offset_scale": -1.0}
    return fault, {
        "scenario": scenario,
        "learner": learner,
        "predictor": predictor,
        "benchmark": {"kind": draw(st.sampled_from(sorted(BENCHMARK_KINDS)))},
        "output": {"record_every": draw(st.integers(min_value=1, max_value=3)),
                   "format": draw(st.sampled_from(["csv", "json"]))},
    }


def _run_bytes(config, path) -> tuple[bytes, bytes]:
    result = runner.execute_run(config)
    s = result.summary
    # the summary maps NaN and infinities to None
    for key in ("cum_cost", "violation_norm", "violation_z_norm", "h_cum", "sigma_cum", "a_T"):
        assert isinstance(s[key], float), key
    assert isinstance(s["regret"], float) == s["benchmark_feasible"]
    runner.write_trace(result, str(path))
    return path.read_bytes(), (path.parent / (path.name + ".summary.json")).read_bytes()


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=run_docs())
def test_parsed_configs_run_to_repeatable_finite_summaries(tmp_path, case):
    fault, doc = case
    try:
        config = runner.parse_run_config(doc)
    except ConfigurationError:
        assert fault is not None or (doc["learner"]["variant"] == "llp_perturbed"
                                     and doc["scenario"]["kind"] != "perturbed_linear")
        return
    assert fault is None, f"parser accepted a config with a bad {fault}"
    first = _run_bytes(config, tmp_path / "a.trace")
    assert _run_bytes(config, tmp_path / "b.trace") == first


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=run_docs(faults=(None,)), a=st.sampled_from([1e-300, 1e300]),
       sigma=st.sampled_from([1e-300, 1e300]))
def test_extreme_magnitudes_are_refused_finite_or_named(tmp_path, case, a, sigma):
    _, doc = case
    doc["learner"].update(a=a, sigma=sigma)
    doc["predictor"]["level"] = 1e300
    try:
        config = runner.parse_run_config(doc)
    except ConfigurationError:
        return
    try:
        _run_bytes(config, tmp_path / "a.trace")
    except FloatingPointError as exc:
        assert re.fullmatch(r"round \d+: \w+ is (inf|-inf|nan), not a finite number", str(exc))
