import copy
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import lazyoco
from lazyoco import analysis, cli, learners, runner
from lazyoco.learners import make_learner
from lazyoco.predictors import make_predictor
from lazyoco.problems import make_scenario
from lazyoco.sets import Box, ConfigurationError

from helpers import compute_metrics, play_run, trace_row


def base_doc(**over):
    doc = {
        "scenario": {"kind": "alternating_linear", "horizon": 40, "seed": 0},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "predictor": {"kind": "none"},
        "benchmark": {"kind": "X_T"},
        "output": {},
    }
    for key, val in over.items():
        doc[key] = val
    return doc


def test_trace_columns_contract():
    assert runner.TRACE_COLUMNS == (
        "t", "f_value", "cum_cost", "regret", "violation_norm", "lambda_norm",
        "a_t", "sigma_cum", "h_cum", "xi_t", "bound_B_t", "solver_residual",
        "flags",
    )


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d["scenario"].update(extra=1),
    lambda d: d["learner"].update(extra=1),
    lambda d: d["learner"].update(bounds={"G": 1.0, "bogus": 2.0}),
    lambda d: d["learner"].update(solver={"tolerance": 1e-9, "warp": 1}),
    lambda d: d["predictor"].update(extra=1),
    lambda d: d["benchmark"].update(extra=1),
    lambda d: d["output"].update(extra=1),
])
def test_parse_rejects_unknown_keys(mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigurationError):
        runner.parse_run_config(doc)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("scenario"),
    lambda d: d.pop("learner"),
    lambda d: d["scenario"].update(kind="mystery"),
    lambda d: d["scenario"].update(horizon=0),
    lambda d: d["learner"].update(variant="sgd"),
    lambda d: d["learner"].update(x0="origin"),
    lambda d: d["predictor"].update(kind="psychic"),
    lambda d: d["benchmark"].update(kind="X_best"),
    lambda d: d["benchmark"].update(grid_resolution=0.0),
    lambda d: d["output"].update(format="parquet"),
    lambda d: d["output"].update(record_every=0),
])
def test_parse_rejects_bad_values(mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigurationError):
        runner.parse_run_config(doc)


def test_parse_defaults():
    cfg = runner.parse_run_config({
        "scenario": {"kind": "alternating_linear", "horizon": 5},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.0},
    })
    assert cfg.predictor_kind == "none"
    assert cfg.benchmark_kind == "X_T"
    assert cfg.output.format == "csv" and cfg.output.record_every == 1
    assert cfg.learner.bounds.L_f == 4.0  # scenario-published constants


def test_csv_trace_format(tmp_path):
    path = str(tmp_path / "trace.csv")
    doc = base_doc(output={"path": path})
    doc["scenario"]["horizon"] = 5
    result = runner.execute_run(runner.parse_run_config(doc))
    runner.write_trace(result)

    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(runner.TRACE_COLUMNS)
    assert len(lines) == 6
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert len(cells) == 13
        assert cells[0] == str(i)            # integer t, no decorations
        for cell in cells[1:12]:
            f = float(cell)                  # shortest .17g text survives parsing
            assert format(f, ".17g") == cell
    summary = json.loads(Path(path + ".summary.json").read_text(encoding="utf-8"))
    assert summary["rows_written"] == 5
    assert summary["horizon"] == 5


def test_json_trace_format(tmp_path):
    """The JSON trace holds the CSV trace's rows, cell for cell."""
    doc = base_doc(scenario={"kind": "random_quadratic", "horizon": 10, "dimension": 2,
                             "constraints": 2, "seed": 4},
                   predictor={"kind": "noisy", "level": 0.5, "seed": 3},
                   output={"path": str(tmp_path / "trace.json"), "format": "json",
                           "record_every": 3})
    result = runner.execute_run(runner.parse_run_config(doc))
    runner.write_trace(result)
    runner.write_trace(result, str(tmp_path / "trace.csv"), "csv")
    loaded = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    lines = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert loaded["columns"] == list(runner.TRACE_COLUMNS) == lines[0].split(",")
    assert [row[0] for row in loaded["rows"]] == [3, 6, 9, 10]  # subsampled, last round kept
    assert len(lines) == 1 + len(loaded["rows"])
    for row, line in zip(loaded["rows"], lines[1:]):
        cells = line.split(",")
        assert len(row) == len(cells) == 13
        assert type(row[0]) is int and str(row[0]) == cells[0]
        for value, cell in zip(row[1:12], cells[1:12]):
            assert type(value) is float and value == float(cell)
        assert type(row[12]) is str and row[12] == cells[12]


def test_json_trace_is_the_json_module_document(tmp_path):
    """Rows with non-finite floats (null), signed zeros and quoted flags, over
    several write blocks, come out as json.dump writes the whole document."""
    rng = np.random.default_rng(5)
    n = 2 * 256 + 3
    table = rng.normal(size=(n, 12)) * 10.0 ** rng.integers(-300, 300, size=(n, 12))
    table[:, 0] = np.arange(1, n + 1)
    table[::7, 3] = math.nan
    table[::11, 5] = math.inf
    table[::13, 8] = -math.inf
    table[::5, 9] = -0.0
    flags = [["", "primal_solver", 'a;"b"', "\u00e9\\"][i % 4] for i in range(n)]
    for rows in (0, 1, n):
        path = str(tmp_path / f"trace{rows}.json")
        runner._write_json_trace(path, table[:rows], flags[:rows])
        doc = {"columns": list(runner.TRACE_COLUMNS),
               "rows": [[int(v[0])] + [x if math.isfinite(x) else None for x in v[1:]] + [fl]
                        for v, fl in zip(table[:rows].tolist(), flags[:rows])]}
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_trace_bytes_deterministic(tmp_path):
    payloads = []
    for tag in ("a", "b"):
        path = str(tmp_path / f"{tag}.csv")
        doc = base_doc(output={"path": path},
                       predictor={"kind": "noisy", "level": 0.5, "seed": 9})
        runner.write_trace(runner.execute_run(runner.parse_run_config(doc)))
        payloads.append((Path(path).read_bytes(),
                         Path(path + ".summary.json").read_bytes()))
    assert payloads[0] == payloads[1]


def test_run_memory_grows_only_with_the_comparator_rows():
    """Peak allocation of a run grows by under 1 KB per round at fixed output.

    With 20 rows written either way, what a longer run must keep is the
    comparator's X_T rows, d (n + 1) floats a round; a kept copy
    of every drawn round costs several times that.
    """
    def peak(horizon):
        cfg = runner.parse_run_config(base_doc(
            scenario={"kind": "random_quadratic", "horizon": horizon, "dimension": 5,
                      "constraints": 3, "seed": 1},
            predictor={"kind": "noisy", "level": 0.3, "seed": 2},
            output={"record_every": horizon // 20}))
        tracemalloc.start()
        try:
            runner.execute_run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(2000), peak(8000)
    assert (long - short) / 6000 < 1024


@pytest.mark.parametrize("scenario, predictor, per_round", [
    # every round's rows, 3 x 6 floats = 144 B a round, kept as the system the solve reads
    ({"kind": "random_quadratic", "dimension": 5, "constraints": 3, "seed": 1},
     {"kind": "noisy", "level": 0.3, "seed": 2}, 320),
    # a 1-D comparator set is an interval: three numbers, whatever the horizon
    ({"kind": "perturbed_linear", "seed": 0}, {"kind": "none"}, 8),
], ids=["quadratic_rows", "interval_1d"])
def test_comparator_memory_per_round(scenario, predictor, per_round):
    """Peak allocation of an X_T run grows by under `per_round` bytes a round
    at fixed output, the solve's working copies included."""
    def peak(horizon):
        cfg = runner.parse_run_config(base_doc(
            scenario=dict(scenario, horizon=horizon), predictor=predictor,
            output={"record_every": horizon // 20}))
        tracemalloc.start()
        try:
            runner.execute_run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # the first run in a process also pays one-time allocations
    short, long = peak(2000), peak(8000)
    assert (long - short) / 6000 < per_round


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_recorded_rows_cost_under_256_bytes_each(tmp_path, fmt):
    """Peak allocation of a run and its trace grows by under 256 B per recorded row.

    A row's fifteen numbers (the trace's twelve and the three B_t inputs)
    take 120 B in the run's one float table; a row held as Python objects,
    or a trace payload built as one string, costs several times that.
    """
    def peak(horizon):
        cfg = runner.parse_run_config(base_doc(
            scenario={"kind": "alternating_linear", "horizon": horizon, "seed": 0},
            output={"path": str(tmp_path / f"trace{horizon}.{fmt}"), "format": fmt,
                    "record_every": 1}))
        tracemalloc.start()
        try:
            runner.write_trace(runner.execute_run(cfg))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # the first run in a process also pays one-time allocations
    short, long = peak(2000), peak(8000)
    assert (long - short) / 6000 < 256


def test_record_every_subsampling():
    doc = base_doc(output={"record_every": 3})
    doc["scenario"]["horizon"] = 10
    result = runner.execute_run(runner.parse_run_config(doc))
    assert result.table[:, 0].tolist() == [3, 6, 9, 10]
    assert result.summary["rows_written"] == 4


@pytest.mark.parametrize("short, long, record_every", [(257, 513, 1), (257, 513, 7),
                                                      (700, 1400, 300)])
@pytest.mark.parametrize("scenario, predictor, comparator", [
    ({"kind": "alternating_linear"}, {"kind": "none"}, "X_T"),
    ({"kind": "random_quadratic", "dimension": 3, "constraints": 2},
     {"kind": "noisy", "level": 0.3, "seed": 4}, "X_T"),
    ({"kind": "stochastic_constraint"}, {"kind": "perfect"}, "X_T_max"),
    ({"kind": "random_quadratic", "dimension": 2, "constraints": 1}, {"kind": "perfect"},
     "X_T_max"),
], ids=["alternating_none", "quadratic_noisy", "stochastic_perfect", "quadratic_max"])
def test_rows_survive_block_edges(scenario, predictor, comparator, short, long, record_every):
    """The run folds and writes its rounds 256 at a time, and a row lands where
    its round puts it: a shorter run's rows and flags are the longer run's,
    bit for bit, but for regret (its comparator sees fewer rounds) and for a
    last row that only round T records; and each row's regret is its own
    round's."""
    runs = [runner.execute_run(runner.parse_run_config(base_doc(
        scenario=dict(scenario, horizon=T, seed=3), predictor=predictor,
        benchmark={"kind": comparator}, output={"record_every": record_every})))
        for T in (short, long)]
    m = len(runs[0].flags) - (short % record_every != 0)
    assert m == short // record_every
    a, b = (np.delete(r.table[:m], runner._REGRET, axis=1) for r in runs)
    assert a.tobytes() == b.tobytes()
    assert runs[0].flags[:m] == runs[1].flags[:m]

    # each row's regret is read at its own round: the cumulative cost less the
    # comparator's cost over the rounds up to it, replayed
    for run in runs:
        x = np.asarray(run.summary["x_star"])
        sc = runner._scenario_for(run.config)
        comparator = np.cumsum([sc.round(t).cost(x)[0]
                                for t in range(1, run.config.horizon + 1)])
        t = run.table[:, runner._T].astype(int)
        np.testing.assert_allclose(run.table[:, runner._REGRET],
                                   run.table[:, runner._COST] - comparator[t - 1],
                                   rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("scenario, predictor", [
    ({"kind": "alternating_linear", "seed": 0}, {"kind": "none"}),
    # the noisy predictor guesses the gradient at the last noted point, so a
    # loop that draws forecasts in another order plays a different run here
    ({"kind": "random_quadratic", "dimension": 2, "constraints": 2, "seed": 4},
     {"kind": "noisy", "level": 0.5, "seed": 3}),
], ids=["alternating_none", "quadratic_noisy"])
def test_summary_consistent_with_rows_and_records(scenario, predictor):
    doc = base_doc(scenario=dict(scenario, horizon=200), predictor=predictor)
    cfg = runner.parse_run_config(doc)
    result = runner.execute_run(cfg)
    s = result.summary
    last = trace_row(result, -1)
    assert last["t"] == 200
    assert last["cum_cost"] == pytest.approx(s["cum_cost"], rel=1e-15)
    # one comparator formula: the summary's regret is the last row's, bit for bit
    assert last["regret"] == s["regret"] == s["cum_cost"] - s["optimal_total_cost"]

    # the same run played again outside the runner, one snapshot per round
    sc = make_scenario(cfg.scenario_kind, horizon=200, dimension=cfg.dimension,
                       constraints=cfg.constraints, seed=cfg.seed)
    learner = make_learner(cfg.learner, sc.domain, sc.dimension, sc.n_constraints)
    predictor = make_predictor(cfg.predictor_kind, bounds=cfg.learner.bounds,
                               domain=sc.domain, dimension=sc.dimension,
                               constraints=sc.n_constraints, level=cfg.predictor_level,
                               seed=cfg.predictor_seed)
    played = play_run(sc, predictor, learner, 200)
    rounds = [r for _, r in played]
    assert learner.cum_cost == s["cum_cost"]
    assert learner.h_cum == s["h_cum"]
    # the comparator's cost round by round, summed directly from the truths
    bcosts = [truth.cost(np.array(s["x_star"]))[0] for truth, _ in played]
    m = compute_metrics([r.f_value for r in rounds],
                        np.array([r.g_values for r in rounds]), bcosts)
    assert result.table[:, 0].tolist() == list(range(1, 201))
    for i in range(200):
        row = trace_row(result, i)
        assert m.cum_cost[i] == pytest.approx(row["cum_cost"], rel=1e-12)
        assert m.regret[i] == pytest.approx(row["regret"], rel=1e-12, abs=1e-12)
        assert m.violation[i] == pytest.approx(row["violation_norm"], rel=1e-12, abs=1e-12)
    assert m.cum_cost[-1] == pytest.approx(s["cum_cost"], rel=1e-12)


def test_run_solves_the_comparator_once(monkeypatch):
    """The adversary's run solves its comparator at the end only, not at each of
    its block ends, which the summary lists."""
    calls = []
    real_solve = analysis.compute_benchmark

    def counted(fold):
        calls.append(fold.t)
        return real_solve(fold)

    monkeypatch.setattr(analysis, "compute_benchmark", counted)
    doc = base_doc(scenario={"kind": "impossibility_adversary", "horizon": 400},
                   benchmark={"kind": "X_T_max"})
    result = runner.execute_run(runner.parse_run_config(doc))
    assert len(result.summary["block_ends"]) > 1
    assert calls == [400]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the penalty fixed point of "
                   "LlpLearner._fixed_point stops at max_iterations far from solved at "
                   "large learner.a, until the exact QP step replaces it")
@pytest.mark.parametrize("a", [1e6, 1e10])
def test_deferred_fixed_point_is_solved_at_large_step_sizes(a):
    doc = base_doc(scenario={"kind": "random_quadratic", "horizon": 60, "dimension": 3,
                             "constraints": 2, "seed": 1},
                   predictor={"kind": "perfect"})
    doc["learner"]["a"] = a
    result = runner.execute_run(runner.parse_run_config(doc))
    assert "primal_solver" not in result.summary["flag_counts"]
    assert result.table[:, runner.TRACE_COLUMNS.index("solver_residual")].max() <= 1e-8


def test_unconverged_primal_solve_is_flagged_in_row_and_summary(monkeypatch):
    """A solver capped at 3 iterations stops one penalty solve short of converging,
    and that round's prescient step still solves for z instead of keeping x."""
    monkeypatch.setattr(learners, "minimize",
                        functools.partial(learners.minimize, max_iterations=3))
    doc = base_doc(scenario={"kind": "random_quadratic", "horizon": 400, "dimension": 5,
                             "constraints": 3, "seed": 3},
                   predictor={"kind": "perfect"})
    result = runner.execute_run(runner.parse_run_config(doc))
    assert [fl for fl in result.flags if fl] == ["primal_solver"]
    assert result.summary["flag_counts"] == {"primal_solver": 1}
    assert result.summary["warning_count"] == 1
    assert result.summary["max_xz"] == 2.1226788355865738


@pytest.mark.parametrize("horizon, beta, every", [(400, 0.5, 1), (173, 0.0, 7)])
@pytest.mark.parametrize("variant, kind", [
    (variant, kind) for variant in ("llp", "llp2", "llp_perturbed")
    for kind in ("alternating_linear", "stochastic_constraint", "impossibility_adversary",
                 "perturbed_linear", "random_quadratic")
    if variant != "llp_perturbed" or kind == "perturbed_linear"])
def test_perfect_forecasts_play_z_at_x(variant, kind, horizon, beta, every):
    """Exact forecasts make every round's mismatch h exactly 0, so each prescient
    point is the played one: max ||x_t - z_t|| is 0, not rounding noise."""
    shape = {"dimension": 3, "constraints": 2} if kind == "random_quadratic" else {}
    doc = base_doc(scenario={"kind": kind, "horizon": horizon, "seed": 3, **shape},
                   predictor={"kind": "perfect"}, output={"record_every": every})
    doc["learner"].update(variant=variant, beta=beta)
    s = runner.execute_run(runner.parse_run_config(doc)).summary
    assert s["h_cum"] == 0.0
    assert s["max_xz"] == 0.0


def test_perfect_prediction_summary():
    doc = base_doc(predictor={"kind": "perfect"})
    doc["scenario"]["horizon"] = 300
    s = runner.execute_run(runner.parse_run_config(doc)).summary
    assert s["warning_count"] == 0
    assert s["max_xz"] <= 1e-8
    assert s["xi_sq_cum"] == 0.0
    assert s["bound_B_T"] == 0.0
    assert s["regret"] <= 300 * (4.0 + 1.05) * 10.0 * 1e-9


def test_perfect_predictions_keep_z_at_x_off_the_box_corners():
    """sigma stays 0 under exact forecasts, so the prescient step is the vertex
    rule; a coordinate of x inside the box, whose slope is rounding noise,
    keeps its value even while another coordinate sits on the boundary."""
    doc = base_doc(scenario={"kind": "random_quadratic", "horizon": 4000, "dimension": 2,
                             "constraints": 1, "seed": 0,
                             "params": {"center_scale": 2.0, "offset_scale": 0.0}},
                   predictor={"kind": "perfect"}, benchmark={"kind": "X_T_max"})
    s = runner.execute_run(runner.parse_run_config(doc)).summary
    assert s["sigma_cum"] == 0.0
    assert s["max_xz"] <= 1e-8
    assert s["bound_B_T"] == 0.0


@pytest.mark.parametrize("predictor", ["none", "perfect"])
def test_round_loop_calls_no_solver_or_checked_set_method(monkeypatch, predictor):
    """In the round loop the lazy learner's steps are exact: no `minimize`, no
    `Box.project` or `Box.argmin_linear`, and its totals are read once per run.
    The greedy baseline's projected step calls no checked `Box` method either."""
    counts = {}  # name -> [calls outside the round loop, calls inside it]
    in_loop = [False]
    for owner, name in ((learners.LlpLearner, "stats"), (learners, "minimize"),
                        (Box, "project"), (Box, "argmin_linear")):

        def counted(*args, _real=getattr(owner, name), _name=name, **kw):
            _count = counts[_name]
            _count[in_loop[0]] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(owner, name, counted)
    real_play_rounds = runner.play_rounds

    def play_rounds(*args):
        in_loop[0] = True
        try:
            yield from real_play_rounds(*args)
        finally:
            in_loop[0] = False

    monkeypatch.setattr(runner, "play_rounds", play_rounds)
    for variant in ("llp", "greedy_baseline"):
        for name in ("stats", "minimize", "project", "argmin_linear"):
            counts[name] = [0, 0]
        doc = base_doc(predictor={"kind": predictor})
        doc["scenario"]["horizon"] = 2000
        doc["learner"]["variant"] = variant
        result = runner.execute_run(runner.parse_run_config(doc))
        assert result.summary["rows_written"] == 2000
        assert counts["project"][0] > 0  # the start point is projected, before the loop
        assert sum(counts["stats"]) == (variant == "llp")
        assert counts["minimize"][1] == counts["project"][1] == counts["argmin_linear"][1] == 0


@pytest.mark.parametrize("variant", ["llp", "llp2", "llp_perturbed", "greedy_baseline"])
def test_bound_column_is_the_running_certificate(variant):
    """The trace's bound_B_t, evaluated once over the column, is bit for bit the
    certificate of the learner's running sums after each round."""
    doc = base_doc(scenario={"kind": "perturbed_linear", "horizon": 300, "seed": 1},
                   predictor={"kind": "noisy", "level": 0.5, "seed": 2})
    doc["learner"]["variant"] = variant
    cfg = runner.parse_run_config(doc)
    column = runner.execute_run(cfg).table[:, runner.TRACE_COLUMNS.index("bound_B_t")]
    sc = make_scenario(cfg.scenario_kind, horizon=300, seed=cfg.seed)
    learner = runner._learner_for(cfg, sc)
    predictor = runner._predictor_for(cfg, sc)
    c = cfg.learner
    running = [0.0 if variant == "greedy_baseline" else analysis.regret_certificate(
        variant, learner.h_cum, c.sigma, c.bounds, sum_a_prev_xi_sq=learner.sum_a_prev_xi_sq,
        mu=learner.mu, xi_sq_sum=learner.xi_sq_cum, horizon=learner.t, a=c.a, beta=c.beta)
        for _ in runner.play_rounds(sc, predictor, learner, 300)]
    assert column.tolist() == running
    assert (column > 0.0).all() if variant != "greedy_baseline" else not column.any()


def test_bound_dispatch_by_variant():
    for variant, scenario, expect in (
        ("llp", "alternating_linear", True),
        ("llp2", "alternating_linear", True),
        ("llp_perturbed", "perturbed_linear", True),
        ("greedy_baseline", "alternating_linear", False),
    ):
        doc = base_doc()
        doc["scenario"] = {"kind": scenario, "horizon": 30, "seed": 0}
        doc["learner"]["variant"] = variant
        result = runner.execute_run(runner.parse_run_config(doc))
        s, last = result.summary, trace_row(result, -1)
        assert (s["bound_B_T"] is not None) is expect
        if expect:
            assert s["bound_V"] >= s["bound_V_z"] - 1e-12
            assert s["bound_B_T"].hex() == last["bound_B_t"].hex()
            assert type(s["bound_clamped"]) is bool
        # the summary's totals are round T's row, bit for bit
        for key, column in (("cum_cost", "cum_cost"), ("violation_norm", "violation_norm"),
                            ("h_cum", "h_cum"), ("sigma_cum", "sigma_cum"), ("a_T", "a_t")):
            assert s[key].hex() == last[column].hex(), (variant, key)


# llp_perturbed needs a fixed base constraint, which only perturbed_linear has
RECORD_RUNS = [(variant, scenario) for variant in ("llp", "llp2", "greedy_baseline")
               for scenario in ({"kind": "alternating_linear"},
                                {"kind": "random_quadratic", "dimension": 3, "constraints": 2})]
RECORD_RUNS.append(("llp_perturbed", {"kind": "perturbed_linear"}))


@pytest.mark.parametrize("comparator", ["X_T", "X_T_max"])
@pytest.mark.parametrize("variant,scenario", RECORD_RUNS,
                         ids=[f"{v}-{s['kind']}" for v, s in RECORD_RUNS])
def test_summary_totals_are_the_last_row(variant, scenario, comparator):
    """The table is the run's one record: it has every `ROW_COLUMNS` column, and
    the summary's totals are its last row's values, bit for bit."""
    doc = base_doc(scenario={**scenario, "horizon": 50, "seed": 3},
                   predictor={"kind": "noisy", "level": 0.5, "seed": 4},
                   benchmark={"kind": comparator}, output={"record_every": 7})
    doc["learner"]["variant"] = variant
    result = runner.execute_run(runner.parse_run_config(doc))
    assert result.table.shape == (8, len(runner.ROW_COLUMNS))
    s, last = result.summary, trace_row(result, -1)
    assert last["t"] == 50.0 and s["benchmark_feasible"]
    for key, column in (("cum_cost", "cum_cost"), ("regret", "regret"),
                        ("violation_norm", "violation_norm"), ("h_cum", "h_cum"),
                        ("xi_sq_cum", "xi_sq_cum"), ("mu", "mu"), ("sigma_cum", "sigma_cum"),
                        ("a_T", "a_t"), ("bound_B_T", "bound_B_t")):
        if key == "bound_B_T" and variant == "greedy_baseline":
            assert s[key] is None and last[column] == 0.0  # the baseline has no certificate
        else:
            assert s[key].hex() == last[column].hex(), (key, s[key], last[column])


def test_write_plot_svg(tmp_path):
    path = str(tmp_path / "chart.svg")
    doc = base_doc()
    doc["scenario"]["horizon"] = 30
    result = runner.execute_run(runner.parse_run_config(doc))
    runner.write_plot(result, path)
    body = Path(path).read_text(encoding="utf-8")
    assert body.startswith("<svg") and "polyline" in body
    ET.fromstring(body)  # well-formed XML


def test_sweep_validation():
    good = {"base": base_doc(), "horizons": [10, 20, 30, 40], "betas": [0.5]}
    runner.parse_sweep_config(good)
    for bad in (
        {**good, "horizons": []},
        {**good, "horizons": [10, 10, 20, 30]},
        {**good, "horizons": [10, -2]},
        {**good, "horizons": [0, 10, 20, 30]},
        {**good, "betas": [1.0]},
        {**good, "betas": []},
        {**good, "repetitions": 0},
        {**good, "surprise": 1},
        {"horizons": [10, 20, 30, 40], "betas": [0.5]},
    ):
        with pytest.raises(ConfigurationError):
            runner.parse_sweep_config(bad)


def test_sweep_cells_and_exponents(tmp_path, monkeypatch):
    monkeypatch.setenv("LAZYOCO_WORKERS", "1")
    out = str(tmp_path / "sw")
    base = base_doc(output={"path": out})
    base["scenario"]["horizon"] = 10
    report = runner.sweep(runner.parse_sweep_config(
        {"base": base, "horizons": [10, 20, 40, 80], "betas": [0.5]}))
    assert len(report["cells"]) == 4
    for key, summary in report["cells"].items():
        assert "error" not in summary, (key, summary)
    fit = report["exponents"]["0.5"]["V_T"]
    assert fit is not None and math.isfinite(fit["exponent"])
    assert (tmp_path / "sw_beta0.5_T20_rep0.csv").exists()
    assert (tmp_path / "sw.sweep.json").exists()


def test_sweep_pool_matches_one_worker(tmp_path, monkeypatch):
    """Parsed cells cross the process boundary and play the runs one worker plays."""
    base = base_doc()
    base["scenario"]["horizon"] = 10
    reports, written = [], []
    for workers in ("1", "2"):
        monkeypatch.setenv("LAZYOCO_WORKERS", workers)
        (tmp_path / workers).mkdir()
        base["output"] = {"path": str(tmp_path / workers / "sw")}
        reports.append(runner.sweep(runner.parse_sweep_config(
            {"base": base, "horizons": [10, 20], "betas": [0.0, 0.5], "repetitions": 2})))
        written.append({p.name: p.read_bytes() for p in (tmp_path / workers).iterdir()})
    assert reports[0]["cells"] == reports[1]["cells"]
    assert len(reports[0]["cells"]) == 8
    assert written[0] == written[1] and len(written[0]) == 17


def test_sweep_pool_opens_no_more_workers_than_cells(monkeypatch):
    """A fork-started pool forks every worker at its first submit, so a sweep
    asks for at most one worker per cell, and one cell plays without a pool.
    The pool here records its size and maps serially: it starts no process."""
    import concurrent.futures

    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv("LAZYOCO_WORKERS", "64")
    base = base_doc()
    base["scenario"]["horizon"] = 10
    for horizons, cells in (([10, 20], 2), ([10], 1)):
        report = runner.sweep(runner.parse_sweep_config(
            {"base": base, "horizons": horizons, "betas": [0.5]}))
        assert len(report["cells"]) == cells
        assert all("error" not in summary for summary in report["cells"].values())
    assert opened == [2]


@pytest.mark.parametrize("key, values", [("betas", [0.5, "0.7"]), ("horizons", [10, "20"])])
def test_cli_rejects_sweep_grid_types(tmp_path, capsys, monkeypatch, key, values):
    # a cell formats beta into its output path, so the types are checked before
    monkeypatch.setenv("LAZYOCO_WORKERS", "1")
    doc = {"base": base_doc(output={"path": str(tmp_path / "sw")}),
           "horizons": [10, 20], "betas": [0.0, 0.5]}
    doc[key] = values
    assert cli.main(["sweep", write_config(tmp_path, "grid.json", doc)]) == 2
    assert f"sweep.{key}" in capsys.readouterr().err
    assert not list(tmp_path.glob("sw*"))


def test_cli_rejects_betas_that_print_alike(tmp_path, capsys, monkeypatch):
    # cells, trace paths and exponents are keyed by beta's :g form, so these
    # betas used to collapse 12 cells into 4 and exit 0
    monkeypatch.setenv("LAZYOCO_WORKERS", "1")
    doc = {"base": base_doc(output={"path": str(tmp_path / "sw")}),
           "horizons": [10, 20, 40, 80], "betas": [0.5, 0.5000001, 0.5]}
    assert cli.main(["sweep", write_config(tmp_path, "grid.json", doc)]) == 2
    assert "sweep.betas 0.5 and 0.5000001 both print as 0.5" in capsys.readouterr().err
    assert not list(tmp_path.glob("sw*"))


def test_cli_rejects_a_beta_that_prints_as_another(tmp_path, capsys, monkeypatch):
    # 0.9999999999999999 prints as 1 under :g, so its cells used to run as
    # beta=1,T=... with traces *_beta1_T*, a beta the learner refuses
    monkeypatch.setenv("LAZYOCO_WORKERS", "1")
    doc = {"base": base_doc(output={"path": str(tmp_path / "sw")}),
           "horizons": [10, 20], "betas": [0.5, 0.9999999999999999]}
    assert cli.main(["sweep", write_config(tmp_path, "grid.json", doc)]) == 2
    assert "sweep.betas 0.9999999999999999 prints as 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("sw*"))
    # betas whose :g form reads back as themselves keep their keys and paths
    doc["betas"] = [0.0, 0.5]
    cells = runner.parse_sweep_config(doc).cells
    assert list(cells) == [f"beta={b},T={h},rep=0" for b in ("0", "0.5") for h in (10, 20)]
    assert cells["beta=0.5,T=20,rep=0"].output.path == str(tmp_path / "sw_beta0.5_T20_rep0.csv")


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("LAZYOCO_WORKERS", "3")
    assert runner.worker_count() == 3
    monkeypatch.setenv("LAZYOCO_WORKERS", "0")
    with pytest.raises(ConfigurationError):
        runner.worker_count()
    monkeypatch.setenv("LAZYOCO_WORKERS", "many")
    with pytest.raises(ConfigurationError):
        runner.worker_count()
    monkeypatch.delenv("LAZYOCO_WORKERS")
    assert runner.worker_count() >= 1


def _compare_csv(tmp_path, record_every):
    out = str(tmp_path / f"cmp{record_every}.csv")
    docs = []
    for variant, pk in (("llp", "none"), ("greedy_baseline", "none"), ("llp", "none")):
        doc = base_doc(predictor={"kind": pk}, output={"record_every": record_every})
        doc["scenario"]["horizon"] = 50
        doc["learner"]["variant"] = variant
        docs.append(runner.parse_run_config(doc))
    return runner.compare(docs, output_path=out), Path(out).read_bytes()


@pytest.mark.parametrize("record_every", [1, 7])
def test_compare_alignment_and_labels(tmp_path, record_every):
    report, payload = _compare_csv(tmp_path, record_every)
    assert report["labels"] == ["llp+none", "greedy_baseline+none", "llp+none_2"]
    lines = payload.decode("utf-8").splitlines()
    assert lines[0].split(",") == ["t"] + [
        f"{col}_{label}" for label in report["labels"]
        for col in ("avg_regret", "violation")]
    assert len(lines) == 51
    for label in report["labels"]:
        assert set(report["terminal"][label]) == {"avg_regret", "violation",
                                                  "avg_violation"}
    # every round is compared, whatever the configs' record_every
    if record_every != 1:
        assert payload == _compare_csv(tmp_path, 1)[1]


def test_compare_refusals():
    a = runner.parse_run_config(base_doc())
    mismatched = base_doc()
    mismatched["scenario"]["horizon"] = 41
    b = runner.parse_run_config(mismatched)
    with pytest.raises(ConfigurationError):
        runner.compare([a, b])

    adaptive = base_doc()
    adaptive["scenario"]["kind"] = "impossibility_adversary"
    adaptive["scenario"]["horizon"] = 40
    c = runner.parse_run_config(adaptive)
    with pytest.raises(ConfigurationError):
        runner.compare([c, c])
    with pytest.raises(ConfigurationError):
        runner.compare([])


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_cli_run_and_exit_codes(tmp_path, capsys):
    doc = base_doc(output={"path": str(tmp_path / "t.csv")})
    doc["scenario"]["horizon"] = 10
    path = write_config(tmp_path, "run.json", doc)
    assert cli.main(["run", path]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted["horizon"] == 10 and "regret" in emitted
    assert (tmp_path / "t.csv").exists()
    assert not (tmp_path / "t.csv.svg").exists()
    assert cli.main(["run", path, "--plot"]) == 0
    assert json.loads(capsys.readouterr().out) == emitted
    body = (tmp_path / "t.csv.svg").read_text(encoding="utf-8")
    assert body.startswith("<svg") and "polyline" in body
    ET.fromstring(body)

    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2

    unknown = copy.deepcopy(doc)
    unknown["scenario"]["speed"] = 11
    assert cli.main(["run", write_config(tmp_path, "unk.json", unknown)]) == 2

    doomed = copy.deepcopy(doc)
    doomed["output"]["path"] = str(tmp_path / "no_such_dir" / "t.csv")
    assert cli.main(["run", write_config(tmp_path, "doomed.json", doomed)]) == 3


def test_cli_plot_of_a_one_round_run(tmp_path, capsys):
    """A T = 1 trace has one row, so the t axis gets a unit span: each series is
    one point at the axis' left end, drawn as a circle, since a one-point
    polyline has no length and SVG paints nothing for it."""
    doc = base_doc(output={"path": str(tmp_path / "t.csv")})
    doc["scenario"]["horizon"] = 1
    assert cli.main(["run", write_config(tmp_path, "one.json", doc), "--plot"]) == 0
    svg = ET.fromstring((tmp_path / "t.csv.svg").read_text(encoding="utf-8"))
    assert svg.findall("{http://www.w3.org/2000/svg}polyline") == []
    dots = svg.findall("{http://www.w3.org/2000/svg}circle")
    assert [dot.get("fill") for dot in dots] == ["#c0392b", "#2c6fbb"]
    for dot in dots:
        assert dot.get("cx") == "56.00" and dot.get("r") == "3"
        assert math.isfinite(float(dot.get("cy")))


def test_cli_plot_without_output_path_is_refused(tmp_path, capsys, monkeypatch):
    """`--plot` draws next to the trace, so a config without `output.path` is
    refused before the run starts instead of exiting 0 with nothing written."""
    doc = base_doc()
    doc["scenario"]["horizon"] = 20
    path = write_config(tmp_path, "run.json", doc)
    monkeypatch.setattr(runner, "execute_run", lambda config: pytest.fail("the run started"))
    assert cli.main(["run", path, "--plot"]) == 2
    assert "output.path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_cli_refuses_an_empty_output_path(tmp_path, capsys, monkeypatch, command):
    """An empty `output.path` names no file, so it is refused at parse, before a
    round is played: `run` and `sweep` used to play every round and then fail
    to open '' (exit 3), and `compare` wrote no CSV and exited 0."""
    monkeypatch.setenv("LAZYOCO_WORKERS", "1")
    doc = base_doc(output={"path": ""})
    doc["scenario"]["horizon"] = 10
    if command == "sweep":
        doc = {"base": doc, "horizons": [10, 20], "betas": [0.5]}
    path = write_config(tmp_path, "config.json", doc)
    monkeypatch.setattr(runner, "execute_run", lambda config: pytest.fail("a run started"))
    assert cli.main([command, path] + ([path] if command == "compare" else [])) == 2
    assert "output.path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_compare_refuses_an_empty_output_option(tmp_path, capsys, monkeypatch):
    """`compare -o ""` names no file: it is refused before a config runs, where
    it used to exit 0 with no CSV written and `"path": ""` reported."""
    doc = base_doc(output={"path": str(tmp_path / "t.csv")})
    doc["scenario"]["horizon"] = 10
    path = write_config(tmp_path, "config.json", doc)
    monkeypatch.setattr(runner, "execute_run", lambda config: pytest.fail("a run started"))
    assert cli.main(["compare", path, path, "-o", ""]) == 2
    assert "-o/--output" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_retired_linearized_variant_is_refused(tmp_path, capsys):
    """`llp_linearized` was `llp` on affine constraints; the refusal names `llp`."""
    doc = base_doc(output={"path": str(tmp_path / "t.csv")})
    doc["learner"]["variant"] = "llp_linearized"
    with pytest.raises(ConfigurationError, match="use 'llp'"):
        runner.parse_run_config(doc)
    assert cli.main(["run", write_config(tmp_path, "retired.json", doc)]) == 2
    assert "use 'llp'" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("key, mutate", [
    ("predictor.level", lambda d: d["predictor"].update(level=math.nan)),
    ("learner.sigma", lambda d: d["learner"].update(sigma=math.inf)),
    ("learner.x0", lambda d: d["learner"].update(x0=[-math.inf])),
    # an integer beyond the float range, and a value or section that is missing or no number
    pytest.param("learner.a", lambda d: d["learner"].update(a=10**400), id="learner.a-10**400"),
    pytest.param("learner.sigma", lambda d: d["learner"].pop("sigma"), id="learner.sigma-missing"),
    pytest.param("predictor", lambda d: d.update(predictor=[]), id="predictor-list"),
])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, key, mutate):
    # json.load accepts NaN and Infinity, so the parser has to refuse them
    doc = base_doc(predictor={"kind": "noisy", "level": 0.3},
                   output={"path": str(tmp_path / "t.csv")})
    mutate(doc)
    assert cli.main(["run", write_config(tmp_path, "nonfinite.json", doc)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("kind, variant, bounds, message", [
    ("alternating_linear", "llp", {"G": 1e160}, "G = 1e+160"),
    ("alternating_linear", "llp", {"D": 1e200}, "D = 1e+200"),
    ("perturbed_linear", "llp_perturbed", {"G": 1e200}, "G = 1e+200"),
    # no formula read the bound F on |f_t|, so it is no longer a key
    ("alternating_linear", "llp", {"F": 4.0}, "unknown learner.bounds keys: F"),
])
def test_cli_rejects_overflowing_bound_overrides(tmp_path, capsys, kind, variant, bounds,
                                                 message):
    # 4 G^2 overflowing made the step size 0 and D^2 overflowing made a certificate inf:
    # both crashed the run after it had started
    doc = base_doc(scenario={"kind": kind, "horizon": 10},
                   predictor={"kind": "noisy", "level": 0.3},
                   output={"path": str(tmp_path / "t.csv")})
    doc["learner"].update(variant=variant, bounds=bounds)
    assert cli.main(["run", write_config(tmp_path, "bounds.json", doc)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("t.csv*"))


@pytest.mark.parametrize("level, code", [(1e150, 0), (1e154, 2), (1e308, 2)])
def test_cli_refuses_a_noisy_level_whose_forecast_overflows(tmp_path, capsys, level, code):
    # from about 1e154 / L_f the forecast's norm overflowed in its clip and the cost
    # forecast became 0 without a word; at 1e308 the run exited 3 on a NaN h_cum
    doc = base_doc(scenario={"kind": "random_quadratic", "horizon": 10, "dimension": 3,
                             "constraints": 2, "seed": 3},
                   predictor={"kind": "noisy", "level": level, "seed": 4},
                   output={"path": str(tmp_path / "t.csv")})
    assert cli.main(["run", write_config(tmp_path, "level.json", doc)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert "predictor.level" in err and not list(tmp_path.glob("t.csv*"))
    else:
        summary = json.loads(out)
        assert err == "" and all(math.isfinite(summary[key]) for key in (
            "cum_cost", "regret", "h_cum", "violation_norm"))


@pytest.mark.parametrize("L_f, code", [(1.34e154, 0), (1.35e154, 2), (1e160, 2)])
@pytest.mark.parametrize("kind", ["alternating_linear", "stochastic_constraint",
                                  "impossibility_adversary", "perturbed_linear",
                                  "random_quadratic"])
def test_cli_refuses_an_adversarial_L_f_whose_square_overflows(tmp_path, capsys, kind, L_f,
                                                                code):
    # the adversarial cost forecast has norm L_f; from 1.35e154 its square
    # overflowed in round 1 and the run exited 3 on a NaN a_t, not naming L_f
    shape = {"dimension": 3, "constraints": 2} if kind == "random_quadratic" else {}
    doc = base_doc(scenario={"kind": kind, "horizon": 60, "seed": 3, **shape},
                   predictor={"kind": "adversarial"},
                   output={"path": str(tmp_path / "t.csv")})
    doc["learner"]["bounds"] = {"L_f": L_f}
    assert cli.main(["run", write_config(tmp_path, "lf.json", doc)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert "learner.bounds.L_f" in err and not list(tmp_path.glob("t.csv*"))
    else:
        summary = json.loads(out)
        assert err == "" and all(math.isfinite(summary[key]) for key in (
            "cum_cost", "regret", "h_cum", "violation_norm"))


@pytest.mark.parametrize("kind, section, seed, message", [
    ("random_quadratic", "scenario", -1, "scenario seed"),
    ("alternating_linear", "predictor", -3, "predictor seed"),
])
def test_cli_rejects_negative_seeds(tmp_path, capsys, kind, section, seed, message):
    # numpy refused them with a ValueError once the run had started: exit 3
    n = 2 if kind == "random_quadratic" else 1
    doc = base_doc(scenario={"kind": kind, "horizon": 10, "dimension": n, "constraints": n},
                   predictor={"kind": "noisy", "level": 0.3},
                   output={"path": str(tmp_path / "t.csv")})
    doc[section]["seed"] = seed
    assert cli.main(["run", write_config(tmp_path, "seed.json", doc)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("t.csv*"))


def run_cli(*args, env=None):
    """`python -m lazyoco ARGS` in a fresh interpreter, so stderr holds whatever numpy
    would print there (pytest records warnings raised in-process instead)."""
    src = str(Path(lazyoco.__file__).resolve().parent.parent)
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "lazyoco", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_names_the_first_total_that_overflows(tmp_path):
    # a = 1e300 passes the parser; its step sizes overflow the multiplier in
    # round 2, and the run used to end with exit 0 and null summary fields,
    # then with numpy's RuntimeWarnings printed before the failure line
    doc = base_doc(scenario={"kind": "alternating_linear", "horizon": 50},
                   predictor={"kind": "noisy", "level": 0.3},
                   output={"path": str(tmp_path / "t.csv")})
    doc["learner"]["a"] = 1e300
    proc = run_cli("run", write_config(tmp_path, "a.json", doc))
    assert proc.returncode == 3
    assert proc.stderr == ("failure: FloatingPointError: round 2: lambda_norm is inf, "
                           "not a finite number\n")
    assert not list(tmp_path.glob("t.csv*"))


@pytest.mark.parametrize("kind, param, value", [
    ("random_quadratic", "matrix_scale", 1e300),
    ("random_quadratic", "center_scale", -1.0),
    ("random_quadratic", "matrix_scale", "abc"),
    ("random_quadratic", "offset_scale", True),
    ("perturbed_linear", "amplitude", math.nan),
    ("perturbed_linear", "amplitude", "abc"),
    ("alternating_linear", "foo", 1),
    ("stochastic_constraint", "foo", 1),
    ("impossibility_adversary", "foo", 1),
])
def test_cli_rejects_bad_scenario_params(tmp_path, capsys, kind, param, value):
    n = 2 if kind == "random_quadratic" else 1
    doc = base_doc(scenario={"kind": kind, "horizon": 10, "dimension": n,
                             "constraints": n, "params": {param: value}},
                   output={"path": str(tmp_path / "t.csv")})
    assert cli.main(["run", write_config(tmp_path, "params.json", doc)]) == 2
    assert param in capsys.readouterr().err


# horizons within, at and past the 256-round blocks both commands fold
@pytest.mark.parametrize("scenario, comparator", [
    ({"kind": "alternating_linear", "horizon": 50}, "X_T"),
    ({"kind": "stochastic_constraint", "horizon": 513, "seed": 3}, "X_T"),
    ({"kind": "perturbed_linear", "horizon": 600, "seed": 2}, "X_T_max"),
    ({"kind": "random_quadratic", "horizon": 600, "dimension": 3, "constraints": 2,
      "seed": 4}, "X_T"),
    ({"kind": "random_quadratic", "horizon": 600, "dimension": 2, "constraints": 3,
      "seed": 1}, "X_T_max"),
    ({"kind": "alternating_linear", "horizon": 600}, "X_T_max"),
    ({"kind": "random_quadratic", "horizon": 256, "dimension": 2, "constraints": 3,
      "seed": 1}, "X_T_max"),
], ids=["alternating", "stochastic", "perturbed_max", "quadratic", "quadratic_max",
        "alternating_max", "quadratic_max_one_block"])
def test_cli_bench_matches_run_summary(tmp_path, capsys, scenario, comparator):
    """`bench` folds a fresh scenario and gets the comparator `run` reports, bit for bit."""
    doc = base_doc(scenario=scenario, benchmark={"kind": comparator},
                   predictor={"kind": "noisy", "level": 0.3, "seed": 5})
    path = write_config(tmp_path, "c.json", doc)
    assert cli.main(["bench", path]) == 0
    bench = json.loads(capsys.readouterr().out)
    assert cli.main(["run", path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert bench["feasible"] is True and summary["benchmark_feasible"] is True
    assert len(bench["x_star"]) == scenario.get("dimension", 1)
    assert bench["x_star"] == summary["x_star"]
    assert bench["optimal_total_cost"] == summary["optimal_total_cost"]
    assert bench["gap"] == summary["benchmark_gap"]


def test_cli_bench_and_compare(tmp_path, capsys):
    doc = base_doc()
    doc["scenario"]["horizon"] = 10
    path = write_config(tmp_path, "b.json", doc)
    assert cli.main(["bench", path]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted["feasible"] is True

    adaptive = base_doc()
    adaptive["scenario"] = {"kind": "impossibility_adversary", "horizon": 10}
    assert cli.main(["bench", write_config(tmp_path, "adv.json", adaptive)]) == 2

    other = copy.deepcopy(doc)
    other["learner"]["variant"] = "greedy_baseline"
    out = str(tmp_path / "cmp.csv")
    code = cli.main(["compare", path, write_config(tmp_path, "g.json", other),
                     "-o", out])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["labels"] == ["llp+none",
                                                             "greedy_baseline+none"]
    # without -o the comparison goes next to the first config's trace
    traced = copy.deepcopy(doc)
    traced["output"]["path"] = str(tmp_path / "first.csv")
    assert cli.main(["compare", write_config(tmp_path, "traced.json", traced),
                     write_config(tmp_path, "g.json", other)]) == 0
    default = tmp_path / "first.csv.compare.csv"
    assert json.loads(capsys.readouterr().out)["path"] == str(default)
    assert default.read_bytes() == Path(out).read_bytes()

    mismatch = copy.deepcopy(doc)
    mismatch["scenario"]["horizon"] = 11
    assert cli.main(["compare", path,
                     write_config(tmp_path, "m.json", mismatch)]) == 2


def test_cli_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAZYOCO_WORKERS", "1")
    doc = {"base": base_doc(), "horizons": [10, 20, 40, 80], "betas": [0.0, 0.5]}
    doc["base"]["scenario"]["horizon"] = 10
    path = write_config(tmp_path, "sweep.json", doc)
    assert cli.main(["sweep", path]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted["cells"] == 8
    assert emitted["failed_cells"] == []
    assert set(emitted["exponents"]) == {"0", "0.5"}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("section, value, message", [
    ("learner", {"variant": "llp_perturbed"}, "base constraint"),
    ("learner", {"x0": [0.0, 0.0]}, "x0 must have shape"),
    ("learner", {"x0": [2.0]}, "x0 lies outside"),
    ("learner", {"variant": "greedy_baseline", "x0": [0.0, 0.0]}, "x0 must have shape"),
    ("predictor", {"kind": "noisy", "level": -0.5}, "noise level"),
    ("scenario", {"params": [0.1]}, "params must be a JSON object"),
    ("scenario", {"kind": "random_quadratic", "dimension": 0}, "dimension"),
    ("scenario", {"kind": "perturbed_linear", "params": {"amplitude": -1.0}}, "amplitude"),
    ("scenario", {"kind": "random_quadratic", "params": {"matrix_scale": 0.0}}, "matrix_scale"),
    ("scenario", {"kind": "random_quadratic", "params": {"center_scale": 1e155}},
     "center_scale"),
    # certificate constants that overflow at round 1, whatever the data
    ("learner", {"sigma": 1e-309}, "learner.sigma = 1e-309 and learner.a = 1"),
    ("learner", {"sigma": 1e308}, "learner.sigma = 1e+308 and learner.a = 1"),
    ("learner", {"variant": "llp2", "sigma": 1e308}, "learner.sigma = 1e+308"),
    ("perturbed_linear learner", {"variant": "llp_perturbed", "sigma": 1e308},
     "learner.sigma = 1e+308"),
    ("perturbed_linear learner", {"variant": "llp_perturbed", "a": 1e308},
     "learner.a = 1e+308"),
])
def test_cli_rejects_configs_the_run_refuses(tmp_path, capsys, monkeypatch, command,
                                             section, value, message):
    # these used to pass the parser, so a sweep ran every cell into the same failure
    monkeypatch.setenv("LAZYOCO_WORKERS", "1")
    doc = base_doc(output={"path": str(tmp_path / "t.csv")})
    doc["scenario"]["horizon"] = 10
    if section == "perturbed_linear learner":  # llp_perturbed needs its base constraint
        section, doc["scenario"]["kind"] = "learner", "perturbed_linear"
    doc[section].update(value)
    if command == "sweep":
        doc = {"base": doc, "horizons": [10, 20], "betas": [0.0, 0.5]}
    assert cli.main([command, write_config(tmp_path, "cfg.json", doc)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("t.csv*"))


def test_cli_sweep_reports_failed_cells(tmp_path):
    """A sweep whose longer cells overflow exits 3 and names them; the others still
    run as they would alone, and no numpy warning comes before the report."""
    base = base_doc(predictor={"kind": "adversarial"},
                    output={"path": str(tmp_path / "sw")})
    base["learner"]["a"] = 1e300
    path = write_config(tmp_path, "sweep.json",
                        {"base": base, "horizons": [1, 2, 50, 60], "betas": [0.5]})
    proc = run_cli("sweep", path, env={"LAZYOCO_WORKERS": "1"})
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["failed_cells"] == ["beta=0.5,T=50,rep=0",
                                                       "beta=0.5,T=60,rep=0"]
    cells = json.loads((tmp_path / "sw.sweep.json").read_text(encoding="utf-8"))["cells"]
    for horizon in (50, 60):
        assert cells[f"beta=0.5,T={horizon},rep=0"] == {
            "error": "FloatingPointError: round 3: lambda_norm is inf, not a finite number"}
    for horizon in (1, 2):
        config = runner._derive_cell(runner.parse_run_config(base), 0.5, horizon, 0)
        alone = runner.execute_run(config)
        assert cells[f"beta=0.5,T={horizon},rep=0"] == json.loads(json.dumps(alone.summary))
        runner.write_trace(alone, str(tmp_path / "alone.csv"))
        assert (Path(config.output.path).read_bytes()
                == (tmp_path / "alone.csv").read_bytes())

