"""End-to-end acceptance gate.

Each test covers one published acceptance criterion at its stated
tolerance and time budget, prints one PASS/FAIL line on the real stdout,
and then asserts.  Expensive run batches are shared through module-scoped
fixtures; the fixture build time is charged to the criterion that owns
the batch.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from lazyoco import runner
from lazyoco.analysis import (ComparatorFold, compute_benchmark, fit_growth_exponent,
                               regret_certificate)
from lazyoco.solver import dual_step, minimize

import helpers
from helpers import dual_grid_argmax, grid_min_1d_vec, refine_min_2d_vec
from test_solver import random_instance

SOLVER_TOL = 1e-9
HORIZONS = (100, 1_000, 10_000, 100_000)


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    helpers.ACCEPTANCE_LINES.append(line)
    return line


def run_config(scenario, horizon, variant="llp", predictor="none", sigma=1.0,
               a=1.0, beta=0.5, seed=0, predictor_seed=0, level=0.1,
               dimension=1, constraints=1, benchmark="X_T", record_every=1):
    return runner.parse_run_config({
        "scenario": {"kind": scenario, "horizon": int(horizon),
                     "dimension": dimension, "constraints": constraints,
                     "seed": seed},
        "learner": {"variant": variant, "sigma": sigma, "a": a, "beta": beta},
        "predictor": {"kind": predictor, "level": level, "seed": predictor_seed},
        "benchmark": {"kind": benchmark},
        "output": {"record_every": int(record_every)},
    })


@pytest.fixture(scope="module")
def bounded_runs():
    """Twenty randomized bounded-regret runs shared by criteria 1 and 4."""
    rng = np.random.default_rng(20260816)
    runs = []
    start = time.monotonic()
    for _ in range(20):
        scenario = ("alternating_linear", "random_quadratic")[int(rng.integers(0, 2))]
        predictor = ("none", "noisy", "perfect")[int(rng.integers(0, 3))]
        quad = scenario == "random_quadratic"
        cfg = run_config(
            scenario, 2000, predictor=predictor,
            sigma=float(rng.uniform(0.5, 2.0)), a=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.choice([0.0, 0.25, 0.5])),
            seed=int(rng.integers(0, 1000)),
            predictor_seed=int(rng.integers(0, 1000)),
            level=float(rng.uniform(0.1, 1.0)),
            dimension=int(rng.integers(1, 4)) if quad else 1,
            constraints=int(rng.integers(1, 4)) if quad else 1,
            record_every=100)
        runs.append((cfg, runner.execute_run(cfg)))
    return runs, time.monotonic() - start


def test_criterion_01_regret_and_violation_bounds(bounded_runs):
    runs, elapsed = bounded_runs
    bad = []
    for cfg, res in runs:
        s = res.summary
        b = cfg.learner.bounds
        slack = cfg.horizon * (b.L_f + b.G) * 10.0 * SOLVER_TOL
        if not s["benchmark_feasible"]:
            bad.append((s["scenario"], s["predictor"], "infeasible benchmark"))
            continue
        if not (s["regret"] <= s["bound_B_T"] + slack
                and s["violation_norm"] <= s["bound_V"] + slack):
            bad.append((s["scenario"], s["predictor"], s["regret"], s["bound_B_T"],
                        s["violation_norm"], s["bound_V"]))
    ok = not bad and elapsed < 120.0
    line = _verdict(1, ok, f"{len(runs) - len(bad)}/{len(runs)} runs within "
                           f"bounds, {elapsed:.1f}s")
    assert ok, (line, bad)


def test_criterion_02_perfect_predictions_recover_optimal():
    start = time.monotonic()
    cfg = run_config("alternating_linear", 10_000, predictor="perfect", beta=0.0,
                     record_every=500)
    s = runner.execute_run(cfg).summary
    elapsed = time.monotonic() - start
    ok = s["regret"] <= 1e-3 and s["max_xz"] <= 1e-7 and elapsed < 30.0
    line = _verdict(2, ok, f"R_T={s['regret']:.3g}, max||x-z||={s['max_xz']:.3g}, "
                           f"{elapsed:.1f}s")
    assert ok, line


def _horizon_sweep(variant):
    out = {}
    start = time.monotonic()
    for T in HORIZONS:
        cfg = run_config("alternating_linear", T, variant=variant,
                         record_every=max(1, T // 50))
        out[T] = runner.execute_run(cfg)
    return out, time.monotonic() - start


@pytest.fixture(scope="module")
def llp_sweep():
    return _horizon_sweep("llp")


@pytest.fixture(scope="module")
def llp2_sweep():
    return _horizon_sweep("llp2")


def test_criterion_03_growth_exponents_without_predictions(llp_sweep):
    results, elapsed = llp_sweep
    v_fit = fit_growth_exponent(
        [(T, results[T].summary["violation_norm"]) for T in HORIZONS])
    r_fit = fit_growth_exponent(
        [(T, max(results[T].summary["regret"], 1.0)) for T in HORIZONS])
    ok = v_fit.exponent <= 0.75 + 0.10 and r_fit.exponent <= 0.625 + 0.15 \
        and elapsed < 300.0
    line = _verdict(3, ok, f"V_T exponent {v_fit.exponent:.3f} <= 0.85, "
                           f"R_T exponent {r_fit.exponent:.3f} <= 0.775, "
                           f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_04_per_round_lazy_drift(bounded_runs):
    runs, _ = bounded_runs
    checked, violations = 0, 0
    for _, res in runs:
        # drift_gap is max_t ||x_t - z_t|| - h_t / sigma_{1:t} over the rounds
        # with sigma_{1:t} > 0, null when there are none
        gap = res.summary["drift_gap"]
        if gap is None:
            continue
        checked += 1
        if gap > 10.0 * SOLVER_TOL:
            violations += 1
    ok = violations == 0 and checked > 0
    line = _verdict(4, ok, f"{checked} runs with sigma_(1:t) > 0, {violations} violations")
    assert ok, line


def test_criterion_05_dual_update_closed_form():
    start = time.monotonic()
    rng = np.random.default_rng(55_055)
    worst = 0.0
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        a_t = float(rng.uniform(0.05, 1.0))
        cumulative = rng.uniform(-1.5, 1.5, size=d)
        predicted = rng.uniform(-1.5, 1.5, size=d)
        lam = dual_step(a_t, cumulative, predicted)
        ref = dual_grid_argmax(a_t, cumulative + predicted, resolution=1e-3)
        worst = max(worst, float(np.linalg.norm(lam - ref)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and elapsed < 5.0
    line = _verdict(5, ok, f"100 instances, max gap {worst:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_06_primal_solver_against_grid():
    start = time.monotonic()
    rng = np.random.default_rng(66_066)
    worst, nonsmooth_seen = 0.0, 0
    for i in range(100):
        n = 1 if i % 2 == 0 else 2
        obj, values = random_instance(rng, n)
        if obj.constraint_terms[0][1] is None:
            nonsmooth_seen += 1
        res = minimize(obj)
        if n == 1:
            ref = np.array([grid_min_1d_vec(lambda xs: values(xs[:, None]),
                                            -1.0, 1.0, 1e-4)])
        else:
            ref = refine_min_2d_vec(values, [-1.0, -1.0], [1.0, 1.0],
                                    coarse_count=401, fine_step=1e-4)
        worst = max(worst, float(np.linalg.norm(res.x - ref)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and nonsmooth_seen >= 1 and elapsed < 30.0
    line = _verdict(6, ok, f"100 objectives ({nonsmooth_seen} nonsmooth), "
                           f"max gap {worst:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_07_linear_lower_bound_without_predictions():
    start = time.monotonic()
    cfg = run_config("impossibility_adversary", 10_000, benchmark="X_T_max",
                     record_every=1)
    res = runner.execute_run(cfg)
    block_ends = res.summary["block_ends"]
    # the comparator at each block end: the run played again, its fold solved
    # as the scenario emits each block end
    sc = runner._scenario_for(cfg)
    fold = ComparatorFold(sc.domain, cfg.benchmark_kind)
    prefix = {}
    for truth, _ in runner.play_rounds(sc, runner._predictor_for(cfg, sc),
                                       runner._learner_for(cfg, sc), cfg.horizon):
        fold.add([truth])
        if sc.block_ends and sc.block_ends[-1] == fold.t:
            prefix[fold.t] = compute_benchmark(fold)
    assert list(prefix) == block_ends

    failures = []
    best_ratio = 0.0
    for t in block_ends:
        assert prefix[t].feasible
        row = helpers.trace_row(res, t - 1)
        r_t = row["cum_cost"] - prefix[t].optimal_total_cost
        v_t = row["violation_norm"]  # one constraint: max(sum g, 0)
        if max(r_t, v_t) < t / 8.0 - 10.0:
            failures.append((t, r_t, v_t))
        best_ratio = max(best_ratio, r_t / t, v_t / t)
    elapsed = time.monotonic() - start
    ok = bool(block_ends) and not failures and best_ratio >= 0.1 \
        and elapsed < 60.0
    line = _verdict(7, ok, f"{len(block_ends)} block ends, "
                           f"max rate {best_ratio:.3f} >= 0.1, {elapsed:.1f}s")
    assert ok, (line, failures[:3])


def test_criterion_08_fixed_constraint_perturbed_variant():
    start = time.monotonic()
    cfg = run_config("perturbed_linear", 10_000, variant="llp_perturbed",
                     predictor="perfect", record_every=500)
    s = runner.execute_run(cfg).summary
    perfect_ok = s["regret"] <= 1e-3

    v_samples = []
    for T in HORIZONS:
        cfg = run_config("perturbed_linear", T, variant="llp_perturbed",
                         record_every=max(1, T // 50))
        v_samples.append(
            (T, runner.execute_run(cfg).summary["violation_norm"]))
    fit = fit_growth_exponent(v_samples)
    elapsed = time.monotonic() - start
    ok = perfect_ok and fit.exponent <= 0.625 + 0.10 and elapsed < 300.0
    line = _verdict(8, ok, f"perfect R_T={s['regret']:.3g} <= 1e-3, "
                           f"V_T exponent {fit.exponent:.3f} <= 0.725, "
                           f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_09_nonproximal_variant(llp_sweep, llp2_sweep):
    llp_results, _ = llp_sweep
    llp2_results, elapsed = llp2_sweep

    dominated = True
    for T in HORIZONS:
        res = llp2_results[T]
        s = res.summary
        plain = regret_certificate("llp", s["h_cum"], res.config.learner.sigma,
                                   res.config.learner.bounds,
                                   sum_a_prev_xi_sq=res.totals.sum_a_prev_xi_sq)
        if not s["bound_B_T"] >= plain:
            dominated = False

    v1 = fit_growth_exponent(
        [(T, llp_results[T].summary["violation_norm"]) for T in HORIZONS])
    v2 = fit_growth_exponent(
        [(T, llp2_results[T].summary["violation_norm"]) for T in HORIZONS])
    gap = abs(v2.exponent - v1.exponent)
    ok = dominated and gap <= 0.1 and elapsed < 300.0
    line = _verdict(9, ok, f"inflated bound dominates on 4/4 runs, "
                           f"|exponent gap|={gap:.3f} <= 0.1, {elapsed:.1f}s")
    assert ok, line


def test_criterion_10_comparison_tables(tmp_path):
    start = time.monotonic()

    def trio(scenario, horizon, a, beta):
        out = []
        for variant, pk in (("llp", "none"), ("llp", "perfect_gradients"),
                            ("greedy_baseline", "none")):
            out.append(run_config(scenario, horizon, variant=variant, predictor=pk,
                                  a=a if variant != "greedy_baseline" else 1.0,
                                  beta=beta, record_every=max(1, horizon // 50)))
        return out

    alt_csv = tmp_path / "alternating.compare.csv"
    sto_csv = tmp_path / "stochastic.compare.csv"
    alt = runner.compare(trio("alternating_linear", 2000, a=1.0, beta=0.5),
                         output_path=str(alt_csv))
    sto = runner.compare(trio("stochastic_constraint", 10_000, a=100.0, beta=0.0),
                         output_path=str(sto_csv))
    elapsed = time.monotonic() - start

    emitted = alt_csv.exists() and sto_csv.exists()
    sto_viol = max(sto["terminal"]["llp+none"]["avg_violation"],
                   sto["terminal"]["llp+perfect_gradients"]["avg_violation"])
    regret_edge = (alt["terminal"]["llp+perfect_gradients"]["avg_regret"]
                   < alt["terminal"]["greedy_baseline+none"]["avg_regret"])
    ok = emitted and sto_viol <= 1e-2 and regret_edge and elapsed < 120.0
    line = _verdict(10, ok, f"csv files emitted, stochastic avg violation "
                            f"{sto_viol:.2e} <= 1e-2, prediction beats greedy "
                            f"on regret: {regret_edge}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    docs = {
        "quadratic": {
            "scenario": {"kind": "random_quadratic", "horizon": 800,
                         "dimension": 2, "constraints": 2, "seed": 5},
            "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
            "predictor": {"kind": "noisy", "level": 0.5, "seed": 6},
        },
        "perturbed": {
            "scenario": {"kind": "perturbed_linear", "horizon": 500, "seed": 2},
            "learner": {"variant": "llp_perturbed", "sigma": 1.0, "a": 1.0,
                        "beta": 0.5},
        },
    }
    mismatches = []
    for name, doc in docs.items():
        payloads = []
        for attempt in ("first", "second"):
            path = str(tmp_path / f"{name}.{attempt}.csv")
            doc_run = {**doc, "output": {"path": path}}
            cfg = runner.parse_run_config(doc_run)
            runner.write_trace(runner.execute_run(cfg))
            payloads.append((Path(path).read_bytes(),
                             Path(path + ".summary.json").read_bytes()))
        if payloads[0] != payloads[1]:
            mismatches.append(name)
    ok = not mismatches
    line = _verdict(11, ok, f"{len(docs)} configs re-run, "
                            f"mismatches: {mismatches or 'none'}")
    assert ok, line
