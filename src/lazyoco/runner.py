"""Run orchestration: config files, the round loop, traces, sweeps, comparisons.

Configs are single JSON documents with a fixed key structure; unknown or
malformed keys are hard errors rather than silently ignored, since a
misspelled knob would otherwise change the experiment.  Every run is a
pure function of its config: scenarios, predictors and benchmarks draw
all randomness from seeded generators, trace floats are printed at 17
significant digits, and nothing time- or host-dependent is written.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from . import analysis
from .learners import LearnerConfig, LearnerTotals, RoundRecord, VARIANTS, make_learner
from .predictors import PREDICTOR_KINDS, make_predictor
from .problems import SCENARIO_KINDS, RoundOracle, finite_number, make_scenario
from .sets import ConfigurationError, norm
from .solver import SolverSettings

__all__ = [
    "RunConfig",
    "SweepConfig",
    "parse_run_config",
    "parse_sweep_config",
    "load_json",
    "play_rounds",
    "execute_run",
    "RunResult",
    "TraceRow",
    "write_trace",
    "write_plot",
    "run_command",
    "sweep",
    "compare",
    "bench",
]


class TraceRow(NamedTuple):
    """One trace line: the round's own values and the learner's totals after it."""

    t: int
    f_value: float
    cum_cost: float
    regret: float
    violation_norm: float
    lambda_norm: float
    a_t: float
    sigma_cum: float
    h_cum: float
    xi_t: float
    bound_B_t: float
    solver_residual: float
    flags: str


TRACE_COLUMNS = TraceRow._fields

_TOP_KEYS = {"scenario", "learner", "predictor", "benchmark", "output"}
_SCENARIO_KEYS = {"kind", "horizon", "dimension", "constraints", "seed", "params"}
_LEARNER_KEYS = {"variant", "sigma", "a", "beta", "bounds", "x0", "solver"}
_BOUNDS_KEYS = {"L_f", "L_g", "G", "D", "F", "E_m", "Delta_m"}
_SOLVER_KEYS = {"tolerance", "max_iterations"}
_PREDICTOR_KEYS = {"kind", "level", "seed"}
_BENCHMARK_KEYS = {"kind"}
_OUTPUT_KEYS = {"path", "format", "record_every"}
_SWEEP_KEYS = {"base", "horizons", "betas", "repetitions"}


# -- config parsing -----------------------------------------------------------


def _mapping(doc, name: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{name} must be a JSON object")
    return doc


def _check_keys(doc: dict, allowed: set, name: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {', '.join(unknown)}")


def _number(doc: dict, key: str, name: str, default=None, required=False):
    if key not in doc:
        if required:
            raise ConfigurationError(f"{name}.{key} is required")
        return default
    v = doc[key]
    if not finite_number(v):
        raise ConfigurationError(f"{name}.{key} must be a finite number")
    return float(v)


def _integer(doc: dict, key: str, name: str, default=None, required=False):
    if key not in doc:
        if required:
            raise ConfigurationError(f"{name}.{key} is required")
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"{name}.{key} must be an integer")
    return int(v)


def _string(doc: dict, key: str, name: str, default=None, required=False):
    if key not in doc:
        if required:
            raise ConfigurationError(f"{name}.{key} is required")
        return default
    v = doc[key]
    if not isinstance(v, str):
        raise ConfigurationError(f"{name}.{key} must be a string")
    return v


@dataclass
class OutputSpec:
    path: str | None = None
    format: str = "csv"
    record_every: int = 1


@dataclass
class RunConfig:
    scenario_kind: str
    horizon: int
    dimension: int
    constraints: int
    seed: int
    params: dict
    learner: LearnerConfig
    predictor_kind: str
    predictor_level: float
    predictor_seed: int
    benchmark_kind: str
    output: OutputSpec
    raw: dict = field(default_factory=dict, repr=False)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc


def parse_run_config(doc: dict) -> RunConfig:
    doc = _mapping(doc, "config")
    _check_keys(doc, _TOP_KEYS, "config")
    if "scenario" not in doc or "learner" not in doc:
        raise ConfigurationError("config requires 'scenario' and 'learner' sections")

    sc = _mapping(doc["scenario"], "scenario")
    _check_keys(sc, _SCENARIO_KEYS, "scenario")
    kind = _string(sc, "kind", "scenario", required=True)
    if kind not in SCENARIO_KINDS:
        raise ConfigurationError(
            f"unknown scenario kind {kind!r}; expected one of {sorted(SCENARIO_KINDS)}")
    horizon = _integer(sc, "horizon", "scenario", required=True)
    if horizon < 1:
        raise ConfigurationError("scenario.horizon must be >= 1")
    dimension = _integer(sc, "dimension", "scenario", default=1)
    constraints = _integer(sc, "constraints", "scenario", default=1)
    seed = _integer(sc, "seed", "scenario", default=0)
    params = sc.get("params", {})
    if params is None:
        params = {}
    params = _mapping(params, "scenario.params")

    # scenario defaults feed the learner's bounds; a throwaway instance is
    # cheap and keeps the published constants in one place
    probe = make_scenario(kind, horizon=1, dimension=dimension,
                          constraints=constraints, seed=seed, params=params)

    ln = _mapping(doc["learner"], "learner")
    _check_keys(ln, _LEARNER_KEYS, "learner")
    variant = _string(ln, "variant", "learner", required=True)
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown learner variant {variant!r}")
    sigma = _number(ln, "sigma", "learner", required=True)
    a = _number(ln, "a", "learner", required=True)
    beta = _number(ln, "beta", "learner", required=True)

    bounds = probe.bounds
    if "bounds" in ln and ln["bounds"] is not None:
        bd = _mapping(ln["bounds"], "learner.bounds")
        _check_keys(bd, _BOUNDS_KEYS, "learner.bounds")
        overrides = {}
        for key in sorted(bd):
            overrides[key] = _number(bd, key, "learner.bounds", required=True)
        bounds = bounds.replace(**overrides)

    x0 = None
    if "x0" in ln and ln["x0"] is not None:
        raw_x0 = ln["x0"]
        if not isinstance(raw_x0, list) or not all(finite_number(v) for v in raw_x0):
            raise ConfigurationError("learner.x0 must be a list of finite numbers or null")
        x0 = np.asarray(raw_x0, dtype=float)

    solver = SolverSettings()
    if "solver" in ln and ln["solver"] is not None:
        sv = _mapping(ln["solver"], "learner.solver")
        _check_keys(sv, _SOLVER_KEYS, "learner.solver")
        solver = SolverSettings(
            tolerance=_number(sv, "tolerance", "learner.solver", default=1e-9),
            max_iterations=_integer(sv, "max_iterations", "learner.solver", default=10000),
        )

    learner = LearnerConfig(variant=variant, sigma=sigma, a=a, beta=beta,
                            bounds=bounds, x0=x0, solver=solver)

    pr = doc.get("predictor", {})
    pr = _mapping({} if pr is None else pr, "predictor")
    _check_keys(pr, _PREDICTOR_KEYS, "predictor")
    predictor_kind = _string(pr, "kind", "predictor", default="none")
    if predictor_kind not in PREDICTOR_KINDS:
        raise ConfigurationError(f"unknown predictor kind {predictor_kind!r}")
    predictor_level = _number(pr, "level", "predictor", default=0.1)
    predictor_seed = _integer(pr, "seed", "predictor", default=0)

    bm = doc.get("benchmark", {})
    bm = _mapping({} if bm is None else bm, "benchmark")
    _check_keys(bm, _BENCHMARK_KEYS, "benchmark")
    benchmark_kind = _string(bm, "kind", "benchmark", default="X_T")
    if benchmark_kind not in analysis.BENCHMARK_KINDS:
        raise ConfigurationError(f"unknown benchmark kind {benchmark_kind!r}")

    out = doc.get("output", {})
    out = _mapping({} if out is None else out, "output")
    _check_keys(out, _OUTPUT_KEYS, "output")
    fmt = _string(out, "format", "output", default="csv")
    if fmt not in ("csv", "json"):
        raise ConfigurationError("output.format must be 'csv' or 'json'")
    record_every = _integer(out, "record_every", "output", default=1)
    if record_every < 1:
        raise ConfigurationError("output.record_every must be >= 1")
    output = OutputSpec(path=_string(out, "path", "output", default=None),
                        format=fmt, record_every=record_every)

    config = RunConfig(scenario_kind=kind, horizon=horizon, dimension=dimension,
                       constraints=constraints, seed=seed, params=dict(params),
                       learner=learner, predictor_kind=predictor_kind,
                       predictor_level=predictor_level, predictor_seed=predictor_seed,
                       benchmark_kind=benchmark_kind, output=output, raw=doc)
    # a throwaway predictor and learner run their own checks (noise level, x0,
    # base constraint), so execute_run refuses nothing the parser accepts
    _predictor_for(config, probe)
    _learner_for(config, probe)
    return config


@dataclass
class SweepConfig:
    base: dict
    horizons: list[int]
    betas: list[float]
    repetitions: int


def parse_sweep_config(doc: dict) -> SweepConfig:
    doc = _mapping(doc, "sweep")
    _check_keys(doc, _SWEEP_KEYS, "sweep")
    if "base" not in doc:
        raise ConfigurationError("sweep requires a 'base' run config")
    base = _mapping(doc["base"], "sweep.base")
    parse_run_config(base)  # validate eagerly; cells re-derive from the raw dict
    horizons = doc.get("horizons")
    if not isinstance(horizons, list) or not horizons:
        raise ConfigurationError("sweep.horizons must be a nonempty list")
    hs = [_as_int(h, "sweep.horizons") for h in horizons]
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise ConfigurationError("sweep.horizons must be strictly increasing")
    betas = doc.get("betas")
    if not isinstance(betas, list) or not betas:
        raise ConfigurationError("sweep.betas must be a nonempty list")
    bs = []
    for b in betas:
        if isinstance(b, bool) or not isinstance(b, (int, float)) or not 0.0 <= b < 1.0:
            raise ConfigurationError("sweep.betas entries must lie in [0, 1)")
        bs.append(float(b))
    reps = doc.get("repetitions", 1)
    if isinstance(reps, bool) or not isinstance(reps, int) or reps < 1:
        raise ConfigurationError("sweep.repetitions must be a positive integer")
    return SweepConfig(base=base, horizons=hs, betas=bs, repetitions=reps)


def _as_int(v, name: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ConfigurationError(f"{name} entries must be positive integers")
    return v


# -- single run ----------------------------------------------------------------


@dataclass
class RunResult:
    config: RunConfig
    rows: list[TraceRow]
    summary: dict
    benchmark: analysis.BenchmarkResult | None
    totals: LearnerTotals


def _sanitize(v):
    if isinstance(v, float):
        return None if not math.isfinite(v) else v
    if isinstance(v, np.floating):
        return _sanitize(float(v))
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_sanitize(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _sanitize(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_sanitize(x) for x in v]
    return v


def _predictor_for(config: RunConfig, scenario):
    return make_predictor(config.predictor_kind, bounds=config.learner.bounds,
                          domain=scenario.domain, dimension=scenario.dimension,
                          constraints=scenario.n_constraints, level=config.predictor_level,
                          seed=config.predictor_seed)


def _learner_for(config: RunConfig, scenario):
    return make_learner(config.learner, scenario.domain, scenario.dimension,
                        scenario.n_constraints,
                        base_constraint=getattr(scenario, "base_constraint", None),
                        base_affine=getattr(scenario, "base_affine", None))


def play_rounds(scenario, predictor, learner,
                horizon: int) -> Iterator[tuple[RoundOracle, RoundRecord]]:
    """Play rounds 1..horizon and yield each round's truth with its record.

    Round t's truth and its forecast are drawn together, the learner plays
    the round, and only then is the played point shown to the scenario and
    the predictor, so an adaptive scenario and a predictor that tracks the
    learner see x_t before round t+1 is drawn.  Each round is drawn once:
    whoever needs the truth again (the comparator, a test) keeps it from here.
    """
    for t in range(1, horizon + 1):
        truth = scenario.round(t)
        rec = learner.play_round(truth, predictor.bundle_for(truth))
        scenario.record_action(t, rec.x)
        predictor.note_action(rec.x)
        yield truth, rec


def execute_run(config: RunConfig) -> RunResult:
    scenario = make_scenario(config.scenario_kind, horizon=config.horizon,
                             dimension=config.dimension, constraints=config.constraints,
                             seed=config.seed, params=config.params)
    T = config.horizon
    predictor = _predictor_for(config, scenario)
    learner = _learner_for(config, scenario)
    fold = analysis.ComparatorFold(scenario.domain, config.benchmark_kind)
    # criterion 07 reads the comparator at each adversary block end, taken
    # as the block end is emitted
    block_ends = getattr(scenario, "block_ends", None)

    rows: list[TraceRow] = []  # regret is filled in once the comparator is known
    flag_counts: dict[str, int] = {}
    record_every = config.output.record_every
    # the fold's cost sums at each row, which that row's regret is read from
    cost_sums = np.empty(((T + record_every - 1) // record_every, fold.cost_sums_size))
    for truth, rec in play_rounds(scenario, predictor, learner, T):
        fold.add(truth)
        if block_ends and block_ends[-1] == rec.t:
            fold.mark()
        for fl in rec.flags:
            flag_counts[fl] = flag_counts.get(fl, 0) + 1
        if rec.t % record_every == 0 or rec.t == T:  # the last round's totals feed the summary
            totals = learner.stats()
            fold.copy_cost_sums(cost_sums[len(rows)])
            rows.append(TraceRow(
                rec.t, rec.f_value, totals.cum_cost, math.nan, totals.violation_norm,
                norm(rec.lam), rec.a_t, totals.sigma_cum, totals.h_cum,
                rec.xi_t, totals.bound_running, max(rec.solver_residuals),
                ";".join(rec.flags),
            ))

    benchmark = analysis.compute_benchmark(fold)
    regret = math.nan
    if benchmark.feasible:
        comparator = analysis.benchmark_round_costs(cost_sums, benchmark.x_star)
        for i, (row, c) in enumerate(zip(rows, comparator)):
            rows[i] = row._replace(regret=row.cum_cost - float(c))
        regret = rows[-1].regret

    report = None
    variant = config.learner.variant
    if benchmark.feasible and variant != "greedy_baseline":
        if variant == "llp2":
            report = analysis.llp2_bound_report(
                totals.h_cum, totals.sum_prev_a_xi_sq, totals.a_prev, regret,
                config.learner.sigma, config.learner.bounds, totals.mu)
        elif variant == "llp_perturbed":
            report = analysis.perturbed_report(
                totals.h_cum, totals.xi_sq_cum, T, regret,
                config.learner.sigma, config.learner.a, config.learner.beta,
                config.learner.bounds)
        else:
            report = analysis.llp_bound_report(
                totals.h_cum, totals.sum_prev_a_xi_sq, totals.a_prev, regret,
                config.learner.sigma, config.learner.bounds)

    summary = {
        "scenario": config.scenario_kind,
        "variant": variant,
        "predictor": config.predictor_kind,
        "horizon": T,
        "seed": config.seed,
        "sigma": config.learner.sigma,
        "a": config.learner.a,
        "beta": config.learner.beta,
        "benchmark_kind": config.benchmark_kind,
        "benchmark_feasible": benchmark.feasible,
        "x_star": None if benchmark.x_star is None else benchmark.x_star,
        "optimal_total_cost": benchmark.optimal_total_cost,
        "benchmark_gap": benchmark.gap,
        "cum_cost": totals.cum_cost,
        "regret": regret,
        "violation_norm": totals.violation_norm,
        "violation_z_norm": totals.violation_z_norm,
        "bound_B_T": None if report is None else report.B_T,
        "bound_V": None if report is None else report.V_bound,
        "bound_V_z": None if report is None else report.V_z_bound,
        "bound_clamped": None if report is None else report.clamped,
        "h_cum": totals.h_cum,
        "xi_sq_cum": totals.xi_sq_cum,
        "sigma_cum": totals.sigma_cum,
        "a_T": totals.a_t,
        "a_prev": totals.a_prev,
        "mu": totals.mu,
        "max_xz": totals.max_xz,
        "drift_gap": totals.drift_gap,
        "warning_count": totals.warning_count,
        "flag_counts": flag_counts,
        "block_ends": [] if block_ends is None else list(block_ends),
        "record_every": record_every,
        "rows_written": len(rows),
    }
    summary = _sanitize(summary)
    return RunResult(config=config, rows=rows, summary=summary, benchmark=benchmark,
                     totals=totals)


# -- persistence -----------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_trace(result: RunResult, path: str | None = None, fmt: str | None = None) -> str:
    out = path if path is not None else result.config.output.path
    if out is None:
        raise ConfigurationError("no output path configured for the trace")
    fmt = fmt if fmt is not None else result.config.output.format
    if fmt == "csv":
        lines = [",".join(TRACE_COLUMNS)]
        for row in result.rows:
            lines.append(",".join(map(_fmt, row)))
        payload = "\n".join(lines) + "\n"
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        doc = {"columns": list(TRACE_COLUMNS),
               "rows": [_sanitize(list(row)) for row in result.rows]}
        with open(out, "w", encoding="utf-8", newline="") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)
            fh.write("\n")
    with open(out + ".summary.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(result.summary, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    return out


def write_plot(result: RunResult, path: str) -> str:
    """Standalone SVG line chart: average regret and total violation vs t."""
    ts = [row.t for row in result.rows]
    reg = [row.regret / row.t if math.isfinite(row.regret) else None for row in result.rows]
    vio = [row.violation_norm for row in result.rows]
    width, height, pad = 800, 420, 56
    series = [("avg regret", reg, "#c0392b"), ("violation", vio, "#2c6fbb")]
    vals = [v for _, ys, _ in series for v in ys if v is not None]
    if not vals or not ts:
        raise ConfigurationError("nothing to plot")
    vmin, vmax = min(vals), max(vals)
    if vmax == vmin:
        vmax = vmin + 1.0
    tmin, tmax = ts[0], ts[-1]
    if tmax == tmin:
        tmax = tmin + 1

    def sx(t):
        return pad + (t - tmin) / (tmax - tmin) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - vmin) / (vmax - vmin) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="#333" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="#333" stroke-width="1"/>',
        f'<text x="{width / 2:.1f}" y="{height - 14}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">t</text>',
        f'<text x="{pad}" y="{pad - 8}" font-size="13" font-family="sans-serif">'
        f'{_fmt(vmax)}</text>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="11" '
        f'font-family="sans-serif">{_fmt(tmin)}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" font-size="11" '
        f'text-anchor="end" font-family="sans-serif">{_fmt(tmax)}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" font-size="11" text-anchor="end" '
        f'font-family="sans-serif">{_fmt(vmin)}</text>',
    ]
    for idx, (label, ys, color) in enumerate(series):
        pts = [f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(ts, ys) if v is not None]
        if pts:
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                         f'points="{" ".join(pts)}"/>')
        ly = pad + 16 * idx
        parts.append(f'<rect x="{width - pad - 130}" y="{ly - 9}" width="12" height="3" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{width - pad - 112}" y="{ly - 4}" font-size="12" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


# -- CLI-facing operations ----------------------------------------------------------


def run_command(config_path: str, plot: bool = False) -> dict:
    config = parse_run_config(load_json(config_path))
    result = execute_run(config)
    if config.output.path is not None:
        write_trace(result)
        if plot:
            write_plot(result, config.output.path + ".svg")
    return result.summary


def _cell_key(beta: float, horizon: int, rep: int) -> str:
    return f"beta={beta:g},T={horizon},rep={rep}"


def _derive_cell(base: dict, beta: float, horizon: int, rep: int) -> dict:
    doc = json.loads(json.dumps(base))
    doc["scenario"]["horizon"] = horizon
    doc["scenario"]["seed"] = int(doc["scenario"].get("seed", 0)) + rep
    doc["learner"]["beta"] = beta
    pred = doc.get("predictor")
    if pred:
        pred["seed"] = int(pred.get("seed", 0)) + rep
    out = doc.get("output") or {}
    if out.get("path"):
        ext = "csv" if out.get("format", "csv") == "csv" else "json"
        out["path"] = f"{out['path']}_beta{beta:g}_T{horizon}_rep{rep}.{ext}"
        doc["output"] = out
    return doc


def _run_cell(args):
    key, doc = args
    try:
        config = parse_run_config(doc)
        result = execute_run(config)
        if config.output.path is not None:
            write_trace(result)
        return key, result.summary
    except Exception as exc:  # cell failures must not sink the sweep
        return key, {"error": f"{type(exc).__name__}: {exc}"}


def worker_count() -> int:
    raw = os.environ.get("LAZYOCO_WORKERS", "").strip()
    if raw:
        try:
            k = int(raw)
        except ValueError as exc:
            raise ConfigurationError("LAZYOCO_WORKERS must be an integer") from exc
        if k < 1:
            raise ConfigurationError("LAZYOCO_WORKERS must be >= 1")
        return k
    return os.cpu_count() or 1


def sweep(sweep_config: SweepConfig) -> dict:
    """One run per (beta, horizon, repetition) plus per-beta growth fits."""
    cells = []
    for beta in sweep_config.betas:
        for horizon in sweep_config.horizons:
            for rep in range(sweep_config.repetitions):
                key = _cell_key(beta, horizon, rep)
                cells.append((key, _derive_cell(sweep_config.base, beta, horizon, rep)))

    workers = worker_count()
    results: dict[str, dict] = {}
    if workers == 1 or len(cells) == 1:
        for cell in cells:
            key, summary = _run_cell(cell)
            results[key] = summary
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, summary in pool.map(_run_cell, cells):
                results[key] = summary

    exponents: dict[str, dict] = {}
    for beta in sweep_config.betas:
        v_samples, r_samples = [], []
        for horizon in sweep_config.horizons:
            vs, rs = [], []
            for rep in range(sweep_config.repetitions):
                s = results[_cell_key(beta, horizon, rep)]
                if "error" in s:
                    continue
                vs.append(s["violation_norm"])
                if s["regret"] is not None:
                    rs.append(max(s["regret"], 1.0))
            if vs:
                v_samples.append((horizon, float(np.mean(vs))))
            if rs:
                r_samples.append((horizon, float(np.mean(rs))))
        entry = {}
        for name, samples in (("V_T", v_samples), ("R_T_floor1", r_samples)):
            if len(samples) >= 4:
                fit = analysis.fit_growth_exponent(samples)
                entry[name] = {"exponent": fit.exponent, "intercept": fit.intercept,
                               "r_squared": fit.r_squared, "dropped": fit.dropped}
            else:
                entry[name] = None
        exponents[f"{beta:g}"] = entry

    report = {"cells": results, "exponents": exponents,
              "horizons": sweep_config.horizons, "betas": sweep_config.betas,
              "repetitions": sweep_config.repetitions}
    out = (sweep_config.base.get("output") or {}).get("path")
    if out:
        with open(f"{out}.sweep.json", "w", encoding="utf-8", newline="") as fh:
            json.dump(_sanitize(report), fh, sort_keys=True, indent=1, allow_nan=False)
            fh.write("\n")
    return report


def compare(configs: list[RunConfig], output_path: str | None = None) -> dict:
    """Aligned per-round comparison of several learners on one scenario."""
    if not configs:
        raise ConfigurationError("compare needs at least one config")
    first = configs[0]
    for cfg in configs[1:]:
        same = (cfg.scenario_kind == first.scenario_kind
                and cfg.horizon == first.horizon
                and cfg.dimension == first.dimension
                and cfg.constraints == first.constraints
                and cfg.seed == first.seed
                and cfg.params == first.params
                and cfg.benchmark_kind == first.benchmark_kind)
        if not same:
            raise ConfigurationError("compare configs must share scenario and seed")
    if SCENARIO_KINDS[first.scenario_kind].adaptive:
        raise ConfigurationError(
            "per-round alignment is undefined for adaptive scenarios")

    labels = []
    for cfg in configs:
        label = f"{cfg.learner.variant}+{cfg.predictor_kind}"
        k, base = 2, label
        while label in labels:
            label = f"{base}_{k}"
            k += 1
        labels.append(label)

    T = first.horizon
    runs: list[list[TraceRow]] = []
    terminal: dict[str, dict] = {}
    for cfg, label in zip(configs, labels):
        # every round is compared, whatever the config's own record_every
        rows = execute_run(replace(cfg, output=replace(cfg.output, record_every=1))).rows
        runs.append(rows)
        last = rows[-1]
        terminal[label] = {
            "avg_regret": _sanitize(last.regret / T),
            "violation": last.violation_norm,
            "avg_violation": last.violation_norm / T,
        }

    header = ["t"]
    for label in labels:
        header.append(f"avg_regret_{label}")
        header.append(f"violation_{label}")
    lines = [",".join(header)]
    for i in range(T):
        cells = [str(i + 1)]
        for rows in runs:
            cells.append(_fmt(rows[i].regret / rows[i].t))
            cells.append(_fmt(rows[i].violation_norm))
        lines.append(",".join(cells))
    out = output_path
    if out is None and first.output.path:
        out = first.output.path + ".compare.csv"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    return {"labels": labels, "terminal": terminal, "path": out,
            "scenario": first.scenario_kind, "horizon": T}


def bench(config: RunConfig) -> dict:
    """Benchmark-only evaluation: the comparator point and its total cost."""
    if SCENARIO_KINDS[config.scenario_kind].adaptive:
        raise ConfigurationError(
            "benchmarking an adaptive scenario requires a completed run")
    scenario = make_scenario(config.scenario_kind, horizon=config.horizon,
                             dimension=config.dimension, constraints=config.constraints,
                             seed=config.seed, params=config.params)
    fold = analysis.ComparatorFold(scenario.domain, config.benchmark_kind)
    for t in range(1, config.horizon + 1):
        fold.add(scenario.round(t))
    result = analysis.compute_benchmark(fold)
    return _sanitize({
        "benchmark_kind": result.kind,
        "x_star": None if result.x_star is None else result.x_star,
        "optimal_total_cost": result.optimal_total_cost,
        "feasible": result.feasible,
        "gap": result.gap,
    })
