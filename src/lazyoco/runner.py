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
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator

import numpy as np

from . import analysis
from .learners import LearnerConfig, LlpLearner, make_learner
from .predictors import _Predictor, make_predictor
from .problems import SCENARIO_KINDS, RoundOracle, _Scenario, finite_number, make_scenario
from .sets import ConfigurationError, row_dots

__all__ = [
    "RunConfig",
    "SweepConfig",
    "parse_run_config",
    "parse_sweep_config",
    "load_json",
    "play_rounds",
    "execute_run",
    "RunResult",
    "write_trace",
    "write_plot",
    "run_command",
    "sweep",
    "compare",
    "bench",
]


# one trace line: the round's own values, the learner's totals after it, its flags
TRACE_COLUMNS = ("t", "f_value", "cum_cost", "regret", "violation_norm", "lambda_norm",
                 "a_t", "sigma_cum", "h_cum", "xi_t", "bound_B_t", "solver_residual",
                 "flags")
# columns of RunResult.table: every TRACE_COLUMNS column but flags, then the
# learner's totals besides those that the B_t column is evaluated from
ROW_COLUMNS = TRACE_COLUMNS[:-1] + ("sum_a_prev_xi_sq", "mu", "xi_sq_cum")
_T, _COST, _REGRET, _VIOLATION, _LAMBDA, _H, _BOUND, _A_XI_SQ, _MU, _XI_SQ = (
    ROW_COLUMNS.index(c)
    for c in ("t", "cum_cost", "regret", "violation_norm", "lambda_norm", "h_cum", "bound_B_t",
              "sum_a_prev_xi_sq", "mu", "xi_sq_cum"))
# one CSV line: t as an integer, each float formatted with ".17g"
_CSV_ROW = "%d," + "%.17g," * (len(TRACE_COLUMNS) - 2) + "%s\n"
# rounds folded per comparator call, and rows formatted per trace write, so
# no buffer holds more than this many rounds or the whole trace: the
# scenarios' draw block
_BLOCK_ROWS = _Scenario._BLOCK
# the JSON trace up to its first row, as json.dump(..., sort_keys=True,
# indent=1) writes it
_JSON_HEAD = ('{\n "columns": ' + json.dumps(list(TRACE_COLUMNS), indent=1).replace("\n", "\n ")
              + ',\n "rows": [')
# one row of that document: t as an integer, each float as its repr (which
# is its str, and what json writes) or "null", then the quoted flags
_JSON_ROW = "  [\n   %d,\n" + "   %s,\n" * (len(TRACE_COLUMNS) - 2) + "   %s\n  ]"

_TOP_KEYS = {"scenario", "learner", "predictor", "benchmark", "output"}
_SCENARIO_KEYS = {"kind", "horizon", "dimension", "constraints", "seed", "params"}
_LEARNER_KEYS = {"variant", "sigma", "a", "beta", "bounds", "x0"}
_BOUNDS_KEYS = {"L_f", "L_g", "G", "D", "E_m", "Delta_m"}
_PREDICTOR_KEYS = {"kind", "level", "seed"}
_BENCHMARK_KEYS = {"kind"}
_OUTPUT_KEYS = {"path", "format", "record_every"}
_SWEEP_KEYS = {"base", "horizons", "betas", "repetitions"}
# numpy's float warnings, off where runs sum totals: callers check the values they keep
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


# -- config parsing -----------------------------------------------------------


def _mapping(doc, name: str, allowed: set) -> dict:
    """doc as a JSON object with only `allowed` keys; a missing or null one reads as {}."""
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{name} must be a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {', '.join(unknown)}")
    return doc


_JSON_TYPES = {float: "a finite number", int: "an integer", str: "a string"}


def _output_file(path: str | None, name: str) -> str | None:
    """path, or None, if a trace can be written there: refused at parse when it
    is empty, names a directory or sits in a missing one, so no run plays first."""
    if path == "":
        raise ConfigurationError(f"{name} must name a file: it is empty")
    if path is not None and os.path.isdir(path):
        raise ConfigurationError(f"{name} {path!r} is a directory, not a file")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigurationError(f"{name} {path!r} is in a directory that does not exist")
    return path


def _field(doc: dict, key, name: str, kind: type, default=None, required=False):
    """doc[key] as a JSON `kind` (float: any finite number), or `default` when absent."""
    if key not in doc:
        if required:
            raise ConfigurationError(f"{name}.{key} is required")
        return default
    v = doc[key]
    if kind is float and finite_number(v):
        return float(v)
    if kind is not float and isinstance(v, kind) and not isinstance(v, bool):
        return v
    raise ConfigurationError(f"{name}.{key} must be {_JSON_TYPES[kind]}")


@dataclass
class OutputSpec:
    path: str | None
    format: str
    record_every: int


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


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc


def parse_run_config(doc: dict) -> RunConfig:
    """The run a config document describes.

    The parser checks the document's structure and JSON types; the kinds,
    ranges and combinations are checked by what they build: a scenario at
    the config's horizon, the learner config, a predictor, a learner and a
    comparator fold, all thrown away here.  So `execute_run` refuses
    nothing the parser accepts.
    """
    doc = _mapping(doc, "config", _TOP_KEYS)
    if "scenario" not in doc or "learner" not in doc:
        raise ConfigurationError("config requires 'scenario' and 'learner' sections")

    sc = _mapping(doc["scenario"], "scenario", _SCENARIO_KEYS)
    # the scenario's defaults feed the learner's bounds
    probe = make_scenario(_field(sc, "kind", "scenario", str, required=True),
                          horizon=_field(sc, "horizon", "scenario", int, required=True),
                          dimension=_field(sc, "dimension", "scenario", int, 1),
                          constraints=_field(sc, "constraints", "scenario", int, 1),
                          seed=_field(sc, "seed", "scenario", int, 0), params=sc.get("params"))

    ln = _mapping(doc["learner"], "learner", _LEARNER_KEYS)
    bd = _mapping(ln.get("bounds"), "learner.bounds", _BOUNDS_KEYS)
    x0 = ln.get("x0")
    if x0 is not None and not (isinstance(x0, list) and all(finite_number(v) for v in x0)):
        raise ConfigurationError("learner.x0 must be a list of finite numbers or null")
    c = LearnerConfig(
        variant=_field(ln, "variant", "learner", str, required=True),
        sigma=_field(ln, "sigma", "learner", float, required=True),
        a=_field(ln, "a", "learner", float, required=True),
        beta=_field(ln, "beta", "learner", float, required=True),
        bounds=replace(probe.bounds,
                       **{key: _field(bd, key, "learner.bounds", float) for key in sorted(bd)}),
        x0=x0)

    pr = _mapping(doc.get("predictor"), "predictor", _PREDICTOR_KEYS)
    bm = _mapping(doc.get("benchmark"), "benchmark", _BENCHMARK_KEYS)
    out = _mapping(doc.get("output"), "output", _OUTPUT_KEYS)
    output = OutputSpec(path=_output_file(_field(out, "path", "output", str), "output.path"),
                        format=_field(out, "format", "output", str, "csv"),
                        record_every=_field(out, "record_every", "output", int, 1))
    if output.format not in ("csv", "json"):
        raise ConfigurationError("output.format must be 'csv' or 'json'")
    if output.record_every < 1:
        raise ConfigurationError("output.record_every must be >= 1")

    config = RunConfig(scenario_kind=probe.kind, horizon=probe.horizon,
                       dimension=probe.dimension, constraints=probe.n_constraints,
                       seed=probe.seed, params=probe.params, learner=c,
                       predictor_kind=_field(pr, "kind", "predictor", str, "none"),
                       predictor_level=_field(pr, "level", "predictor", float, 0.1),
                       predictor_seed=_field(pr, "seed", "predictor", int, 0),
                       benchmark_kind=_field(bm, "kind", "benchmark", str, "X_T"),
                       output=output)
    _predictor_for(config, probe)
    lazy = isinstance(_learner_for(config, probe), LlpLearner)
    analysis.ComparatorFold(probe.domain, config.benchmark_kind)
    if lazy:
        # certificates that overflow at unit running sums (h = xi^2 = T = 1)
        # and zero slack overflow in every run, whatever its data
        with np.errstate(**_QUIET):
            B = analysis.regret_certificate(c.variant, 1.0, c.sigma, c.bounds, xi_sq_sum=1.0,
                                            horizon=1, a=c.a, beta=c.beta)
            V, _, _ = analysis.violation_certificate(
                c.variant, B, B, c.sigma, c.bounds, h_sum=1.0, a_prev=c.a, xi_sq_sum=1.0,
                horizon=1, a=c.a, beta=c.beta)
        if not (math.isfinite(B) and math.isfinite(V)):
            raise ConfigurationError(f"learner.sigma = {c.sigma:g} and learner.a = {c.a:g} "
                                     "overflow the regret or violation certificate")
    return config


@dataclass
class SweepConfig:
    """A parsed sweep: the base run and one parsed run per (beta, horizon, repetition)."""

    base: RunConfig
    horizons: list[int]
    betas: list[float]
    repetitions: int
    cells: dict[str, RunConfig]


def parse_sweep_config(doc: dict) -> SweepConfig:
    doc = _mapping(doc, "sweep", _SWEEP_KEYS)
    if "base" not in doc:
        raise ConfigurationError("sweep requires a 'base' run config")
    base = parse_run_config(doc["base"])
    grid = {}
    for key, kind in (("horizons", int), ("betas", float)):
        values = doc.get(key)
        if not isinstance(values, list) or not values:
            raise ConfigurationError(f"sweep.{key} must be a nonempty list")
        # typed before any cell formats them into its key and output path
        grid[key] = [_field({i: v}, i, f"sweep.{key}", kind) for i, v in enumerate(values)]
    hs, bs = grid["horizons"], grid["betas"]
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise ConfigurationError("sweep.horizons must be strictly increasing")
    if hs[0] < 1:
        raise ConfigurationError("sweep.horizons must be >= 1")
    # a beta's :g form keys its cells, trace paths and exponent entry, so it must read back
    seen: list[float] = []
    for beta in bs:
        key = f"{beta:g}"
        if repr(float(key)) != repr(beta):
            raise ConfigurationError(f"sweep.betas {beta!r} prints as {key}, another beta")
        # 0.0 and -0.0 print apart but are one beta
        twin = next((b for b in seen if b == beta), None)
        if twin is not None:
            raise ConfigurationError(f"sweep.betas {twin!r} and {beta!r} are equal as floats, "
                                     "so their cells would run one beta twice")
        seen.append(beta)
    reps = _field(doc, "repetitions", "sweep", int, 1)
    if reps < 1:
        raise ConfigurationError("sweep.repetitions must be a positive integer")
    cells = {_cell_key(beta, horizon, rep): _derive_cell(base, beta, horizon, rep)
             for beta in bs for horizon in hs for rep in range(reps)}
    return SweepConfig(base=base, horizons=hs, betas=bs, repetitions=reps, cells=cells)


# -- single run ----------------------------------------------------------------


@dataclass
class RunResult:
    """A finished run.

    `table` is an (n_rows, 15) float64 array with one row per recorded
    round, in `ROW_COLUMNS` order: t and the eleven numeric trace columns,
    then the three B_t inputs no trace line holds.  `flags` holds each
    row's last trace column.  The summary's totals are the last row's.
    """

    config: RunConfig
    table: np.ndarray
    flags: list[str]
    summary: dict


def _sanitize(v):
    """v with every non-finite float as None and every array as a list, for JSON."""
    if isinstance(v, float):
        return None if not math.isfinite(v) else v
    if isinstance(v, np.ndarray):
        return [_sanitize(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _sanitize(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_sanitize(x) for x in v]
    return v


def _scenario_for(config: RunConfig):
    return make_scenario(config.scenario_kind, horizon=config.horizon,
                         dimension=config.dimension, constraints=config.constraints,
                         seed=config.seed, params=config.params)


def _predictor_for(config: RunConfig, scenario):
    return make_predictor(config.predictor_kind, bounds=config.learner.bounds,
                          domain=scenario.domain, dimension=scenario.dimension,
                          constraints=scenario.n_constraints, level=config.predictor_level,
                          seed=config.predictor_seed)


def _learner_for(config: RunConfig, scenario):
    return make_learner(config.learner, scenario.domain, scenario.dimension,
                        scenario.n_constraints,
                        base_affine=getattr(scenario, "base_affine", None))


def _row_norms(v) -> np.ndarray:
    """Each row's `sets.norm`, bit for bit: v holds one float or (d,) array a row."""
    return np.sqrt(row_dots(np.array(v, dtype=float).reshape(len(v), -1)))


def play_rounds(scenario, predictor, learner,
                horizon: int) -> Iterator[tuple[RoundOracle, np.ndarray]]:
    """Play rounds 1..horizon and yield each round's truth with the point x_t played.

    The paper's single pass.  Round t's truth is drawn once, and its
    forecast with it; the learner always gets that forecast (the zero
    bundle under the `none` predictor) and plays the round, and only then
    is the played point shown to the scenario and the predictor, so an
    adaptive scenario and a predictor that tracks the learner see x_t
    before round t+1 is drawn.  No round is asked for twice: whoever needs
    the truth again (the comparator, a test) keeps it from here.  The
    round's other values are on the learner until the next round.  The
    three entry points are looked up once, and a scenario or predictor
    that keeps the base class's no-op hook is not called with x_t.
    """
    draw, forecast, play = scenario.round, predictor.bundle_for, learner.play_round
    record = (None if type(scenario).record_action is _Scenario.record_action
              else scenario.record_action)
    note = (None if type(predictor).note_action is _Predictor.note_action
            else predictor.note_action)
    for t in range(1, horizon + 1):
        truth = draw(t)
        x = play(truth, forecast(truth))
        if record is not None:
            record(t, x)
        if note is not None:
            note(x)
        yield truth, x


def execute_run(config: RunConfig) -> RunResult:
    scenario = _scenario_for(config)
    T = config.horizon
    predictor = _predictor_for(config, scenario)
    learner = _learner_for(config, scenario)
    fold = analysis.ComparatorFold(scenario.domain, config.benchmark_kind)

    record_every = config.output.record_every
    n_rows = (T + record_every - 1) // record_every
    # regret and bound_B_t are filled in at the end
    table = np.empty((n_rows, len(ROW_COLUMNS)))
    flags: list[str] = []
    # the fold's cost sums at each row, which that row's regret is read from
    cost_sums = np.empty((n_rows, len(fold.sums)))
    c = config.learner
    variant = c.variant
    # only the lazy learners carry a certificate
    lazy = isinstance(learner, LlpLearner)
    rounds = play_rounds(scenario, predictor, learner, T)
    with np.errstate(**_QUIET):
        # a block of rounds at a time: their truths go to the fold in one
        # call, and the rows recorded among them to the arrays in one slice;
        # a row keeps the learner's sum g(x), lam and flags as they are, and
        # the block takes the norms of its rows at once
        for start in range(0, T, _BLOCK_ROWS):
            block, rows, kept = [], [], []
            for truth, _ in islice(rounds, _BLOCK_ROWS):
                block.append(truth)
                t = learner.t
                if t % record_every == 0 or t == T:  # the last round's totals feed the summary
                    rows.append((t, learner.f_value, learner.cum_cost, math.nan, math.nan,
                                 math.nan, learner.a_t, learner.prox_S, learner.h_cum,
                                 learner.xi_t, math.nan, learner.solver_residual,
                                 learner.sum_a_prev_xi_sq, learner.mu, learner.xi_sq_cum))
                    kept.append((learner.cum_gx, learner.lam, learner.flags))
            sums = fold.add(block)
            if rows:
                written = slice(len(flags), len(flags) + len(rows))
                table[written] = rows
                cum_gx, lam, row_flags = zip(*kept)
                table[written, _VIOLATION] = _row_norms(np.maximum(cum_gx, 0.0))
                table[written, _LAMBDA] = _row_norms(lam)
                flags.extend(row_flags)
                cost_sums[written] = sums[[row[0] - start - 1 for row in rows]]
        stats = learner.stats()
        if lazy:
            table[:, _BOUND] = analysis.regret_certificate(
                variant, table[:, _H], c.sigma, c.bounds, sum_a_prev_xi_sq=table[:, _A_XI_SQ],
                mu=table[:, _MU], xi_sq_sum=table[:, _XI_SQ], horizon=table[:, _T],
                a=c.a, beta=c.beta)
        else:
            table[:, _BOUND] = 0.0
    # a step size or level that overflows only after some rounds gets past the
    # parser, so the run stops at its first non-finite total, checked a column
    # at a time to copy no table; regret is left out, as it is NaN by design
    # when the comparator set is empty
    bad = [(np.isfinite(col).argmin(), name, col) for name, col in zip(ROW_COLUMNS, table.T)
           if name != "regret" and not np.isfinite(col).all()]
    if bad:
        i, name, col = min(bad, key=lambda b: b[0])  # the first column among a row's
        raise FloatingPointError(
            f"round {int(table[i, _T])}: {name} is {col[i]}, not a finite number")

    benchmark = analysis.compute_benchmark(fold)
    if benchmark.feasible:
        table[:, _REGRET] = table[:, _COST] - analysis.benchmark_round_costs(
            cost_sums, benchmark.x_star)

    # round T's totals, as Python floats: the summary reads them off the last row
    last = dict(zip(ROW_COLUMNS, table[-1].tolist()))
    bound_B_T = bound_V = bound_V_z = bound_clamped = None
    if benchmark.feasible and lazy:
        bound_B_T = last["bound_B_t"]
        bound_V, bound_V_z, bound_clamped = analysis.violation_certificate(
            variant, bound_B_T, last["regret"], c.sigma, c.bounds, h_sum=last["h_cum"],
            a_prev=stats["a_prev"], mu=last["mu"], xi_sq_sum=last["xi_sq_cum"], horizon=T,
            a=c.a, beta=c.beta)

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
        "x_star": benchmark.x_star,
        "optimal_total_cost": benchmark.optimal_total_cost,
        "benchmark_gap": benchmark.gap,
        "cum_cost": last["cum_cost"],
        "regret": last["regret"],
        "violation_norm": last["violation_norm"],
        "bound_B_T": bound_B_T,
        "bound_V": bound_V,
        "bound_V_z": bound_V_z,
        "bound_clamped": bound_clamped,
        "h_cum": last["h_cum"],
        "xi_sq_cum": last["xi_sq_cum"],
        "sigma_cum": last["sigma_cum"],
        "a_T": last["a_t"],
        "mu": last["mu"],
        # a round raises at most one flag
        "warning_count": sum(stats["flag_counts"].values()),
        **stats,
        "block_ends": list(getattr(scenario, "block_ends", ())),
        "record_every": record_every,
        "rows_written": n_rows,
    }
    return RunResult(config=config, table=table, flags=flags, summary=_sanitize(summary))


# -- persistence -----------------------------------------------------------------


def write_trace(result: RunResult) -> str:
    out = result.config.output.path
    if out is None:
        raise ConfigurationError("no output path configured for the trace")
    # the trace's numeric columns, a view of the table's first ones
    table, flags = result.table[:, :len(TRACE_COLUMNS) - 1], result.flags
    if result.config.output.format == "csv":
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for a in range(0, len(flags), _BLOCK_ROWS):
                b = a + _BLOCK_ROWS
                fh.write("".join([_CSV_ROW % (*v, fl)
                                  for v, fl in zip(table[a:b].tolist(), flags[a:b])]))
    else:
        _write_json_trace(out, table, flags)
    with open(out + ".summary.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(result.summary, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    return out


def _write_json_trace(out: str, table: np.ndarray, flags: list[str]) -> None:
    """The document json.dump(..., sort_keys=True, indent=1) would write for
    {"columns": TRACE_COLUMNS, "rows": rows}, with non-finite floats as null,
    written a block of rows at a time from the table."""
    quoted = {fl: json.dumps(fl) for fl in set(flags)}
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_JSON_HEAD)
        sep = "\n"
        for a in range(0, len(flags), _BLOCK_ROWS):
            block = table[a:a + _BLOCK_ROWS]
            rows = [_JSON_ROW % ((*v, quoted[fl]) if finite else
                                 (*[x if math.isfinite(x) else "null" for x in v], quoted[fl]))
                    for v, fl, finite in zip(block.tolist(), flags[a:a + _BLOCK_ROWS],
                                             np.isfinite(block).all(axis=1).tolist())]
            fh.write(sep + ",\n".join(rows))
            sep = ",\n"
        fh.write("\n ]\n}\n" if flags else "]\n}\n")


def write_plot(result: RunResult, path: str) -> str:
    """Standalone SVG line chart: average regret and total violation vs t."""
    table = result.table
    ts = table[:, _T].tolist()
    reg = [v if math.isfinite(v) else None
           for v in (table[:, _REGRET] / table[:, _T]).tolist()]
    vio = table[:, _VIOLATION].tolist()
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
        f'{vmax:.17g}</text>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="11" '
        f'font-family="sans-serif">{tmin:.17g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" font-size="11" '
        f'text-anchor="end" font-family="sans-serif">{tmax:.17g}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" font-size="11" text-anchor="end" '
        f'font-family="sans-serif">{vmin:.17g}</text>',
    ]
    for idx, (label, ys, color) in enumerate(series):
        pts = [(f"{sx(t):.2f}", f"{sy(v):.2f}") for t, v in zip(ts, ys) if v is not None]
        if len(pts) == 1:  # a one-point polyline has no length, so nothing is painted
            parts.append(f'<circle cx="{pts[0][0]}" cy="{pts[0][1]}" r="3" fill="{color}"/>')
        elif pts:
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                         f'points="{" ".join(map(",".join, pts))}"/>')
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
    if plot and config.output.path is None:
        raise ConfigurationError("--plot writes its chart next to the trace: set output.path")
    result = execute_run(config)
    if config.output.path is not None:
        write_trace(result)
        if plot:
            write_plot(result, config.output.path + ".svg")
    return result.summary


def _cell_key(beta: float, horizon: int, rep: int) -> str:
    return f"beta={beta:g},T={horizon},rep={rep}"


def _derive_cell(base: RunConfig, beta: float, horizon: int, rep: int) -> RunConfig:
    """The sweep cell (beta, horizon, rep) of the parsed base: both seeds move by rep,
    and a trace path gains the cell's suffix.  `LearnerConfig` checks beta."""
    out = base.output
    if out.path is not None:
        out = replace(out, path=f"{out.path}_beta{beta:g}_T{horizon}_rep{rep}.{out.format}")
    return replace(base, horizon=horizon, seed=base.seed + rep,
                   learner=replace(base.learner, beta=beta),
                   predictor_seed=base.predictor_seed + rep, output=out)


def _run_cell(args):
    key, config = args
    try:
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
    cells = list(sweep_config.cells.items())
    # no more workers than cells: a fork-started pool forks them all at once
    workers = min(worker_count(), len(cells))
    results: dict[str, dict] = {}
    if workers == 1:
        for cell in cells:
            key, summary = _run_cell(cell)
            results[key] = summary
    else:
        # imported here: the pool loads multiprocessing and socket, which
        # nothing else in the package needs
        from concurrent.futures import ProcessPoolExecutor

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
    out = sweep_config.base.output.path
    if out:
        with open(f"{out}.sweep.json", "w", encoding="utf-8", newline="") as fh:
            json.dump(_sanitize(report), fh, sort_keys=True, indent=1, allow_nan=False)
            fh.write("\n")
    return report


def compare(configs: list[RunConfig], output_path: str | None = None) -> dict:
    """Aligned per-round comparison of several learners on one scenario."""
    if not configs:
        raise ConfigurationError("compare needs at least one config")
    _output_file(output_path, "-o/--output")
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
    columns: list[np.ndarray] = []  # per config: average regret, then violation
    terminal: dict[str, dict] = {}
    for cfg, label in zip(configs, labels):
        # every round is compared, whatever the config's own record_every
        table = execute_run(replace(cfg, output=replace(cfg.output, record_every=1))).table
        columns += [table[:, _REGRET] / table[:, _T], table[:, _VIOLATION]]
        regret, violation = float(table[-1, _REGRET]), float(table[-1, _VIOLATION])
        terminal[label] = {
            "avg_regret": _sanitize(regret / T),
            "violation": violation,
            "avg_violation": violation / T,
        }

    header = ["t"]
    for label in labels:
        header.append(f"avg_regret_{label}")
        header.append(f"violation_{label}")
    out = output_path
    if out is None and first.output.path:
        out = first.output.path + ".compare.csv"
    if out:
        line = "%d" + ",%.17g" * len(columns) + "\n"
        rows = zip(range(1, T + 1), *(c.tolist() for c in columns))
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.write("".join([line % row for row in rows]))
    return {"labels": labels, "terminal": terminal, "path": out,
            "scenario": first.scenario_kind, "horizon": T}


def bench(config: RunConfig) -> dict:
    """Benchmark-only evaluation: the comparator point and its total cost."""
    if SCENARIO_KINDS[config.scenario_kind].adaptive:
        raise ConfigurationError(
            "benchmarking an adaptive scenario requires a completed run")
    scenario = _scenario_for(config)
    fold = analysis.ComparatorFold(scenario.domain, config.benchmark_kind)
    end = config.horizon + 1
    # the blocks of `execute_run`'s fold
    with np.errstate(**_QUIET):
        for start in range(1, end, _BLOCK_ROWS):
            fold.add([scenario.round(t) for t in range(start, min(start + _BLOCK_ROWS, end))])
    result = analysis.compute_benchmark(fold)
    return _sanitize({
        "benchmark_kind": result.kind,
        "x_star": result.x_star,
        "optimal_total_cost": result.optimal_total_cost,
        "feasible": result.feasible,
        "gap": result.gap,
    })
