"""Write, or compare, the traces and summaries of a fixed matrix of runs.

    python tools/trace_matrix.py OUT_DIR [--src SRC_DIR]
    python tools/trace_matrix.py --compare A_DIR B_DIR

The first form plays every cell of the matrix with the `lazyoco` package
under SRC_DIR (default: the `src/` next to this script) and writes, per
cell, its trace `<cell>.csv` (`<cell>.json` for a JSON cell) and the
trace's `.summary.json`, or `<cell>.error` with the message of the
ConfigurationError or exception that stopped it.  A sweep cell writes
each of its runs' traces and summaries, `<cell>_beta<b>_T<T>_rep<r>.csv`,
and its report `<cell>.sweep.json`.  To check a change for
byte-identity, run it once per checkout (pointing --src at each tree, or
copying this script into the older one) and compare the two directories.

The second form lists the files that differ between the two directories
and, for every differing trace, the columns that changed; for a differing
summary or sweep report, each changed key with its absolute and relative
change (a list entry as key[i], a nested entry as key.name, so a sweep
run's regret reads cells.<key>.regret; a change that is not between two
numbers reads inf).  It closes with the largest absolute and relative
change per trace column and per summary key.  It exits 1 when anything
differs.

The matrix:
- 4 variants x 5 predictors x 5 scenario kinds x 2 settings: T = 400,
  beta 0.5, a row every round; T = 173, beta 0, a row every 7th round.
  Scenario seed 3, `random_quadratic` at n = 3, d = 2, predictor level
  0.3 and seed 4, sigma = a = 1.  `llp_perturbed` off
  `perturbed_linear` is refused at parse.
- the three `bench/` workloads at their bench horizons, `quadratic_noisy`
  for instances 0-7;
- the two configs that acceptance criterion 11 re-runs;
- `prescient_tie_quadratic`: exact forecasts on `random_quadratic` at
  n = 2, d = 1 with `center_scale` 2 and `offset_scale` 0, T = 4 000,
  `X_T_max`, where the unregularized prescient step must keep z = x while
  one coordinate of x sits on the box boundary;
- `comparator_empty_1d`: `perturbed_linear` with `amplitude` 1.5, T = 400,
  `X_T`, whose rounds leave no common feasible point, so the trace has no
  regret and the summary no comparator;
- `comparator_max_1d`: `llp` on `alternating_linear` with no forecasts,
  T = 400, `X_T_max`, the one cell whose comparator folds its summed rows
  to an interval (every other `X_T_max` cell is n = 2);
- `quadratic_1d`: `llp` with perfect forecasts on `random_quadratic` at
  n = 1, d = 2, seed 3, T = 400, `X_T`, the one cell whose 1-D comparator
  folds a row with a negative slope and solves a quadratic cost;
- `quadratic_1d_binding`: the same with `center_scale` 2 and
  `offset_scale` 0, so every row passes through the origin and the cost
  centres reach past the box: the one cell whose deferred multiplier
  turns on at n = 1, d >= 2, where the array body solves the breakpoint
  fixed point (`LlpLearner._fixed_point` at n = 1);
- `quadratic_blind_rows`: `llp` with the noisy predictor at level 1.0
  (seed 4) on `random_quadratic` at n = 3, d = 2, seed 3, T = 400, whose
  forecast rows are all zero: the one cell whose n >= 2 fixed point takes
  the zero-curvature exact step;
- `noisy_level0_quadratic`: `llp` with the noisy predictor at level 0
  (seed 4) on `random_quadratic` at n = 5, d = 3, seed 3, T = 600, whose
  perturbations are all signed zeros and gamma 0: the cell whose noise
  blocks, drawn 256 rounds ahead, take the zero path across two block edges;
- `adversarial_large_lf`: `llp` with the adversarial predictor on
  `alternating_linear` (seed 3), T = 60, with `learner.bounds` {"L_f":
  1.34e154}, the largest L_f whose square the predictor accepts;
- `quadratic_scalar__<variant>__<predictor>`: `llp` and `llp2` with the
  perfect and noisy predictors (level 0.3, seed 4) on `random_quadratic`
  at n = d = 1, seed 3, T = 400, `X_T`: the cells whose n = d = 1 rounds
  carry a quadratic cost forecast;
- `sparse_rows_1d` and `sparse_rows_3d`: `llp` with the noisy predictor
  (level 0.3, seed 4), T = 1 400 and a row every 600th round, on
  `stochastic_constraint` (seed 3) under `X_T` and on `random_quadratic`
  at n = 3, d = 2 (seed 3) under `X_T_max`: the run folds its rounds
  256 at a time, so these are the cells with blocks that record no row
  and a last, partial block;
- `bounds_override`: `llp2` on `random_quadratic` at n = 3, d = 2, T = 400,
  with the noisy predictor and `learner.bounds` {"G": 2, "D": 1.5} in
  place of the scenario's constants;
- `primal_solver_large_a`: `llp` with perfect forecasts on
  `random_quadratic` at n = 3, d = 2, seed 1, T = 60, with `learner.a`
  1e6, so the penalty's smoothness stalls two primal solves at
  `minimize`'s iteration limit and their rows carry the `primal_solver`
  flag;
- the T = 173 cells and the two criterion-11 configs again with
  `output.format = "json"`, as `<cell>__json`, so both trace writers are
  checked;
- `sweep_noisy`: a sweep of `llp` with the noisy predictor (level 0.3,
  seed 4) on `alternating_linear` (seed 3), betas 0 and 0.5, horizons 50,
  100, 200 and 400, 2 repetitions.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

VARIANTS = ("llp", "llp2", "llp_perturbed", "greedy_baseline")
PREDICTORS = ("none", "perfect", "perfect_gradients", "noisy", "adversarial")
KINDS = ("alternating_linear", "stochastic_constraint", "impossibility_adversary",
         "perturbed_linear", "random_quadratic")
# (horizon, beta, record_every)
SETTINGS = ((400, 0.5, 1), (173, 0.0, 7))


def cells() -> dict[str, dict]:
    """Cell name -> run config document (without the output path)."""
    out = {}
    for kind in KINDS:
        shape = {"dimension": 3, "constraints": 2} if kind == "random_quadratic" else {}
        for variant in VARIANTS:
            for predictor in PREDICTORS:
                for horizon, beta, every in SETTINGS:
                    out[f"{kind}__{variant}__{predictor}__T{horizon}"] = {
                        "scenario": {"kind": kind, "horizon": horizon, "seed": 3, **shape},
                        "learner": {"variant": variant, "sigma": 1.0, "a": 1.0,
                                    "beta": beta},
                        "predictor": {"kind": predictor, "level": 0.3, "seed": 4},
                        "output": {"record_every": every},
                    }

    sys.path.insert(0, os.path.join(REPO, "bench"))
    from workloads import WORKLOADS, run_config

    for name, count in (("scalar_none", 1), ("scalar_perfect", 1), ("quadratic_noisy", 8)):
        w = WORKLOADS[name]
        for inst in range(count):
            doc = run_config(w, inst, w.horizon, "")
            del doc["output"]["path"]
            out[f"bench_{name}_{inst}"] = doc

    out["criterion11_quadratic"] = {
        "scenario": {"kind": "random_quadratic", "horizon": 800,
                     "dimension": 2, "constraints": 2, "seed": 5},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "predictor": {"kind": "noisy", "level": 0.5, "seed": 6},
    }
    out["criterion11_perturbed"] = {
        "scenario": {"kind": "perturbed_linear", "horizon": 500, "seed": 2},
        "learner": {"variant": "llp_perturbed", "sigma": 1.0, "a": 1.0, "beta": 0.5},
    }
    out["prescient_tie_quadratic"] = {
        "scenario": {"kind": "random_quadratic", "horizon": 4000, "dimension": 2,
                     "constraints": 1, "seed": 0,
                     "params": {"center_scale": 2.0, "offset_scale": 0.0}},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "predictor": {"kind": "perfect"},
        "benchmark": {"kind": "X_T_max"},
    }
    out["comparator_empty_1d"] = {
        "scenario": {"kind": "perturbed_linear", "horizon": 400, "seed": 3,
                     "params": {"amplitude": 1.5}},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "benchmark": {"kind": "X_T"},
    }
    out["comparator_max_1d"] = {
        "scenario": {"kind": "alternating_linear", "horizon": 400, "seed": 3},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "benchmark": {"kind": "X_T_max"},
    }
    out["quadratic_1d"] = {
        "scenario": {"kind": "random_quadratic", "horizon": 400, "dimension": 1,
                     "constraints": 2, "seed": 3},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "predictor": {"kind": "perfect"},
        "benchmark": {"kind": "X_T"},
    }
    out["quadratic_1d_binding"] = {
        "scenario": {"kind": "random_quadratic", "horizon": 400, "dimension": 1,
                     "constraints": 2, "seed": 3,
                     "params": {"center_scale": 2.0, "offset_scale": 0.0}},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "predictor": {"kind": "perfect"},
        "benchmark": {"kind": "X_T"},
    }
    out["quadratic_blind_rows"] = {
        "scenario": {"kind": "random_quadratic", "horizon": 400, "dimension": 3,
                     "constraints": 2, "seed": 3},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "predictor": {"kind": "noisy", "level": 1.0, "seed": 4},
    }
    out["noisy_level0_quadratic"] = {
        "scenario": {"kind": "random_quadratic", "horizon": 600, "dimension": 5,
                     "constraints": 3, "seed": 3},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "predictor": {"kind": "noisy", "level": 0.0, "seed": 4},
    }
    out["adversarial_large_lf"] = {
        "scenario": {"kind": "alternating_linear", "horizon": 60, "seed": 3},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5,
                    "bounds": {"L_f": 1.34e154}},
        "predictor": {"kind": "adversarial"},
    }
    for variant in ("llp", "llp2"):
        for predictor in ("perfect", "noisy"):
            out[f"quadratic_scalar__{variant}__{predictor}"] = {
                "scenario": {"kind": "random_quadratic", "horizon": 400, "dimension": 1,
                             "constraints": 1, "seed": 3},
                "learner": {"variant": variant, "sigma": 1.0, "a": 1.0, "beta": 0.5},
                "predictor": {"kind": predictor, "level": 0.3, "seed": 4},
                "benchmark": {"kind": "X_T"},
            }
    for name, scenario, comparator in (
            ("sparse_rows_1d", {"kind": "stochastic_constraint"}, "X_T"),
            ("sparse_rows_3d", {"kind": "random_quadratic", "dimension": 3, "constraints": 2},
             "X_T_max")):
        out[name] = {
            "scenario": {**scenario, "horizon": 1400, "seed": 3},
            "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
            "predictor": {"kind": "noisy", "level": 0.3, "seed": 4},
            "benchmark": {"kind": comparator},
            "output": {"record_every": 600},
        }
    out["bounds_override"] = {
        "scenario": {"kind": "random_quadratic", "horizon": 400, "dimension": 3,
                     "constraints": 2, "seed": 3},
        "learner": {"variant": "llp2", "sigma": 1.0, "a": 1.0, "beta": 0.5,
                    "bounds": {"G": 2.0, "D": 1.5}},
        "predictor": {"kind": "noisy", "level": 0.3, "seed": 4},
    }
    out["primal_solver_large_a"] = {
        "scenario": {"kind": "random_quadratic", "horizon": 60, "dimension": 3,
                     "constraints": 2, "seed": 1},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1e6, "beta": 0.5},
        "predictor": {"kind": "perfect"},
    }
    for name in [n for n in out if n.endswith("__T173") or n.startswith("criterion11_")]:
        doc = out[name]
        out[name + "__json"] = dict(doc, output={**doc.get("output", {}), "format": "json"})
    return out


def sweep_cells() -> dict[str, dict]:
    """Sweep cell name -> sweep config document (its base without an output path)."""
    return {"sweep_noisy": {
        "base": {"scenario": {"kind": "alternating_linear", "horizon": 50, "seed": 3},
                 "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
                 "predictor": {"kind": "noisy", "level": 0.3, "seed": 4}},
        "betas": [0.0, 0.5], "horizons": [50, 100, 200, 400], "repetitions": 2,
    }}


def write_matrix(out_dir: str, src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from lazyoco import runner

    def play(name, write):
        try:
            write()
        except Exception as exc:  # noqa: BLE001 - the failure is the cell's output
            with open(os.path.join(out_dir, name + ".error"), "w", encoding="utf-8") as fh:
                fh.write(f"{type(exc).__name__}: {exc}\n")

    os.makedirs(out_dir, exist_ok=True)
    for name, doc in cells().items():
        output = doc.get("output", {})
        path = os.path.join(out_dir, f"{name}.{output.get('format', 'csv')}")
        doc = dict(doc, output={**output, "path": path})
        play(name, lambda: runner.write_trace(
            runner.execute_run(runner.parse_run_config(doc))))
    for name, doc in sweep_cells().items():
        doc = dict(doc, base={**doc["base"], "output": {"path": os.path.join(out_dir, name)}})
        play(name, lambda: runner.sweep(runner.parse_sweep_config(doc)))


def _read_trace(path: str) -> tuple[list[str], list[list[str]]]:
    """A trace's columns and its rows, each cell as text."""
    with open(path, newline="", encoding="utf-8") as fh:
        if path.endswith(".json"):
            doc = json.load(fh)
            return doc["columns"], [[json.dumps(v) for v in row] for row in doc["rows"]]
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _change(va, vb) -> tuple[float, float]:
    """(absolute, relative) change between two values; inf unless both are numbers."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (va, vb)):
        return math.inf, math.inf
    dabs = abs(va - vb)
    scale = max(abs(va), abs(vb))
    return dabs, dabs / scale if scale > 0.0 else 0.0


def _merge(into: dict[str, tuple[float, float]], key: str, change: tuple[float, float]) -> None:
    old = into.get(key, (0.0, 0.0))
    into[key] = (max(old[0], change[0]), max(old[1], change[1]))


def _trace_changes(a: str, b: str) -> dict[str, tuple[float, float]]:
    """Column -> (largest absolute, largest relative change) over the rows."""
    cols_a, rows_a = _read_trace(a)
    cols_b, rows_b = _read_trace(b)
    if cols_a != cols_b or len(rows_a) != len(rows_b):
        return {"<shape>": (math.inf, math.inf)}
    out: dict[str, tuple[float, float]] = {}
    for row_a, row_b in zip(rows_a, rows_b):
        for col, va, vb in zip(cols_a, row_a, row_b):
            if va != vb:
                _merge(out, col, _change(_number(va), _number(vb)))
    return out


def _leaves(value, key: str = ""):
    """(key, value) for each entry of a summary, a list's as key[i], a mapping's as key.name."""
    if isinstance(value, dict):
        for name, v in value.items():
            yield from _leaves(v, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, value


def _summary_changes(a: str, b: str) -> dict[str, tuple[float, float]]:
    """Key -> (absolute, relative change) for each summary or sweep report entry that changed."""
    with open(a, encoding="utf-8") as fh:
        la = dict(_leaves(json.load(fh)))
    with open(b, encoding="utf-8") as fh:
        lb = dict(_leaves(json.load(fh)))
    out = {}
    for key in sorted(set(la) | set(lb)):
        va, vb = la.get(key), lb.get(key)
        if va != vb:
            out[key] = _change(va, vb)
    return out


def compare(a_dir: str, b_dir: str) -> int:
    names_a, names_b = set(os.listdir(a_dir)), set(os.listdir(b_dir))
    differ = 0
    for name in sorted(names_a ^ names_b):
        side = a_dir if name in names_a else b_dir
        print(f"only in {side}: {name}")
        differ += 1
    columns: dict[str, tuple[float, float]] = {}
    keys: dict[str, tuple[float, float]] = {}
    identical = 0
    for name in sorted(names_a & names_b):
        pa, pb = os.path.join(a_dir, name), os.path.join(b_dir, name)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() == fb.read():
                identical += 1
                continue
        differ += 1
        if name.endswith((".summary.json", ".sweep.json")):
            changes = _summary_changes(pa, pb)
            print(f"differs: {name}: keys " + ", ".join(
                f"{key} ({dabs:.3g} absolute, {drel:.3g} relative)"
                for key, (dabs, drel) in changes.items()))
            for key, change in changes.items():
                _merge(keys, key, change)
        elif name.endswith((".csv", ".json")):
            changes = _trace_changes(pa, pb)
            print(f"differs: {name}: columns {', '.join(changes)}")
            for col, change in changes.items():
                _merge(columns, col, change)
        else:
            print(f"differs: {name}")
    print(f"{differ} files differ, {identical} identical")
    for label, largest in (("", columns), ("summary ", keys)):
        for key, (dabs, drel) in largest.items():
            print(f"  {label}{key}: largest change {dabs:.3g} absolute, {drel:.3g} relative")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", help="directory to write the matrix into")
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="source tree whose lazyoco package plays the runs")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two written matrices instead")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out_dir:
        parser.error("give OUT_DIR or --compare A B")
    write_matrix(args.out_dir, args.src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
