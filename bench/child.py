"""One benchmark run of one workload, in a fresh interpreter.

Runs the public run path (`parse_run_config` -> `execute_run` ->
`write_trace`) on the workload's config, times each stage, replays the
scenario to check the comparator, and prints one JSON object on its last
stdout line.  `run.py` starts one of these per sample, one at a time.

    python3 bench/child.py --workload NAME --seed N --horizon T --trace 0|1 --work DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

sys.path.insert(0, HERE)
from workloads import WORKLOADS, run_config  # noqa: E402

# the offline benchmark admits points within 1e-9 of a round's constraint
# boundary (analysis._FEAS_TOL); allow that plus rounding
FEAS_TOL = 2e-9
# the comparator's reported total cost must equal the replayed sum up to
# summation order
COST_RTOL = 1e-9


def _sha256(path: str) -> tuple[str, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def check_comparator(lazyoco, config, summary: dict) -> list[str]:
    """Replay the scenario and check the summary's comparator against it.

    `x_star` must satisfy every round's constraint, and `optimal_total_cost`
    must equal the replayed sum of round costs at `x_star`.  The comparator
    is not compared with a stored reference, so a better one still passes.
    """
    if not summary.get("benchmark_feasible") or summary.get("x_star") is None:
        return ["comparator reported infeasible"]
    import numpy as np

    x = np.asarray(summary["x_star"], dtype=float)
    scenario = lazyoco.make_scenario(config.scenario_kind, horizon=config.horizon,
                                     dimension=config.dimension,
                                     constraints=config.constraints,
                                     seed=config.seed, params=config.params)
    total = 0.0
    worst = -math.inf
    for t in range(1, config.horizon + 1):
        oracle = scenario.round(t)
        total += float(oracle.cost(x)[0])
        worst = max(worst, float(np.max(oracle.constraint(x)[0])))
    problems = []
    if worst > FEAS_TOL:
        problems.append(f"x_star violates a round constraint by {worst:.3g}")
    reported = summary.get("optimal_total_cost")
    if not isinstance(reported, (int, float)) or \
            abs(reported - total) > COST_RTOL * max(1.0, abs(total)):
        problems.append(f"optimal_total_cost {reported!r} != replayed sum {total!r}")
    return problems


def layer_metrics(summary_by_name: dict, horizon: int) -> dict:
    """Per-layer counts and self times from a traced run's span summary."""
    def calls(name):
        return summary_by_name.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary_by_name.get(name, {}).get("self_s", 0.0)

    play = summary_by_name["learners.play_round"]["durations_ns"]
    import numpy as np

    p50, p99 = np.percentile(play, [50, 99]) * 1e-3
    return {
        "problems.round_calls_per_round": calls("problems.round") / horizon,
        "problems.round_s": self_s("problems.round"),
        "predictors.bundle_calls": calls("predictors.bundle_for"),
        "predictors.bundle_s": self_s("predictors.bundle_for"),
        "sets.project_calls_per_round": calls("sets.project") / horizon,
        "sets.argmin_linear_calls_per_round": calls("sets.argmin_linear") / horizon,
        "sets.s": self_s("sets.project") + self_s("sets.argmin_linear"),
        "solver.minimize_calls_per_round": calls("solver.minimize") / horizon,
        "solver.minimize_s": self_s("solver.minimize"),
        "learners.play_round_self_s": self_s("learners.play_round"),
        "learners.play_round_p50_us": float(p50),
        "learners.play_round_p99_us": float(p99),
        "learners.stats_calls": calls("learners.stats"),
        "learners.stats_s": self_s("learners.stats"),
        "analysis.compute_benchmark_s": self_s("analysis.compute_benchmark"),
        "analysis.benchmark_round_costs_s": self_s("analysis.benchmark_round_costs"),
        "runner.write_trace_s": self_s("runner.write_trace"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--horizon", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="directory for the trace files")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    base = os.path.join(args.work, f"{workload.name}-{os.getpid()}")
    trace_path = base + ".csv"
    doc = run_config(workload, args.seed, args.horizon, trace_path)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import lazyoco
    from lazyoco import runner

    config = runner.parse_run_config(doc)
    t1 = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(lazyoco)
    t2 = time.perf_counter()
    result = runner.execute_run(config)
    t3 = time.perf_counter()
    runner.write_trace(result)
    t4 = time.perf_counter()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "workload": workload.name,
        "seed": args.seed,
        "horizon": args.horizon,
        "traced": bool(args.trace),
        "lazyoco_file": lazyoco.__file__,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "setup_s": t1 - t0,
        "execute_s": t3 - t2,
        "write_s": t4 - t3,
        "us_per_round": (t3 - t2) / args.horizon * 1e6,
        "run_s": t4 - t2,
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.summarize()
        layers = layer_metrics(spans, args.horizon)
        layers["solver.iterations"] = tracer.solver_iterations
        layers["solver.unconverged"] = tracer.solver_unconverged
        out["layers"] = layers
        tracer.dump(os.path.join(args.work, f"{workload.name}.spans.npz"))

    trace_sha, trace_bytes = _sha256(trace_path)
    summary_sha, summary_bytes = _sha256(trace_path + ".summary.json")
    os.remove(trace_path)
    os.remove(trace_path + ".summary.json")
    out.update(trace_sha256=trace_sha, summary_sha256=summary_sha,
               trace_bytes=trace_bytes + summary_bytes, summary=result.summary,
               comparator_problems=check_comparator(lazyoco, config, result.summary))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
