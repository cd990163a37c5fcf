"""Benchmark of `lazyoco run`: end-to-end and per-layer metrics of one workload.

    python3 bench/run.py --workload scalar_none --seed 0 --seconds 40 --trace 0

Starts `child.py` once per sample, one process at a time, until the time
budget is spent, checks every sample's output, prints each metric with its
unit, writes every sample and the machine description to
`bench/results/<workload>-seed<seed>-T<horizon>-trace<k>.json`, and ends with one JSON
line: `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones (medians over the samples); with
`--trace 1`, traced and untraced samples alternate and the metrics are the
per-layer ones.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, WORKLOADS, reference_key  # noqa: E402

# every run makes at least this many samples of each kind it reports, so
# that repeats can be compared byte for byte and medians exist
MIN_SAMPLES = 3
# one sample may not take longer than this; a run must end within 180 s
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0

# summary fields that must be finite numbers
FINITE_FIELDS = ("cum_cost", "regret", "violation_norm", "h_cum")
# learner-side fields compared with the reference captured at the commit
# that defined the benchmark.  REF_RTOL is loose enough for solve paths that
# move trace floats at the solver-tolerance level (rows within 6e-10) and
# tight enough to catch a changed learner; magnitudes below 1 are compared
# absolutely.
REF_FIELDS = ("cum_cost", "violation_norm", "h_cum", "xi_sq_cum")
REF_RTOL = 1e-6
# fixed-point fallback flags describe which solve path a round took, not its
# output; a single-solve fixed point removes them, so they are reported as
# learners.fallback_rounds and left out of the flag comparison
FALLBACK_FLAGS = ("tie_resolved", "prediction_unresolved")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("us_per_round", "us"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("problems.round_calls_per_round", "1/round"),
    ("problems.round_s", "s"),
    ("predictors.bundle_calls", "count"),
    ("predictors.bundle_s", "s"),
    ("sets.project_calls_per_round", "1/round"),
    ("sets.argmin_linear_calls_per_round", "1/round"),
    ("sets.s", "s"),
    ("solver.minimize_calls_per_round", "1/round"),
    ("solver.iterations", "count"),
    ("solver.unconverged", "count"),
    ("solver.minimize_s", "s"),
    ("learners.play_round_self_s", "s"),
    ("learners.play_round_p50_us", "us"),
    ("learners.play_round_p99_us", "us"),
    ("learners.fallback_rounds", "count"),
    ("learners.stats_calls", "count"),
    ("learners.stats_s", "s"),
    ("analysis.compute_benchmark_s", "s"),
    ("analysis.benchmark_round_costs_s", "s"),
    ("runner.write_trace_s", "s"),
    ("runner.trace_bytes", "B"),
    ("runner.rows_written", "count"),
    ("trace.overhead_pct", "%"),
)
# per-layer metrics that are counts: they must repeat exactly across samples
COUNTS = {name for name, unit in PER_LAYER if unit in ("count", "1/round", "B")}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, horizon: int, traced: bool) -> dict:
    """Run one sample in a fresh interpreter; a failure becomes `{"error": ...}`."""
    work = os.path.join(RESULTS, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--horizon", str(horizon), "--trace", str(int(traced)),
           "--work", work]
    # single-threaded numerics: the workloads are one process with no threads
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {CHILD_TIMEOUT_S} s",
                "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced, "error": f"exit {proc.returncode}: {tail[0]}",
                "wall_s": wall}
    try:
        sample = json.loads(lines[-1])
    except ValueError:
        return {"traced": traced, "error": f"unreadable result: {lines[-1][:200]}",
                "wall_s": wall}
    sample["wall_s"] = wall
    return sample


def output_problems(sample: dict, reference: dict | None) -> list[str]:
    """What is wrong with one sample's output, apart from byte identity."""
    if "error" in sample:
        return [sample["error"]]
    problems = list(sample.get("comparator_problems", []))
    lazyoco_dir = os.path.join(ROOT, "src", "lazyoco")
    if os.path.dirname(os.path.abspath(sample["lazyoco_file"])) != lazyoco_dir:
        problems.append(f"imported lazyoco from {sample['lazyoco_file']}")
    summary = sample["summary"]
    for key in FINITE_FIELDS:
        v = summary.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"summary {key} is not finite: {v!r}")
    if reference is None:
        problems.append("no reference summary for this workload, horizon and seed")
        return problems
    for key in REF_FIELDS:
        got, want = summary.get(key), reference[key]
        if not isinstance(got, (int, float)) or \
                abs(got - want) > REF_RTOL * max(1.0, abs(want)):
            problems.append(f"summary {key} {got!r} differs from reference {want!r}")

    def flags(counts):
        return {k: v for k, v in counts.items() if k not in FALLBACK_FLAGS}

    if flags(summary.get("flag_counts", {})) != flags(reference["flag_counts"]):
        problems.append(f"flag_counts {summary.get('flag_counts')} differ from "
                        f"reference {reference['flag_counts']}")
    return problems


def tally(samples: list[dict], reference: dict | None) -> int:
    """Mark each sample's `problems` and return how many failed.

    Besides each sample's own checks, every repeat of a workload and seed
    must write the same trace and summary bytes as the first sample that ran.
    """
    first = None
    failed = 0
    for s in samples:
        s["problems"] = output_problems(s, reference)
        if "error" not in s:
            digest = (s["trace_sha256"], s["summary_sha256"])
            if first is None:
                first = digest
            elif digest != first:
                s["problems"].append("trace or summary bytes differ from the first repeat")
        failed += bool(s["problems"])
    return failed


def _median(values):
    return statistics.median(values) if values else math.nan


def end_to_end_metrics(samples: list[dict]) -> dict:
    good = [s for s in samples if not s["problems"] and not s["traced"]]
    return {name: _median([s[name] for s in good]) for name, _ in END_TO_END}


def per_layer_metrics(samples: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the traced samples' layer timings, and their exact counts."""
    traced = [s for s in samples if not s["problems"] and s["traced"]]
    # samples alternate untraced, traced; comparing each traced sample with the
    # untraced one just before it keeps slow drift of the machine out of the
    # tracing overhead
    pairs = [(u, t) for u, t in zip(samples[::2], samples[1::2])
             if not u["problems"] and not t["problems"]]
    problems = []
    if not pairs:
        return {}, ["no good pair of untraced and traced samples"]
    for s in traced:
        flag_counts = s["summary"].get("flag_counts", {})
        s["layers"]["learners.fallback_rounds"] = sum(
            flag_counts.get(k, 0) for k in FALLBACK_FLAGS)
        s["layers"]["runner.trace_bytes"] = s["trace_bytes"]
        s["layers"]["runner.rows_written"] = s["summary"]["rows_written"]
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_pct":
            out[name] = _median([(t["us_per_round"] / u["us_per_round"] - 1.0) * 100.0
                                 for u, t in pairs])
            continue
        values = [s["layers"][name] for s in traced]
        if name in COUNTS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs across traced samples: {values}")
            out[name] = values[0]
        else:
            out[name] = _median(values)
    return out, problems


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # keep git from reporting an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Take samples for `seconds` (at least MIN_SAMPLES of each kind needed)."""
    horizon = WORKLOADS[workload].horizon
    kinds = (False, True) if trace else (False,)
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = kinds[len(samples) % len(kinds)]
        samples.append(run_child(workload, seed, horizon, traced))
        elapsed = time.perf_counter() - start
        longest = max(s["wall_s"] for s in samples)
        enough = len(samples) >= MIN_SAMPLES * len(kinds)
        if (enough and elapsed + longest > seconds) or elapsed + longest > RUN_LIMIT_S:
            break
    reference = load_reference().get(reference_key(WORKLOADS[workload], seed, horizon))
    failed = tally(samples, reference)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "horizon": horizon, "attempted": len(samples), "failed": failed,
              "samples": samples}
    if trace:
        record["metrics"], layer_problems = per_layer_metrics(samples)
        if layer_problems:
            record["failed"] = len(samples)
            record["layer_problems"] = layer_problems
        units = PER_LAYER
    else:
        record["metrics"] = end_to_end_metrics(samples)
        units = END_TO_END
    record["units"] = dict(units)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "lazyoco", "__init__.py")):
        print(f"error: no lazyoco sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    good = [s for s in record["samples"] if "error" not in s]
    record["machine"] = dict(machine(), numpy=good[0]["numpy"] if good else None)
    record["horizons"] = {name: w.horizon for name, w in WORKLOADS.items()}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-T{record['horizon']}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for s in record["samples"]:
        for problem in s["problems"]:
            print(f"FAILED sample: {problem}")
    for problem in record.get("layer_problems", []):
        print(f"FAILED trace: {problem}")
    m = record["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} commit={m['commit']}")
    print(f"workload {args.workload} seed {args.seed} horizon {record['horizon']}: "
          f"{record['attempted']} samples, results in {os.path.relpath(path, ROOT)}")
    print(f"  failed_share = {record['failed'] / record['attempted']:.4g} 1")
    metrics = record["metrics"]
    for name, unit in record["units"].items():
        print(f"  {name} = {metrics.get(name, math.nan):.6g} {unit}")
    if not metrics or any(not math.isfinite(v) for v in metrics.values()):
        print("error: no good sample to take metrics from", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in record["units"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
