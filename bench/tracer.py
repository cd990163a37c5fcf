"""Span recording around calls into lazyoco's layers, installed from outside.

`Tracer.install` rebinds public entry points of each layer (module
functions and class methods) to wrappers that record one span per call:
name, start, end and the enclosing span.  Spans stay in memory until the
run ends; `summarize` then turns them into per-layer counts and self times
(a span's duration minus the time its child spans cover) and `dump` writes
them out.  Nothing under `src/` is edited; `uninstall` restores the
original bindings.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# (span name, owner, attribute) for every rebound entry point; owners are
# dotted paths resolved against the imported `lazyoco` package
_ENTRY_POINTS = (
    ("solver.minimize", "learners", "minimize"),
    ("learners.play_round", "learners.LlpLearner", "play_round"),
    ("learners.stats", "learners.LlpLearner", "stats"),
    ("sets.project", "sets.Box", "project"),
    ("sets.argmin_linear", "sets.Box", "argmin_linear"),
    ("analysis.compute_benchmark", "analysis", "compute_benchmark"),
    ("analysis.benchmark_round_costs", "analysis", "benchmark_round_costs"),
    ("runner.write_trace", "runner", "write_trace"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent index or -1)
        self.current = -1
        self.solver_iterations = 0
        self.solver_unconverged = 0
        self._restore: list = []

    def install(self, lazyoco) -> None:
        for name, path, attr in _ENTRY_POINTS:
            owner = lazyoco
            for part in path.split("."):
                owner = getattr(owner, part)
            on_result = self._note_solve if name == "solver.minimize" else None
            self._rebind(owner, attr, name, on_result)
        # every scenario and predictor class that defines its own entry point
        for cls in lazyoco.problems.SCENARIO_KINDS.values():
            if "round" in vars(cls):
                self._rebind(cls, "round", "problems.round")
        for cls in lazyoco.predictors.PREDICTOR_KINDS.values():
            if "bundle_for" in vars(cls):
                self._rebind(cls, "bundle_for", "predictors.bundle_for")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _note_solve(self, result) -> None:
        self.solver_iterations += int(result.iterations)
        if not result.converged:
            self.solver_unconverged += 1

    def _rebind(self, owner, attr, name, on_result=None) -> None:
        original = getattr(owner, attr)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(spans)
            spans.append(None)
            tracer.current = idx
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.current = parent
                spans[idx] = (nid, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def arrays(self) -> dict:
        """The recorded spans as integer columns."""
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        return {"name": table[:, 0], "start_ns": table[:, 1], "end_ns": table[:, 2],
                "parent": table[:, 3]}

    def summarize(self) -> dict:
        """Per span name: call count, self seconds, and every call's duration."""
        cols = self.arrays()
        dur = cols["end_ns"] - cols["start_ns"]
        covered = np.zeros_like(dur)
        nested = cols["parent"] >= 0
        np.add.at(covered, cols["parent"][nested], dur[nested])
        self_ns = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = cols["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_ns[mask].sum()) * 1e-9,
                "durations_ns": dur[mask],
            }
        return out

    def dump(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
