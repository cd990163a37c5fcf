"""The benchmark's workloads and the run configs they feed to `lazyoco`.

Each workload is one `lazyoco run` config.  The benchmark seed picks one of
a workload's input instances; the scenario and predictor seeds are derived
from that instance, so the same seed always gives the same inputs.  The
reasons for each workload are in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
# the self-test runs every workload at this horizon
SELF_TEST_HORIZON = 200

_LEARNER = {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int
    record_every: int
    scenario: dict
    predictor: dict
    # number of distinct inputs the seed chooses among; a reference summary
    # is captured for each (reference.json)
    instances: int


WORKLOADS = {
    w.name: w for w in (
        # horizon 20 000 sits on the keep-records side of the runner's
        # _KEEP_RECORDS_MAX_T cutoff (T <= 20 000), so execute_run holds every
        # RoundRecord as well as every trace row: peak_rss_mb includes both
        Workload(name="scalar_none", horizon=20000, record_every=1,
                 scenario={"kind": "alternating_linear"},
                 predictor={"kind": "none"}, instances=1),
        Workload(name="scalar_perfect", horizon=4000, record_every=100,
                 scenario={"kind": "alternating_linear"},
                 predictor={"kind": "perfect"}, instances=1),
        Workload(name="quadratic_noisy", horizon=10000, record_every=100,
                 scenario={"kind": "random_quadratic", "dimension": 5, "constraints": 3},
                 predictor={"kind": "noisy", "level": 0.3}, instances=32),
    )
}


def instance_of(workload: Workload, seed: int) -> int:
    """The input instance a benchmark seed selects.

    `alternating_linear` with the `none` or `perfect` predictor draws no
    randomness, so the scalar workloads have a single instance.
    """
    return seed % workload.instances


def run_config(workload: Workload, seed: int, horizon: int, trace_path: str) -> dict:
    """The `lazyoco run` config document for one run of a workload."""
    inst = instance_of(workload, seed)
    return {
        "scenario": dict(workload.scenario, horizon=horizon, seed=2 * inst),
        "learner": dict(_LEARNER),
        "predictor": dict(workload.predictor, seed=2 * inst + 1),
        "benchmark": {"kind": "X_T"},
        "output": {"path": trace_path, "record_every": workload.record_every},
    }


def reference_key(workload: Workload, seed: int, horizon: int) -> str:
    return f"{workload.name}/T={horizon}/instance={instance_of(workload, seed)}"
