"""Write reference.json: the learner-side summary fields of every workload instance.

    python3 bench/capture_reference.py

`run.py` compares each sample's summary with these values (see REF_FIELDS
and REF_RTOL there).  They were captured when the benchmark was defined;
capture again only in a change that means to alter what the learners
compute, and say so in that change.  Covers each workload's horizon and the
self-test's horizon, for every input instance.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import SELF_TEST_HORIZON, WORKLOADS


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        for horizon in (workload.horizon, SELF_TEST_HORIZON):
            for seed in range(workload.instances):
                sample = run.run_child(workload.name, seed, horizon, traced=False)
                problems = run.output_problems(sample, reference=None)
                if problems[:-1]:  # the last one is the missing reference itself
                    print(f"{workload.name} seed {seed} T={horizon}: {problems}",
                          file=sys.stderr)
                    return 1
                summary = sample["summary"]
                key = run.reference_key(workload, seed, horizon)
                reference[key] = {k: summary[k] for k in run.REF_FIELDS + ("flag_counts",)}
                print(key, reference[key], flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
