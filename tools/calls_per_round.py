"""Count the Python-level calls a run makes per round, for each bench workload.

    python tools/calls_per_round.py [--src SRC_DIR]

Builds each workload's `lazyoco run` config from `bench/workloads.py`
(at T = 3 000 and the bench's own seed), then runs `runner.execute_run`
on it in this process under `sys.setprofile`, and prints the `call` and
`c_call` events it saw divided by T: every Python function entered (a
generator resumed included) and every builtin or numpy function called.
The count is deterministic for a given Python and numpy, so it prints
their versions first; the trace is not written.  Uses only the standard
library and the `lazyoco` package under SRC_DIR (default: the `src/`
next to this script).
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

sys.path.insert(0, os.path.join(REPO, "bench"))
from workloads import DEFAULT_SEED, WORKLOADS, run_config  # noqa: E402

DEFAULT_HORIZON = 3000


def calls_per_round(runner, doc: dict) -> float:
    """`call` + `c_call` events of `runner.execute_run` on the config doc, per round."""
    config = runner.parse_run_config(doc)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        runner.execute_run(config)
    finally:
        sys.setprofile(None)
    return count / config.horizon


def count_workloads() -> dict:
    """Workload name -> calls per round, with the `lazyoco` already importable."""
    from lazyoco import runner

    with tempfile.TemporaryDirectory() as work:
        trace = os.path.join(work, "trace.csv")
        return {name: calls_per_round(runner, run_config(w, DEFAULT_SEED, DEFAULT_HORIZON, trace))
                for name, w in WORKLOADS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="directory holding the lazyoco package to count")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    counts = count_workloads()
    print(f"Python {platform.python_version()}, numpy {sys.modules['numpy'].__version__}")
    for name, calls in counts.items():
        print(f"{name}: {calls:.2f} calls per round (T = {DEFAULT_HORIZON}, seed {DEFAULT_SEED})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
