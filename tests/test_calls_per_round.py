"""`tools/calls_per_round.py`: the Python calls a bench workload's round makes stay bounded."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "calls_per_round.py"

# the most `call` + `c_call` events a round may make at T = 3 000; the counts
# were 27.3, 31.5 and 43.1 when these were set (measured on Python 3.11.7 with
# numpy 2.4.6 only), down from 50.25, 38.6 and 59.2, and the bounds keep them
# from creeping back
BOUNDS = {"scalar_none": 36.0, "scalar_perfect": 36.0, "quadratic_noisy": 47.0}


def load_tool():
    spec = importlib.util.spec_from_file_location("calls_per_round", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calls_per_round_stay_under_their_bounds():
    counts = load_tool().count_workloads()
    assert sorted(counts) == sorted(BOUNDS)
    over = {name: calls for name, calls in counts.items() if not calls <= BOUNDS[name]}
    assert over == {}, counts
