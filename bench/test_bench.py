"""Self-test of the benchmark: every workload at a tiny horizon.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import SELF_TEST_HORIZON, WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def test_contract_names_the_metrics_and_workloads_the_harness_reports():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == dict(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys, monkeypatch):
    monkeypatch.setitem(WORKLOADS, workload,
                        dataclasses.replace(WORKLOADS[workload], horizon=SELF_TEST_HORIZON))
    rc = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SAMPLES
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    printed = {line.split(" = ")[0].strip(): line.rsplit(" ", 1)[1]
               for line in out[:-1] if " = " in line}
    assert printed == dict(expected, failed_share="1")


def test_corrupted_summary_counts_as_failed():
    reference = run.load_reference()[
        run.reference_key(WORKLOADS["scalar_none"], 0, SELF_TEST_HORIZON)]
    good = run.run_child("scalar_none", 0, SELF_TEST_HORIZON, traced=False)
    assert run.tally([good], reference) == 0
    bad = copy.deepcopy(good)
    bad["summary"]["cum_cost"] *= 1.01
    samples = [good, bad]
    assert run.tally(samples, reference) == 1
    assert not samples[0]["problems"]
    assert any("cum_cost" in p for p in samples[1]["problems"])
    # a rerun whose bytes differ from the first repeat also fails
    other = copy.deepcopy(good)
    other["trace_sha256"] = "0" * 64
    assert run.tally([good, other], reference) == 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(CONTRACT["command"] + ["--workload", "scalar_none", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
