"""`tools/trace_matrix.py --compare`, the byte-identity check between two trace matrices."""

import importlib.util
import json
import pathlib
import shutil

import pytest

from lazyoco import runner

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "trace_matrix.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trace_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_cell(directory, fmt):
    """One small run's trace and summary, plus an error file, as the matrix writes them."""
    directory.mkdir()
    path = str(directory / f"cell.{fmt}")
    runner.write_trace(runner.execute_run(runner.parse_run_config({
        "scenario": {"kind": "alternating_linear", "horizon": 6},
        "learner": {"variant": "llp", "sigma": 1.0, "a": 1.0, "beta": 0.5},
        "output": {"path": path, "format": fmt},
    })))
    (directory / "refused.error").write_text("ConfigurationError: refused\n", encoding="utf-8")
    return path


def shift_cum_cost(path, fmt, row, delta):
    """Add delta to one row's cum_cost in a written trace, keeping its format."""
    col = runner.TRACE_COLUMNS.index("cum_cost")
    text = pathlib.Path(path).read_text(encoding="utf-8")
    if fmt == "csv":
        lines = text.splitlines(keepends=True)
        cells = lines[1 + row].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        lines[1 + row] = ",".join(cells)
        text = "".join(lines)
    else:
        doc = json.loads(text)
        doc["rows"][row][col] += delta
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    pathlib.Path(path).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_compare_names_the_changed_column(tmp_path, capsys, fmt):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    write_cell(a, fmt)
    shutil.copytree(a, b)
    assert tool.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 files differ, 3 identical"]

    shift_cum_cost(b / f"cell.{fmt}", fmt, row=2, delta=1e-3)
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"differs: cell.{fmt}: columns cum_cost"
    assert out[1] == "1 files differ, 2 identical"
    assert out[2].startswith("  cum_cost: largest change 0.001 absolute, ")
    assert len(out) == 3


def test_compare_sizes_a_changed_summary_key(tmp_path, capsys):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    write_cell(a, "csv")
    shutil.copytree(a, b)
    path = b / "cell.csv.summary.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["benchmark_gap"] = 0.25
    x0 = doc["x_star"][0]
    doc["x_star"][0] = 2.0 * x0
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")

    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    gap = json.loads((a / "cell.csv.summary.json").read_text(encoding="utf-8"))["benchmark_gap"]
    assert gap == 0.0 and x0 != 0.0
    assert out == [
        "differs: cell.csv.summary.json: keys benchmark_gap (0.25 absolute, 1 relative), "
        f"x_star[0] ({abs(x0):.3g} absolute, 0.5 relative)",
        "1 files differ, 2 identical",
        "  summary benchmark_gap: largest change 0.25 absolute, 1 relative",
        f"  summary x_star[0]: largest change {abs(x0):.3g} absolute, 0.5 relative",
    ]


def test_compare_sizes_a_changed_sweep_report_key(tmp_path, capsys):
    """A sweep report is compared key by key, as a summary is, not read as a trace."""
    tool = load_tool()
    key = "beta=0.5,T=50,rep=0"
    for side, regret in (("a", 2.0), ("b", 3.0)):
        (tmp_path / side).mkdir()
        report = {"betas": [0.5], "cells": {key: {"regret": regret, "violation_norm": 0.25}}}
        (tmp_path / side / "sweep.sweep.json").write_text(
            json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")

    assert tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"differs: sweep.sweep.json: keys cells.{key}.regret (1 absolute, 0.333 relative)",
        "1 files differ, 0 identical",
        f"  summary cells.{key}.regret: largest change 1 absolute, 0.333 relative",
    ]
