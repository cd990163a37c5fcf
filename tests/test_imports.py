"""Every name a module under src/ or tests/ imports is used in that module,
each module of the package imports only the layers below it, and every name
the benchmark tracer rebinds still exists."""

import ast
import importlib.util
import pathlib
import re

import pytest

import lazyoco

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
PACKAGE = ROOT / "src" / "lazyoco"
# the layers in the order the package docstring lists them, lowest first
LAYERS = re.findall(r"`(\w+)`", ast.get_docstring(ast.parse(
    (PACKAGE / "__init__.py").read_text(encoding="utf-8"))))


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, with their lines.

    A name listed in the module's `__all__` counts as read, and
    `from __future__` imports are directives, not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "import xml.etree\n"
              "from math import inf, pi as PI, sqrt\n"
              "__all__ = ['inf']\n"
              "def f(x):\n"
              "    return xml.etree, osp.join, sqrt(x)\n")
    assert unused_imports(source) == ["PI (line 5)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> set[str]:
    """The sibling modules `source` imports, as `from .x import ...` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_package_imports_are_found():
    source = ("from . import runner, cli\n"
              "from .sets import Box\n"
              "from .solver.inner import step\n"
              "from numpy import array\n"
              "def f():\n"
              "    from .analysis import regret_certificate\n")
    assert package_imports(source) == {"runner", "cli", "sets", "solver", "analysis"}


def test_every_module_is_a_listed_layer():
    assert LAYERS == ["sets", "problems", "predictors", "solver", "learners", "analysis",
                      "runner", "cli"]
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("layer", LAYERS)
def test_module_imports_only_lower_layers(layer):
    source = (PACKAGE / f"{layer}.py").read_text(encoding="utf-8")
    below = set(LAYERS[:LAYERS.index(layer)])
    assert package_imports(source) - below == set()


def test_benchmark_tracer_names_resolve():
    """`bench/run.py --trace 1` rebinds these entry points by name, and a renamed or
    moved one breaks it; the scenario and predictor entry points are rebound only
    on classes that define them in their own body."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, path, attr in tracer._ENTRY_POINTS:
        owner = lazyoco
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr)), f"{path}.{attr}"
    for kinds, attr in ((lazyoco.problems.SCENARIO_KINDS, "round"),
                        (lazyoco.predictors.PREDICTOR_KINDS, "bundle_for")):
        for cls in kinds.values():
            assert attr in vars(cls), f"{cls.__name__}.{attr}"
