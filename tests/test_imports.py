"""Every name a module under src/ or tests/ imports is used in that module."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


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
