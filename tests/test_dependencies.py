"""The runtime dependencies that `pyproject.toml` declares are exactly the
third-party modules that `src/risklab` imports: an unused or undeclared
dependency fails here."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported():
    """Top-level names of the third-party modules imported under
    src/risklab, lazy imports inside functions included."""
    names = set()
    for path in (ROOT / "src" / "risklab").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"risklab"}


def _declared():
    """Names in [project] dependencies, without version specifiers; each
    distribution here is imported under its own name."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9._-]+", dep).group().lower()
            for dep in project["dependencies"]}


def test_declared_dependencies_match_imports():
    assert _imported() == _declared()


def test_numpy_is_the_only_runtime_dependency():
    assert _declared() == {"numpy"}
