"""The runtime dependencies that `pyproject.toml` declares are exactly the
third-party modules that `src/risklab` imports: an unused or undeclared
dependency fails here. So does an unused import in `src/risklab`, or a
function, class or module constant there that nothing outside the tests
reads."""

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


def _unused_imports(path):
    """Module-level import bindings of `path` that nothing in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in bound.items() if name not in read)


def test_no_unused_import_in_src():
    # __init__.py's imports are the public surface; test_readme checks them
    # against __all__
    unused = [entry for path in sorted((ROOT / "src" / "risklab").rglob("*.py"))
              if path.name != "__init__.py" for entry in _unused_imports(path)]
    assert unused == []


# Acceptance criteria 01-02 check the capm optimizer and beta directly;
# no stage of the laboratory runs them yet
NO_CALLER_YET = {("capm", "min_variance_portfolio"),
                 ("capm", "tangency_portfolio"), ("capm", "cml"),
                 ("capm", "beta")}


def _loads(node):
    """The bare names that `node` reads."""
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def _reads(tree):
    """What `tree` reads: the bare names, and each attribute read off a name
    that an import from risklab binds."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0]
                           for alias in node.names
                           if alias.name.split(".")[0] == "risklab")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "risklab"):
            modules.update(alias.asname or alias.name for alias in node.names)
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in modules}
    return _loads(tree), attrs


def _imports_of(tree, name):
    """The names under which `tree` imports `name` from risklab."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.split(".")[0] == "risklab")
            for alias in node.names if alias.name == name}


def _defined(top):
    """The names a top-level statement defines: a function's or a class's,
    or each name a module-level assignment binds."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, ast.Assign):
        targets = top.targets
    elif isinstance(top, ast.AnnAssign):
        targets = [top.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]


def _without_callers():
    """(module, name) of each top-level function, class and module constant
    of src/risklab that no code in src/risklab or benchmark reads, outside
    its own statement; `__all__` is the public surface. A re-export is no
    read: importing a name is not calling it."""
    src = sorted((ROOT / "src" / "risklab").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in src + sorted((ROOT / "benchmark").glob("*.py"))}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    found = set()
    for path in src:
        body = trees[path].body
        loads = [_loads(top) for top in body]
        for i, top in enumerate(body):
            names = set(_defined(top)) - {"__all__"}
            names.difference_update(*loads[:i], *loads[i + 1:])
            for name in names:
                if not any(name in reads[other][1]
                           or _imports_of(trees[other], name) & reads[other][0]
                           for other in trees if other != path):
                    found.add((path.stem, name))
    return found


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    assert _without_callers() == NO_CALLER_YET
