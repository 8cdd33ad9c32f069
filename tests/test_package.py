"""Package-wide checks: the docstring examples run, and the runtime imports stay numpy only."""

import ast
import doctest
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import strateval

SOURCE = Path(strateval.__file__).parent


def test_every_docstring_example_runs():
    attempted = 0
    for info in pkgutil.iter_modules(strateval.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"strateval.{info.name}")
        result = doctest.testmod(module, verbose=False, report=False)
        assert result.failed == 0, f"{module.__name__}: {result.failed} example(s) failed"
        attempted += result.attempted
    assert attempted >= 1


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"numpy", "strateval"}
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


def test_a_bare_import_loads_no_module():
    # run in a fresh interpreter: this one has imported every module already; each
    # name is imported from the module that defines it
    code = """
import json, sys
import strateval
print(json.dumps([[m for m in sys.modules if m.startswith("strateval.")], strateval.__version__]))
"""
    path = os.pathsep.join([str(SOURCE.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], strateval.__version__]
    assert strateval.__version__


def test_version_is_the_project_version():
    # every output's config line is stamped with __version__, so it must be the
    # version pyproject.toml installs the package as
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert strateval.__version__ == project["project"]["version"]
