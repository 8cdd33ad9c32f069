"""Package-wide checks: the docstring examples run, and the runtime imports stay numpy only."""

import ast
import doctest
import importlib
import json
import os
import pkgutil
import subprocess
import sys
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


def test_public_exports_resolve_and_are_listed():
    # every name in __all__ exists, and every name the package exports on first use is in
    # __all__, so an export cannot outlive its definition or go unlisted
    assert [name for name in strateval.__all__ if not hasattr(strateval, name)] == []
    assert sorted(strateval._MODULE_OF) == sorted(strateval.__all__)
    modules = sorted(info.name for info in pkgutil.iter_modules(strateval.__path__))
    assert sorted(strateval._EXPORTS) == [m for m in modules if m != "__main__"]


def test_a_bare_import_loads_nothing_and_resolves_every_name():
    # run in a fresh interpreter: this one has imported every module already
    code = """
import json, sys
import strateval
loaded = [m for m in sys.modules if m.startswith("strateval.")]
module = lambda name: sys.modules[f"strateval.{name}"]
wrong = [n for n in strateval.__all__
         if getattr(strateval, n) is not getattr(module(strateval._MODULE_OF[n]), n)]
wrong += [m for m in strateval._EXPORTS if getattr(strateval, m) is not module(m)]
listed = set(dir(strateval)) >= {*strateval.__all__, *strateval._EXPORTS}
print(json.dumps([loaded, wrong, listed, hasattr(strateval, "no_such_name")]))
"""
    path = os.pathsep.join([str(SOURCE.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], [], True, False]
