"""Package-wide checks: the docstring examples run, and the runtime imports stay numpy only."""

import ast
import doctest
import importlib
import pkgutil
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
    # every name in __all__ exists, and every public name __init__ imports is in __all__,
    # so an export cannot outlive its definition or go unlisted
    assert [name for name in strateval.__all__ if not hasattr(strateval, name)] == []
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(n for n in imported if not n.startswith("_")) == sorted(strateval.__all__)
