"""Every demo script loads: the package names it imports still exist.

Each demo runs its ``main()`` behind a ``__main__`` guard, so executing the
module body checks the imports without running the demo itself.  pytest
puts ``tests/`` on ``sys.path``, so a demo importing a test module (say the
dense ``oracles``) would load here and fail once run on its own; the import
check below catches that.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TEST_MODULES = {p.stem for p in (ROOT / "tests").glob("*.py")}


def imported_modules(source):
    """Top-level names of the modules that ``source`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_module_loads(path):
    test_imports = imported_modules(path.read_text()) & TEST_MODULES
    assert not test_imports, "demo imports test-only modules: " + ", ".join(sorted(test_imports))
    spec = importlib.util.spec_from_file_location("demo_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
