"""Every name the benchmark and the demos import from sparsepr still resolves.

perfbench/ and demos/ are scripts outside the test suite's import graph, so
a renamed or deleted public name would otherwise surface only when one of
them runs.  This reads their imports with ast instead of running them.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _sparsepr_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each `from sparsepr... import name`, and
    (module, None) for each `import sparsepr...`, anywhere in the file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "sparsepr" or node.module.startswith("sparsepr."):
                out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name == "sparsepr" or alias.name.startswith("sparsepr.")
            )
    return out


def _resolves(module: str, name: str | None) -> bool:
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:  # `from package import submodule`
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_scripts_import_sparsepr():
    assert len(SCRIPTS) >= 8
    assert any(_sparsepr_imports(p) for p in SCRIPTS if p.parent.name == "perfbench")
    assert all(_sparsepr_imports(p) for p in SCRIPTS if p.parent.name == "demos")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_names_resolve(path):
    missing = [f"{mod}.{name}" for mod, name in _sparsepr_imports(path) if not _resolves(mod, name)]
    assert not missing, f"{path.name} imports names sparsepr no longer has: {missing}"
