"""Every name the benchmark and the demos import from sparsepr still
resolves, and every call they make to one still fits its signature.

perfbench/ and demos/ are scripts outside the test suite's import graph, so
a renamed or deleted public name or parameter would otherwise surface only
when one of them runs.  This reads their imports and calls with ast instead
of running them.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import sparsepr
from sparsepr import numerics

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _sparsepr_imports(path: Path) -> dict[str, tuple[str, str | None]]:
    """The local name each `from sparsepr... import name` binds, mapped to
    (module, name), and each `import sparsepr...` to (module, None),
    anywhere in the file."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "sparsepr" or node.module.startswith("sparsepr."):
                out.update({alias.asname or alias.name: (node.module, alias.name) for alias in node.names})
        elif isinstance(node, ast.Import):
            out.update({alias.asname or alias.name: (alias.name, None) for alias in node.names
                        if alias.name == "sparsepr" or alias.name.startswith("sparsepr.")})
    return out


def _target(module: str, name: str | None):
    """The module, or its attribute or submodule name; None when neither exists."""
    mod = importlib.import_module(module)
    if name is None:
        return mod
    if hasattr(mod, name):
        return getattr(mod, name)
    try:  # `from package import submodule`
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def test_scripts_import_sparsepr():
    assert len(SCRIPTS) >= 8
    assert any(_sparsepr_imports(p) for p in SCRIPTS if p.parent.name == "perfbench")
    assert all(_sparsepr_imports(p) for p in SCRIPTS if p.parent.name == "demos")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_names_resolve(path):
    missing = [f"{mod}.{name}" for mod, name in _sparsepr_imports(path).values() if _target(mod, name) is None]
    assert not missing, f"{path.name} imports names sparsepr no longer has: {missing}"


def _sparsepr_calls(path: Path) -> list[tuple[int, str, object, int, list[str]]]:
    """(line, text, callee, positional count, keyword names) for each call
    of an imported sparsepr name, or of an attribute of one (a module's
    function, a class's method), that passes no *args or **kwargs."""
    names = _sparsepr_imports(path)
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            callee = _target(*names[func.id])
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in names:
            callee = getattr(_target(*names[func.value.id]), func.attr, None)
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(kw.arg is None for kw in node.keywords):
            continue
        out.append((node.lineno, ast.unparse(func), callee, len(node.args), [kw.arg for kw in node.keywords]))
    return out


def test_script_calls_are_found():
    assert sum(len(_sparsepr_calls(p)) for p in SCRIPTS) >= 70


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_calls_bind_to_signatures(path):
    unfit = []
    for line, text, callee, npos, keywords in _sparsepr_calls(path):
        if callee is None:
            unfit.append(f"line {line}: {text} does not exist")
            continue
        try:
            inspect.signature(callee).bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            unfit.append(f"line {line}: {text}: {exc}")
        except ValueError:  # no signature to check (a builtin)
            pass
    assert not unfit, f"{path.name} calls sparsepr with arguments its signatures no longer take: {unfit}"


# Every optional parameter of a function sparsepr exports, and of
# numerics.batched_ranks: each is a knob that tests and callers must cover,
# so adding one means editing this list.
OPTIONAL_PARAMETERS = [
    ("feasible_classes", "tol"),
    ("phase_gen_min_distance", "max_support"),
    ("read_sparse_vector", "field"),
    ("refine_gauss_newton", "iters"),
    ("solve_l0_complex", "tol"),
    ("solve_l0_complex", "allow_heuristic"),
    ("solve_l0_complex", "seed"),
    ("solve_l0_real", "tol"),
]


def test_public_optional_parameters():
    functions = {name: getattr(sparsepr, name) for name in dir(sparsepr) if not name.startswith("_")}
    functions = {name: f for name, f in functions.items() if inspect.isfunction(f)}
    functions["batched_ranks"] = numerics.batched_ranks
    found = [(name, p.name) for name, f in sorted(functions.items())
             for p in inspect.signature(f).parameters.values() if p.default is not p.empty]
    assert found == OPTIONAL_PARAMETERS
