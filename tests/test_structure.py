"""Module boundaries of the library, checked on its source."""

import ast
from pathlib import Path

import pytest

import varalloc

SOURCES = sorted(Path(varalloc.__file__).resolve().parent.glob("*.py"))


def private_reaches(tree: ast.Module) -> list[str]:
    """Where a module reaches into another module's private names: an import
    of a `_`-prefixed name from a sibling module, or a `_`-prefixed keyword
    passed to a callable imported from elsewhere (directly or as `Name.attr`)."""
    found, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                if node.level and alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: imports {alias.name}")
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        root = node.func
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in imported:
            found.extend(
                f"line {node.lineno}: passes {kw.arg}= to {root.id}"
                for kw in node.keywords if kw.arg and kw.arg.startswith("_")
            )
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_reaches_into_another(path):
    assert private_reaches(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_guard_sees_both_kinds_of_reach():
    source = (
        "from .policies import _MAX_HORIZON, PolicyConfig\n"
        "from .estimation import RidgeState\n"
        "RidgeState(2, _pending=[])\n"
        "RidgeState.of(x, y, 1.0, _pending=[])\n"
        "PolicyConfig(horizon=_MAX_HORIZON)\n"
    )
    assert private_reaches(ast.parse(source)) == [
        "line 1: imports _MAX_HORIZON",
        "line 3: passes _pending= to RidgeState",
        "line 4: passes _pending= to RidgeState",
    ]
