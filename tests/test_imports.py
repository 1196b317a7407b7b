"""Every name a package module imports is used in that module, and every
function one package module imports from another, or the benchmark's
tracer wraps by name, can be traced; no module but ``lp`` uses the LP, and
no package module imports the tests' oracles."""
import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropcount"
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a quoted annotation such as -> "IntMatrix"
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    assert sorted(imported_names(tree) - used_names(tree)) == []


def tracer_constant(name: str):
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    )


def test_cross_module_functions_are_traceable():
    # the benchmark's tracer wraps each such function as a span of the
    # defining module's layer, so that module must be a layer, and a
    # generator's span would not cover its work
    layers = tracer_constant("LAYERS")
    untraceable = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                source = importlib.import_module(f"tropcount.{node.module}")
                for alias in node.names:
                    fn = getattr(source, alias.name)
                    if inspect.isfunction(fn) and (node.module not in layers or inspect.isgeneratorfunction(fn)):
                        untraceable.add(f"{node.module}.{alias.name}")
    assert sorted(untraceable) == []


def test_tracer_attribute_calls_resolve():
    # the tracer wraps these by name, so a traced run stops with an
    # AttributeError when one of them is gone
    for module, name in tracer_constant("ATTRIBUTE_CALLS"):
        fn = getattr(importlib.import_module(f"tropcount.{module}"), name, None)
        assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn), f"{module}.{name}"


def test_lp_has_no_user_outside_lp():
    # faces, witnesses and path-cone verdicts are read off extreme rays; the
    # LP stays as the tests' reference, and no command loads it
    lp = importlib.import_module("tropcount.lp")
    lp_names = {"lp", *(name for name, value in vars(lp).items() if getattr(value, "__module__", None) == lp.__name__)}
    for path in MODULES:
        if path.name != "lp.py":
            tree = ast.parse(path.read_text())
            modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
            # attribute uses, bare names and imported names
            names = {getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(tree)}
            names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
            assert "lp" not in modules and not names & lp_names, path.name
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, tropcount.cli; print('tropcount.lp' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert loaded.stdout == "False\n"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_package_module_imports_the_oracles(path):
    # tests/oracles.py checks the engine by other means, so the engine must
    # not run it: neither ``oracles`` nor anything under ``tests`` is imported
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert sorted(name for name in imported if {"oracles", "tests"} & set(name.split("."))) == []
