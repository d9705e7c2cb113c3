import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import opscale

# The CLI is the console entry point, not part of the library namespace.
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(opscale.__path__)
                 if m.name != "cli")


def test_package_exports_every_submodule_name_once():
    names = ["__version__"]
    for name in LIBRARY:
        names += importlib.import_module(f"opscale.{name}").__all__
    assert len(names) == len(set(names))
    assert sorted(opscale.__all__) == sorted(names)


def test_every_exported_name_resolves_to_its_definition():
    for name in LIBRARY:
        module = importlib.import_module(f"opscale.{name}")
        for attr in module.__all__:
            assert getattr(opscale, attr) is getattr(module, attr)
    assert isinstance(opscale.__version__, str)


# Load order of the package: each module imports only modules of a lower
# rank, so no import cycle can form and no import needs deferring.
RANK = {"exceptions": 0, "cpmap": 1, "relmetrics": 2, "reduction": 3,
        "scaler": 3, "feasibility": 4, "apps": 5, "cli": 6}
SOURCES = sorted(pathlib.Path(opscale.__file__).parent.glob("*.py"))


def _package_modules(node):
    """The opscale submodules an Import or ImportFrom node reaches."""
    if isinstance(node, ast.Import):
        dotted = [a.name for a in node.names]
    else:
        base = ("opscale." * node.level + (node.module or "")).rstrip(".")
        dotted = [f"{base}.{a.name}" for a in node.names]
    parts = [d.split(".") for d in dotted]
    return {p[1] for p in parts if p[0] == "opscale" and len(p) > 1} & RANK.keys()


def test_every_module_has_a_rank():
    assert sorted(RANK) == sorted(p.stem for p in SOURCES if p.stem != "__init__")


def test_no_import_inside_a_function():
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(fn)
                         if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}:{fn.name} imports at run time"


def test_modules_import_only_lower_ranks():
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in _package_modules(node):
                    assert RANK[target] < RANK[path.stem], (
                        f"{path.stem} imports {target}")


def test_import_loads_no_scipy():
    # One LAPACK and one BLAS thread pool per process: numpy's
    src = str(pathlib.Path(opscale.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, opscale, opscale.cli; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bit_complexity_has_one_definition():
    assert opscale.feasibility.bit_complexity is opscale.relmetrics.bit_complexity


def test_weight_maps_are_type_tested_in_three_places():
    # How a map is stored picks the loop's layout in one place,
    # relmetrics._layout; besides it only the bit size and the support
    # restriction read the storage.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        functions = [n for n in ast.walk(tree)
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and len(call.args) == 2
                    and getattr(call.func, "id", None) == "isinstance"
                    and "_WeightMap" in ast.unparse(call.args[1])):
                continue
            owner = max((f for f in functions
                         if f.lineno <= call.lineno <= f.end_lineno),
                        key=lambda f: f.lineno, default=None)
            found.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    assert sorted(found) == ["relmetrics._layout", "relmetrics.bit_complexity",
                             "scaler.project_to_support"]


TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def _unused_imports(path):
    """(line, name) of every name `path` imports but never reads.

    __future__ imports, star re-exports and lines marked `# noqa: F401` (a
    binding kept for other modules to reach) are exempt; a name read
    anywhere in the module, however deeply nested, counts as used.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
