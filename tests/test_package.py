import ast
import importlib
import pathlib
import pkgutil

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


def test_bit_complexity_has_one_definition():
    assert opscale.feasibility.bit_complexity is opscale.relmetrics.bit_complexity
