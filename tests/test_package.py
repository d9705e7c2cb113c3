import importlib
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
