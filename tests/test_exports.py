import importlib
import pkgutil
from types import ModuleType

import wplab


def _modules():
    return [importlib.import_module(f"wplab.{m.name}") for m in pkgutil.iter_modules(wplab.__path__)]


def test_every_module_export_resolves() -> None:
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"


def test_package_reexports_only_module_exports() -> None:
    exported = {name for mod in _modules() for name in getattr(mod, "__all__", ())}
    public = {
        name
        for name, value in vars(wplab).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public and public <= exported, sorted(public - exported)
