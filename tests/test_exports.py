import ast
import importlib
import pkgutil
from pathlib import Path
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


def test_every_name_the_traced_benchmark_wraps_resolves(monkeypatch) -> None:
    # perfbench's traced run swaps each (module, attr) of WRAPS for a
    # timing wrapper through getattr, so a missing name ends that run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert {(mod.__name__, attr) for mod, attr, _ in workloads.WRAPS} >= {
        (f"wplab.{mod}", "eval_numeric") for mod in ("exact", "lab", "volumes", "random_model")
    }
    for mod, attr, _ in workloads.WRAPS:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"


def test_no_unused_import_in_src() -> None:
    # no linter runs here: every name a module imports must be read in it
    unused = []
    for path in sorted(Path(wplab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert not unused, unused
