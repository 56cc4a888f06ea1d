import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType
from typing import Dict, List

import wplab

REPO = Path(__file__).resolve().parent.parent


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


def _sources() -> Dict[Path, str]:
    return {path: path.read_text() for d in ("src", "tests", "perfbench") for path in sorted((REPO / d).rglob("*.py"))}


def _unreferenced(sources: Dict[Path, str]) -> List[str]:
    """
    The module-level functions, classes and constants of `src/wplab`, and
    the methods of its classes, that no source names: as a loaded name, an
    attribute or an imported name, in any module, its own too.  Dunders
    are exempt, and so is a method that overrides one of a base class,
    which the base's own code calls.
    """
    trees = {path: ast.parse(text, str(path)) for path, text in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
    unreferenced = []
    for path, tree in trees.items():
        if path.parent != REPO / "src" / "wplab":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            if isinstance(node, ast.ClassDef):
                module = importlib.import_module("wplab" if path.stem == "__init__" else f"wplab.{path.stem}")
                bases = getattr(module, node.name, object).__mro__[1:]
                names += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not any(hasattr(base, item.name) for base in bases)
                ]
            for name in names:
                bare = name.rpartition(".")[2]
                if bare not in named and not (bare.startswith("__") and bare.endswith("__")):
                    unreferenced.append(f"{path.name}: {name}")
    return unreferenced


def test_no_dead_definition_in_src() -> None:
    # no linter runs here: a helper that nothing names any more must go
    assert _unreferenced(_sources()) == []


def test_dead_definition_guard_flags_an_unreferenced_helper() -> None:
    sources = _sources()
    path = REPO / "src" / "wplab" / "brackets.py"
    sources[path] += "\n\ndef _f():\n    return 0\n"
    assert _unreferenced(sources) == ["brackets.py: _f"]


def test_dead_definition_guard_flags_an_unreferenced_method() -> None:
    sources = _sources()
    path = REPO / "src" / "wplab" / "brackets.py"
    head = "    def __len__(self) -> int:\n"
    assert head in sources[path]
    sources[path] = sources[path].replace(head, "    def _g(self):\n        return 0\n\n" + head)
    assert _unreferenced(sources) == ["brackets.py: BracketCache._g"]
    # an override of a base-class method that no source names is exempt
    path = REPO / "src" / "wplab" / "cli.py"
    head = "    def error(self, message):\n"
    assert head in sources[path]
    sources[path] = sources[path].replace(
        head, "    def convert_arg_line_to_args(self, arg_line):\n        return [arg_line]\n\n" + head
    )
    assert _unreferenced(sources) == ["brackets.py: BracketCache._g"]
