"""Every name a package module imports at module level is used in that module,
and every module-level UPPER_CASE constant and private function is read
somewhere in the package.

The one exception to the first is a name that ``perfbench/tracing.py``
wraps there: the tracer swaps module-level names for timing wrappers, so a
few are imported only to be swapped. They are listed here, so that removing
one is a deliberate edit of this list.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "morphbeam"

# Imported but unused in their module: bound only for the tracer to wrap.
TRACER_ONLY = {
    ("morphbeam.bcd", "response_matrix"),
    ("morphbeam.shape_opt", "shape_gradient"),
}


def unused_imports(source: str) -> set[str]:
    "Names bound by the module-level imports of ``source`` that it never reads."
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:     # a name in __all__ is re-exported, so it is used
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return imported - used


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def constant_names(node) -> list[str]:
    "The UPPER_CASE names a module-level statement assigns."
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]


def private_function_names(node) -> list[str]:
    "The name of a module-level ``def _name``, dunders aside."
    if isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
            and not node.name.endswith("__"):
        return [node.name]
    return []


def unread_names(sources: dict[str, str], bound) -> set[tuple[str, str]]:
    """(module, name) for each module-level name ``bound(statement)`` gives that no module reads.

    ``sources`` maps a module's name within the package to its text. A
    name counts as read when its own module loads it or another module
    imports it by a relative import.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    unread = set()
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            unread.update((module, name) for name in bound(node)
                          if name not in loaded and (module, name) not in imported)
    return unread


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def wrap_points() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(point[0], point[1]) for point in module.WRAP_POINTS}


def test_the_checker_sees_an_unused_import():
    source = "import numpy as np\nfrom .objective import column_powers, factor_power\n" \
             "__all__ = ['factor_power']\nx = np.pi\n"
    assert unused_imports(source) == {"column_powers"}


def test_every_module_level_import_is_used():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = "morphbeam" if path.stem == "__init__" else f"morphbeam.{path.stem}"
        unused.update((module, name) for name in unused_imports(path.read_text()))
    assert unused == TRACER_ONLY
    assert TRACER_ONLY <= wrap_points()


def test_the_checker_sees_an_unread_constant():
    sources = {"a": "X = 1\nY: int = 2\n_Z = 3\n\ndef f():\n    return _Z\n",
               "b": "from .a import Y\n__all__ = ['W']\n"}
    assert unread_names(sources, constant_names) == {("a", "X")}


def test_every_module_level_constant_is_read():
    assert unread_names(package_sources(), constant_names) == set()


def test_the_checker_sees_an_unreferenced_private_function():
    sources = {"a": "def _used():\n    pass\n\n\ndef _left():\n    pass\n\n\n"
                    "def _imported():\n    pass\n\n\ndef __getattr__(name):\n    pass\n\n\n"
                    "def f():\n    return _used\n",
               "b": "from .a import _imported\n"}
    assert unread_names(sources, private_function_names) == {("a", "_left")}


def test_every_private_function_is_referenced():
    assert unread_names(package_sources(), private_function_names) == set()
