"""Every name a package module imports at module level is used in that module.

The one exception is a name that ``perfbench/tracing.py`` wraps there: the
tracer swaps module-level names for timing wrappers, so a few are imported
only to be swapped. They are listed here, so that removing one is a
deliberate edit of this list.
"""

import ast
import importlib.util
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
