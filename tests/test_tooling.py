"""Source-level rules that hold across the package's modules."""

import ast
from pathlib import Path

import staralg

SRC = Path(staralg.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    """``_``-prefixed names a module imports from another staralg module.

    Dunder names such as ``__version__`` are public by convention and allowed.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "staralg":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno} imports {name} from {node.module or '.'}")
    return found


def test_modules_import_no_private_names_from_each_other():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, "\n".join(found)
