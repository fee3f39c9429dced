"""The runtime is stdlib-only: ``pyproject.toml`` lists no dependencies, and
every module of the package imports from the standard library alone."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tabacktest"


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 12
    outside = [(path.name, name) for path in modules for name in _absolute_imports(path)
               if name.split(".")[0] not in (*sys.stdlib_module_names, "__future__")]
    assert outside == []
