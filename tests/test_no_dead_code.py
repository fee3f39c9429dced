"""Nothing in the package is left that nothing calls: every module-level
function and class of ``src/tabacktest`` is named by code somewhere else
in the package, or is public API listed in ``__all__``."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tabacktest"


def _names(node: ast.AST) -> set[str]:
    """The names ``node`` reads, as a bare name or as an attribute."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_module_level_function_and_class_is_named_elsewhere():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    public = set(ast.literal_eval(next(
        node.value for node in trees["__init__.py"].body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")))
    definitions = [(module, node) for module, tree in trees.items() for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(definitions) > 50
    # what each top-level statement names; a definition naming itself does not count
    named = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    unused = [f"{module[:-3]}.{node.name}" for module, node in definitions
              if node.name not in public
              and not any(node.name in names for other, names in named if other is not node)]
    assert unused == []
