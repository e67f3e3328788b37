"""Every name a ``src/repro`` module imports is used in that module.

Package ``__init__.py`` files re-export by importing, so they are exempt,
as are names a module lists in its own ``__all__``.  A name counts as used
when it appears anywhere in the module's syntax tree, including inside a
string annotation.  Only the standard library's ``ast`` is needed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module (``__future__`` aside)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(node: ast.AST | None) -> set[str]:
    """Names inside string annotations such as ``-> "StoppingCriterion"``."""
    found = set()
    for sub in ast.walk(node) if node is not None else ():
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            found |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return found


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports() -> list[str]:
    """``path:line name`` for each import its module never uses."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = _used(tree) | _exported(tree)
        for name, line in _imported(tree).items():
            if name not in exempt:
                found.append(f"{path.relative_to(SRC).as_posix()}:{line} {name}")
    return found


def test_no_unused_imports():
    unused = unused_imports()
    assert not unused, f"imported but never used: {unused}"
