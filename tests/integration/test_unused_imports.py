"""Every name a ``src/repro`` module imports is used in that module.

No linter runs over the tree, so this stdlib-only AST scan is the guard.
Package ``__init__.py`` files are skipped: their imports are re-exports.
A name counts as used when it appears as an identifier anywhere in the
module, including inside string annotations such as ``"Mapping[str, Any]"``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _annotation_names(node: ast.AST) -> set[str]:
    """Identifiers inside the string constants of one annotation."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_import():
    src = "import os\nfrom typing import Any, Mapping\nx: 'Mapping[str, int]' = {}\n"
    assert unused_imports(src) == [(1, "os"), (2, "Any")]


def test_no_unused_imports_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(SRC.parent)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
