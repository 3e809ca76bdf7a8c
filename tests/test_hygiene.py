"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "convexkit"


def unused_imports(path: Path) -> list:
    """Names a module imports but never reads, as "file:line name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export.
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert [hit for path in modules for hit in unused_imports(path)] == []
