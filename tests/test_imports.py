"""Every module-level import in the m2i2 package is used by its module.

Stdlib only: each module is parsed with ``ast``; a name an import binds
counts as used when it is read anywhere in the module or listed in its
``__all__``.
"""

import ast
from pathlib import Path

import pytest

import m2i2

PACKAGE = Path(m2i2.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys as s\nfrom a import b, c\n\ns.exit(c)\n") == [
        "b (line 3)",
        "os (line 1)",
    ]
    assert unused_imports('from .x import f\n__all__ = ["f"]\n') == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
