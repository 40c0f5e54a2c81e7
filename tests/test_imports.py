"""Every module-level import in the m2i2 package, and every module-level
``_``-prefixed function or class, is used by its module; and config, which
every other module reads, reads no m2i2 module but errors.

Stdlib only: each module is parsed with ``ast``; a name an import or a
definition binds counts as used when it is read anywhere in the module or
listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import m2i2

PACKAGE = Path(m2i2.__file__).parent


def _read_names(tree: ast.Module) -> set[str]:
    """The names tree reads anywhere, plus those its __all__ lists."""
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported


def _unused(bound: dict[str, int], tree: ast.Module) -> list[str]:
    read = _read_names(tree)
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return _unused(bound, tree)


def unused_private_definitions(source: str) -> list[str]:
    tree = ast.parse(source)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    bound = {n.name: n.lineno for n in tree.body if isinstance(n, defs) and n.name.startswith("_")}
    return _unused(bound, tree)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys as s\nfrom a import b, c\n\ns.exit(c)\n") == [
        "b (line 3)",
        "os (line 1)",
    ]
    assert unused_imports('from .x import f\n__all__ = ["f"]\n') == []


def test_checker_flags_an_unused_private_definition():
    source = "def _a():\n    return _b()\n\ndef _b():\n    pass\n\nclass _C:\n    pass\n\ndef d():\n    pass\n"
    assert unused_private_definitions(source) == ["_C (line 7)", "_a (line 1)"]
    assert unused_private_definitions('def _f():\n    pass\n__all__ = ["_f"]\n') == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_definitions(path):
    assert unused_private_definitions(path.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> set[str]:
    """The m2i2 modules source imports, at any depth, relatively or by name."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "m2i2"):
            module = node.module if node.level else node.module.partition(".")[2]
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[2] for alias in node.names if alias.name.startswith("m2i2.")}
    return found


def test_checker_finds_package_imports():
    source = "import os\nfrom . import text\nfrom .model import X\nimport m2i2.vision\ndef f():\n    from m2i2.tensor import T\n"
    assert package_imports(source) == {"text", "model", "vision", "tensor"}
    assert package_imports("from m2i2 import trainer\nimport numpy\n") == {"trainer"}


def test_config_imports_only_errors():
    assert package_imports((PACKAGE / "config.py").read_text(encoding="utf-8")) == {"errors"}


def reads_name(source: str, name: str) -> bool:
    """Whether source imports name, or reads it as a name or an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(alias.name == name for alias in node.names):
            return True
        if (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name):
            return True
    return False


def test_checker_finds_a_read_name():
    assert reads_name("from .model import text_width\n", "text_width")
    assert reads_name("import m2i2.model as m\nw = m.text_width(ids)\n", "text_width")
    assert not reads_name("def f(text_widths):\n    return 'text_width'\n", "text_width")


def test_only_the_model_decides_the_text_width():
    # the forwards cut their own ids, so callers pass them as tokenize makes them
    readers = {p.name for p in PACKAGE.glob("*.py") if reads_name(p.read_text(encoding="utf-8"), "text_width")}
    assert readers == {"model.py"}
