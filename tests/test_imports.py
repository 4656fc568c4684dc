"""Every name a package module imports is read somewhere in that module, and only errors writes value fields or excludes bool."""

import ast
from pathlib import Path

import pytest

import qpolar

PACKAGE = sorted(Path(qpolar.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]  # __init__ re-exports


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, except on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" not in lines[node.lineno - 1]:
                for alias in node.names:
                    imported.add(alias.asname or alias.name.partition(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_an_unread_name():
    source = "from .gf2 import _perp_masks, _reduce\nimport os.path\n\nmasks = _perp_masks(2)\n"
    assert unused_imports(source) == ["_reduce", "os"]
    assert unused_imports(source.replace("\nimport os.path", "  # noqa: F401\nimport os.path")) == ["os"]
    assert unused_imports(source + "os.path.join(_reduce)\n") == []


def test_only_errors_writes_past_a_frozen_value():
    # errors._Value.__setstate__ and _unchecked are the one write path for value fields
    def bypasses(path):
        return any(
            isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__new__")
            and isinstance(node.value, ast.Name) and node.value.id == "object"
            for node in ast.walk(ast.parse(path.read_text()))
        )

    assert [path.name for path in PACKAGE if bypasses(path)] == ["errors.py"]


def test_only_errors_excludes_bool_from_the_integers():
    # errors._is_int is the one home of the rule that a bool is not an integer
    def excludes_bool(path):
        return any(
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(side, ast.Name) and side.id == "bool" for side in [node.left, *node.comparators])
            for node in ast.walk(ast.parse(path.read_text()))
        )

    assert [path.name for path in PACKAGE if excludes_bool(path)] == ["errors.py"]
