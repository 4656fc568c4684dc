"""Every name a package module imports is read somewhere in that module, each public name is written once,
only errors writes value fields or excludes bool, and only gf2 takes a form parity."""

import ast
import importlib
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


def test_only_gf2_takes_a_form_parity():
    # gf2._form is the one evaluation of the form on packed keys: no other module
    # takes a parity ``<call>.bit_count() & 1``
    def takes_parity(path):
        return any(
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Attribute)
            and node.left.func.attr == "bit_count"
            and isinstance(node.right, ast.Constant) and node.right.value == 1
            for node in ast.walk(ast.parse(path.read_text()))
        )

    assert [path.name for path in PACKAGE if takes_parity(path)] == ["gf2.py"]


REEXPORTED = ["errors", "gf2", "gf2n", "geometry", "pauli", "verify"]  # in the order __init__ star-imports them
PUBLIC = {
    "CAPS", "CapacityError", "Check", "DimensionMismatch", "DomainError", "ExactMatrix", "FieldElement", "GQReport",
    "IdentityWordError", "MODULI", "NotABasisError", "PolarSpaceParams", "QPolarError", "Spread", "Subspace",
    "SymplecticVector", "VerificationReport", "ZeroVectorError", "all_points", "all_words", "canonical_json",
    "commutation_sweep", "commutes", "commutes_matrix", "desarguesian_spread", "dual_basis", "elements",
    "enumerate_generators", "enumerate_spreads", "fmul", "gq22_structure_check", "is_maximal_isotropic",
    "is_totally_isotropic", "main", "mcs_of_generator", "one", "params", "pauli_matrix", "pauli_to_vector",
    "perp_census", "polynomial_basis", "rref", "run_verification", "span_points", "sp_form", "trace", "validate_word",
    "vector_to_pauli", "zero", "__version__",
}


def test_each_public_name_is_written_once_in_the_module_that_defines_it():
    lists = []
    for name in REEXPORTED:
        module = importlib.import_module(f"qpolar.{name}")
        assert "__all__" in vars(module), name
        tree = ast.parse(Path(module.__file__).read_text())
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(target.id for target in targets if isinstance(target, ast.Name))
        imported = {
            alias.asname or alias.name for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
        }
        assert set(module.__all__) <= defined - imported - {"__all__"}, name  # bound by def, class or assignment
        assert all(getattr(qpolar, public) is getattr(module, public) for public in module.__all__)
        lists += module.__all__
    assert len(lists) == len(set(lists))  # no name in two modules' lists
    assert len(qpolar.__all__) == len(set(qpolar.__all__))
    assert qpolar.__all__ == ["canonical_json", "main", "__version__", *lists]
    assert set(qpolar.__all__) == PUBLIC
    namespace = {}
    exec("from qpolar import *", namespace)
    assert namespace.keys() - {"__builtins__"} == PUBLIC
