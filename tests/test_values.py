"""The value-type contract shared by every immutable record in the package."""

import copy
import inspect
import pickle

import pytest

from qpolar import (
    Check,
    DimensionMismatch,
    DomainError,
    ExactMatrix,
    FieldElement,
    GQReport,
    PolarSpaceParams,
    Spread,
    Subspace,
    SymplecticVector,
    VerificationReport,
    desarguesian_spread,
    dual_basis,
    enumerate_generators,
    enumerate_spreads,
    fmul,
    gq22_structure_check,
    is_maximal_isotropic,
    is_totally_isotropic,
    mcs_of_generator,
    params,
    pauli_matrix,
    perp_census,
    rref,
    run_verification,
    sp_form,
    span_points,
    trace,
    vector_to_pauli,
)
import qpolar

# each type with a sample value and its fields, in constructor order
VALUES = {
    SymplecticVector: (lambda: SymplecticVector(2, 2, 3), ("n", "x", "z")),
    Subspace: (lambda: enumerate_generators(2)[4], ("n", "keys")),
    FieldElement: (lambda: FieldElement(3, 5), ("n", "bits")),
    PolarSpaceParams: (
        lambda: params(3),
        ("n_qubits", "point_count", "generator_count", "generator_size", "spread_size", "non_perp_count"),
    ),
    Spread: (lambda: desarguesian_spread(2), ("n", "blocks")),
    GQReport: (
        gq22_structure_check,
        ("point_count", "line_count", "points_per_line", "lines_per_point", "collinear_partners", "axiom_violations"),
    ),
    ExactMatrix: (lambda: pauli_matrix("XYZ"), ("rows", "table")),
    Check: (lambda: Check("eq1_point_count", 15, 15), ("name", "expected", "actual")),
    VerificationReport: (lambda: run_verification(2), ("n_qubits", "checks")),
}
RECORDS = (PolarSpaceParams, GQReport, Check, VerificationReport)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_round_trips_and_stays_frozen(cls):
    make, names = VALUES[cls]
    value = make()
    fields = tuple(getattr(value, name) for name in names)
    for twin in (value, pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value), cls._unchecked(*fields)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(twin, name, getattr(twin, name))
            with pytest.raises(AttributeError):
                delattr(twin, name)
    assert hash(value) == hash(fields)
    assert value != fields  # another class holding the same field values is not equal
    assert value == make()


def test_value_repr_names_every_field():
    assert repr(SymplecticVector(2, 2, 3)) == "SymplecticVector(n=2, x=2, z=3)"
    assert repr(params(2)) == (
        "PolarSpaceParams(n_qubits=2, point_count=15, generator_count=15,"
        " generator_size=3, spread_size=5, non_perp_count=8)"
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_constructor_takes_exactly_its_fields(cls):
    make, names = VALUES[cls]
    fields = {name: getattr(make(), name) for name in names}
    values = list(fields.values())
    assert cls(*values) == cls(**fields) == make()
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(**fields, unknown=0)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


# a count that range() would refuse is a DimensionMismatch, any other non-integer a DomainError
@pytest.mark.parametrize("build,error", [
    (lambda: rref([], 2.0), DimensionMismatch),
    (lambda: Subspace(2.0, []), DimensionMismatch),
    (lambda: SymplecticVector(2, 1.0, 0), DomainError),
    (lambda: FieldElement(2, 1.0), DomainError),
    (lambda: enumerate_spreads(2, limit=2.5), DomainError),
    (lambda: desarguesian_spread("2"), DimensionMismatch),
    (lambda: desarguesian_spread(2.0), DimensionMismatch),
    (lambda: desarguesian_spread(None), DimensionMismatch),
    # a bool is an int subclass, refused wherever an integer is checked
    (lambda: enumerate_spreads(True), DimensionMismatch),
    (lambda: desarguesian_spread(True), DimensionMismatch),
    (lambda: params(True), DimensionMismatch),
    (lambda: Subspace(True, []), DimensionMismatch),
    (lambda: SymplecticVector(2, True, 0), DomainError),
    (lambda: FieldElement(2, True), DomainError),
    (lambda: enumerate_spreads(2, limit=True), DomainError),
    (lambda: ExactMatrix(((1.0, 0), (0, True)), ((0, 0), (0, 0))), DomainError),
    (lambda: ExactMatrix(((0, 0), (0, 0)), ((True, 0), (0, 1))), DomainError),
], ids=["rref n", "subspace n", "vector x", "field bits", "spread limit", "field plane str", "field plane float",
        "field plane none", "spread search bool", "field plane bool", "params bool", "subspace bool", "vector x bool",
        "field bits bool", "spread limit bool", "matrix entry float", "matrix entry bool"])
def test_validating_constructors_reject_non_integers(build, error):
    with pytest.raises(error, match="must be (an )?integers?, got"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Subspace(2, [1]),
    lambda: rref([1]),
    lambda: Spread(2, (1,) * 5),
    lambda: ExactMatrix(1, 2),
], ids=["subspace row", "rref vector", "spread block", "matrix part"])
def test_constructors_name_a_wrong_input_type(build):
    with pytest.raises(DomainError, match=r"\bint\b"):
        build()


@pytest.mark.parametrize("build,message", [
    (lambda: Subspace(2, 1), "a subspace basis must be iterable, got int"),
    (lambda: rref(1), "rref takes an iterable of SymplecticVectors, got int"),
    (lambda: Spread(2, 5), "spread blocks must be a sequence, got int"),
], ids=["subspace basis", "rref vectors", "spread blocks"])
def test_constructors_refuse_a_non_iterable(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


_POINT = SymplecticVector(1, 1, 0)


@pytest.mark.parametrize("call,message", [
    (lambda: sp_form(_POINT, 3), "sp_form takes two SymplecticVectors, got SymplecticVector and int"),
    (lambda: perp_census(5), "perp_census takes a SymplecticVector, got int"),
    (lambda: rref([_POINT]).contains(3), "Subspace.contains takes a SymplecticVector, got int"),
    (lambda: is_totally_isotropic(3), "is_totally_isotropic takes a Subspace, got int"),
    (lambda: vector_to_pauli("XX"), "vector_to_pauli takes a SymplecticVector, got str"),
    (lambda: mcs_of_generator(3), "mcs_of_generator takes a Subspace, got int"),
    (lambda: is_maximal_isotropic(3), "is_maximal_isotropic takes a Subspace, got int"),
    (lambda: fmul(1, 2), "fmul takes two FieldElements, got int and int"),
    (lambda: trace(3), "trace takes a FieldElement, got int"),
    (lambda: dual_basis(5), "dual_basis takes an iterable of FieldElements, got int"),
    (lambda: dual_basis([1]), "dual_basis takes FieldElements, got int"),
    (lambda: FieldElement(2, 1) ^ 3, "FieldElement ^ takes a FieldElement, got int"),
    (lambda: _POINT ^ 3, "SymplecticVector ^ takes a SymplecticVector, got int"),
    (lambda: SymplecticVector.from_bits(1, 1), "SymplecticVector.from_bits takes a str, got int"),
    (lambda: span_points(3), "span_points takes a Subspace, got int"),
], ids=[
    "sp_form", "perp_census", "contains", "is_totally_isotropic", "vector_to_pauli", "mcs_of_generator",
    "is_maximal_isotropic", "fmul", "trace", "dual_basis", "dual_basis_element", "FieldElement_xor",
    "SymplecticVector_xor", "from_bits", "span_points",
])
def test_operations_name_a_wrong_operand_type(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


# every public callable but the exception classes; main is exempt, as argparse
# itself raises TypeError on an argv it cannot iterate
_PUBLIC = {name: getattr(qpolar, name) for name in qpolar.__all__}
_SWEPT = [
    name for name, obj in _PUBLIC.items()
    if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)) and name != "main"
]


@pytest.mark.parametrize("name", _SWEPT)
def test_public_callables_return_or_raise_qpolar_error_on_any_value(name):
    obj = _PUBLIC[name]
    params = inspect.signature(obj).parameters.values()
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        arity = len(obj.__slots__)  # a record's generic constructor: one argument per field
    else:
        arity = sum(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params)
    for value in (3, "XX", None, 1.5):
        try:
            obj(*[value] * arity)
        except qpolar.QPolarError:
            pass


def test_field_degree_rejects_bool():
    # True == 1 is a MODULI key; the degree check names the supported degrees
    with pytest.raises(DimensionMismatch, match=r"^supported extension degrees are \[1, 2, 3, 4, 5\], got True$"):
        FieldElement(True, 1)
