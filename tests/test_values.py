"""The value-type contract shared by every immutable record in the package."""

import copy
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
    enumerate_generators,
    enumerate_spreads,
    gq22_structure_check,
    params,
    pauli_matrix,
    rref,
    run_verification,
)

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
    ExactMatrix: (lambda: pauli_matrix("XYZ"), ("cols", "phases")),
    Check: (lambda: Check("eq1_point_count", 15, 15), ("name", "expected", "actual")),
    VerificationReport: (lambda: run_verification(2), ("n_qubits", "checks")),
}
RECORDS = (PolarSpaceParams, GQReport, Check, VerificationReport)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_round_trips_and_stays_frozen(cls):
    make, names = VALUES[cls]
    value = make()
    assert type(value) is cls
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    fields = tuple(getattr(value, name) for name in names)
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
], ids=["rref n", "subspace n", "vector x", "field bits", "spread limit", "field plane str", "field plane float",
        "field plane none"])
def test_validating_constructors_reject_non_integers(build, error):
    with pytest.raises(error, match="must be (an )?integers?, got"):
        build()
