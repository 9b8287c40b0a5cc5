"""Equality, hashing and immutability of the value types."""

import copy
import pickle

import pytest

from fnideals.fdalgebra import AlgebraSpec, Element
from fnideals.fixtures import bh2_fixture
from fnideals.function_algebra import PointwiseIdeal, function_algebra
from fnideals.lattice import BoundedLattice, ClosedFamily, SpaceModel, chain_lattice
from fnideals.linalg import Subspace, rref


def test_equal_specs_are_one_cache_key():
    listed, tupled = AlgebraSpec([1, 2]), AlgebraSpec((1, 2))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed != AlgebraSpec((2, 1)) and listed != (1, 2)
    assert function_algebra(listed, 3) is function_algebra(tupled, 3)


def test_values_of_different_classes_with_equal_fields_are_unequal():
    lat, space = chain_lattice(2), SpaceModel(2)
    ideal, family = PointwiseIdeal(lat, space, (0, 1)), ClosedFamily(lat, space, (0, 1))
    assert ideal.lattice == family.lattice and ideal.space == family.space
    assert ideal.stalks == family.sets
    assert ideal != family and family != ideal


def test_equality_reads_every_field():
    lat = chain_lattice(2)
    assert BoundedLattice(2, lat.meet, lat.join, 0, 1) == lat
    assert BoundedLattice(2, lat.meet, lat.join, 0, 0) != lat
    assert PointwiseIdeal(lat, SpaceModel(1), (0,)) != PointwiseIdeal(lat, SpaceModel(1), (1,))
    assert rref([(2, 4)], 2) == Subspace(2, ((1, 2),))
    assert len({rref([(2, 4)], 2), Subspace(2, ((1, 2),)), Subspace.zero(2)}) == 2


@pytest.mark.parametrize(
    "value, field",
    [
        (Subspace.full(2), "basis"),
        (chain_lattice(2), "top"),
        (SpaceModel(1), "point_count"),
        (ClosedFamily(chain_lattice(2), SpaceModel(1), (0, 1)), "sets"),
        (AlgebraSpec((2,)), "block_dims"),
        (Element.zero(AlgebraSpec((1,))), "blocks"),
        (PointwiseIdeal(chain_lattice(2), SpaceModel(1), (1,)), "stalks"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_hashed_values_refuse_assignment(value, field):
    before = hash(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert hash(value) == before


def test_values_survive_copy_and_pickle():
    fixture = bh2_fixture()
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        again = clone(fixture)
        assert (again.name, again.lattice, again.spec, again.family) == (
            fixture.name, fixture.lattice, fixture.spec, fixture.family)
        space = clone(Subspace(3, ((1, 0, 2), (0, 1, 0))))
        assert space == Subspace(3, ((1, 0, 2), (0, 1, 0))) and space.pivots == (0, 1)
        with pytest.raises(AttributeError):
            space.basis = ()
