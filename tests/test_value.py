"""Equality, hashing and immutability of the value types."""

import copy
import pickle
from pathlib import Path

import pytest

from fnideals.decomposition import Decomposition
from fnideals.fdalgebra import AlgebraSpec, Element
from fnideals.function_algebra import FunctionElement, PointwiseIdeal, function_algebra
from fnideals.lattice import BoundedLattice, ClosedFamily
from fnideals.lie import LieCandidate
from fnideals.linalg import Subspace, rref
from oracles import chain_lattice

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "fnideals"

M1, M2 = AlgebraSpec((1,)), AlgebraSpec((2,))


def test_equal_specs_are_one_cache_key():
    listed, tupled = AlgebraSpec([1, 2]), AlgebraSpec((1, 2))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed != AlgebraSpec((2, 1)) and listed != (1, 2)
    assert function_algebra(listed, 3) is function_algebra(tupled, 3)


def test_values_of_different_classes_with_equal_fields_are_unequal():
    lat = chain_lattice(2)
    ideal, family = PointwiseIdeal(lat, (0, 1)), ClosedFamily(lat, 1, (0, 1))
    assert ideal.lattice == family.lattice
    assert ideal.stalks == family.sets
    assert ideal != family and family != ideal


def test_equality_reads_every_field():
    lat = chain_lattice(2)
    assert BoundedLattice(2, lat.meet, lat.join, 0, 1) == lat
    assert BoundedLattice(2, lat.meet, lat.join, 0, 0) != lat
    assert PointwiseIdeal(lat, (0,)) != PointwiseIdeal(lat, (1,))
    assert rref([(2, 4)], 2) == Subspace(2, ((1, 2),))
    assert len({rref([(2, 4)], 2), Subspace(2, ((1, 2),)), Subspace.zero(2)}) == 2
    # one constructor argument changed: the values differ
    assert ClosedFamily(lat, 1, (0, 1)) != ClosedFamily(lat, 1, (1, 1))
    assert AlgebraSpec((1, 2)) != AlgebraSpec((1, 1))
    assert Element.zero(M1) != Element.identity(M1)
    assert FunctionElement(M1, [Element.zero(M1)]) != FunctionElement(M1, [Element.identity(M1)])
    assert Decomposition(lat, 1, [(1, 1)]) != Decomposition(lat, 1, [(0, 1)])
    assert Decomposition(lat, 1, [(1, 1)]) == Decomposition(lat, 1, [(1, 1)])
    alg = function_algebra(M2, 1)
    assert LieCandidate(alg, Subspace.zero(4)) != LieCandidate(alg, Subspace.full(4))


def test_fields_hold_their_constructor_arguments():
    lat = chain_lattice(3)
    assert (lat.size, lat.bottom, lat.top) == (3, 0, 2)
    assert Subspace(3, ((1, 0, 2), (0, 1, 0))).pivots == (0, 1)
    family = ClosedFamily(lat, 3, (1, 3, 7))
    assert (family.lattice, family.points, family.sets) == (lat, 3, (1, 3, 7))
    dec = Decomposition(lat, 2, ((1, 1), (3, 2)))
    assert (dec.lattice, dec.points, dec.terms) == (lat, 2, ((1, 1), (3, 2)))
    zero = Element.zero(M1)
    assert (zero.spec, zero.blocks) == (M1, (((0,),),))
    f = FunctionElement(M1, [zero, zero])
    assert (f.spec, f.values) == (M1, (zero, zero))
    ideal = PointwiseIdeal(lat, (2, 0))
    assert (ideal.lattice, ideal.stalks) == (lat, (2, 0))
    alg, space = function_algebra(M2, 1), Subspace.full(4)
    cand = LieCandidate(alg, space)
    assert (cand.alg, cand.space) == (alg, space)


# built inside the test, so a fault in a constructor fails the test, not collection
BUILDERS = {
    "Subspace": lambda: Subspace.full(2),
    "BoundedLattice": lambda: chain_lattice(2),
    "ClosedFamily": lambda: ClosedFamily(chain_lattice(2), 1, (0, 1)),
    "AlgebraSpec": lambda: AlgebraSpec((2,)),
    "Element": lambda: Element.zero(M1),
    "PointwiseIdeal": lambda: PointwiseIdeal(chain_lattice(2), (1,)),
    "Decomposition": lambda: Decomposition(chain_lattice(3), 2, ((0b01, 1), (0b11, 2))),
    "FunctionElement": lambda: FunctionElement(M1, [Element.zero(M1)]),
    # nonzero bracket rows, which are tuples, so the candidate hashes
    "LieCandidate": lambda: LieCandidate(function_algebra(M2, 1), Subspace.full(4)),
}


@pytest.mark.parametrize(
    "kind, field",
    [
        ("Subspace", "basis"),
        ("BoundedLattice", "top"),
        ("ClosedFamily", "sets"),
        ("AlgebraSpec", "block_dims"),
        ("Element", "blocks"),
        ("PointwiseIdeal", "stalks"),
        ("Decomposition", "terms"),
        ("FunctionElement", "values"),
        ("LieCandidate", "brackets"),
    ],
)
def test_hashed_values_refuse_assignment(kind, field):
    value = BUILDERS[kind]()
    before = hash(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert hash(value) == before


def test_values_survive_copy_and_pickle():
    dec = Decomposition(chain_lattice(3), 2, ((0b01, 1), (0b11, 2)))
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        again = clone(dec)
        assert type(again) is Decomposition and again == dec
        with pytest.raises(AttributeError):
            again.terms = ()
        space = clone(Subspace(3, ((1, 0, 2), (0, 1, 0))))
        assert space == Subspace(3, ((1, 0, 2), (0, 1, 0))) and space.pivots == (0, 1)
        with pytest.raises(AttributeError):
            space.basis = ()


def test_only_the_value_base_sets_fields():
    # every other module fills its fields through Value._fill
    sources = {path.name: path.read_text() for path in SRC_DIR.glob("*.py")}
    setters = [name for name, text in sources.items() if "setfield" in text or "object.__setattr__" in text]
    assert setters == ["value.py"]
