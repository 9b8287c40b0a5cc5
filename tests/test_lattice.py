"""Lattice laws, compatibility, gamma sets and family enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diamond_lattice, level_family, pentagon_lattice
from fnideals.decomposition import Decomposition
from fnideals.fdalgebra import AlgebraSpec
from fnideals.function_algebra import FunctionAlgebra
from fnideals.lattice import (
    BoundedLattice,
    ClosedFamily,
    LimitExceeded,
    _exhaustive_compatible,
    _pairwise_compatible,
    boolean_lattice,
    compat_oracles_agree,
    compute_gamma,
    enumerate_compatible_families,
    family_from_lists,
    is_compatible,
    lattice_from_dict,
    mask_to_points,
    points_to_mask,
    union_over_gamma,
    validate_lattice,
)
from oracles import chain_lattice, family_to_lists, lattice_to_dict, product_lattice

B4 = boolean_lattice(2)
POOL = [chain_lattice(2), chain_lattice(3), chain_lattice(5), B4, boolean_lattice(3),
        diamond_lattice(), pentagon_lattice()]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_chain_and_boolean():
    assert validate_lattice(chain_lattice(2)) is None
    assert validate_lattice(B4) is None
    assert validate_lattice(diamond_lattice()) is None
    assert validate_lattice(pentagon_lattice()) is None


def test_validate_reports_corrupted_absorption_cell():
    meet = [list(r) for r in B4.meet]
    meet[1][2] = meet[2][1] = 3  # should be 0
    bad = BoundedLattice(4, meet, B4.join, 0, 3)
    violation = validate_lattice(bad)
    assert violation is not None
    assert "absorption" in violation
    assert "(1,2)" in violation


def test_malformed_tables_raise():
    with pytest.raises(ValueError):
        BoundedLattice(2, ((0,),), ((0, 1), (1, 1)), 0, 1)
    with pytest.raises(ValueError):
        BoundedLattice(2, ((0, 5), (5, 1)), ((0, 1), (1, 1)), 0, 1)
    with pytest.raises(ValueError):
        BoundedLattice(2, ((0, 0), (0, 1)), ((0, 1), (1, 1)), 0, 9)
    # bool is an int subclass, but JSON true and false are not sizes or indices
    chain = {"size": 2, "meet": ((0, 0), (0, 1)), "join": ((0, 1), (1, 1)), "bottom": 0, "top": 1}
    assert BoundedLattice(**chain) == chain_lattice(2)
    for bad, message in [
        ({"size": True, "meet": ((0,),), "join": ((0,),), "top": 0}, "lattice size True must be a positive integer"),
        ({"meet": ((0, False), (0, 1))}, "meet table entry False out of range"),
        ({"join": ((0, True), (1, 1))}, "join table entry True out of range"),
        ({"bottom": False}, "bottom index False out of range"),
        ({"top": True}, "top index True out of range"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            BoundedLattice(**dict(chain, **bad))


@pytest.mark.parametrize(
    "build",
    [
        lambda points: ClosedFamily(chain_lattice(2), points, (0, 0)),
        lambda points: Decomposition(chain_lattice(2), points, ()),
        lambda points: FunctionAlgebra(AlgebraSpec((1,)), points),
        lambda points: enumerate_compatible_families(chain_lattice(2), points),
    ],
    ids=["ClosedFamily", "Decomposition", "FunctionAlgebra", "enumerate_compatible_families"],
)
@pytest.mark.parametrize("points", [True, 2.5, -1])
def test_point_count_must_be_a_nonnegative_int(build, points):
    with pytest.raises(ValueError, match=f"^point count {points!r} must be a nonnegative integer$"):
        build(points)


def test_lattice_dict_roundtrip():
    doc = lattice_to_dict(B4)
    assert lattice_from_dict(doc) == B4
    with pytest.raises(ValueError):
        lattice_from_dict({"size": 2})


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------

def family(lat, sets, points=2):
    return ClosedFamily(lat, points, tuple(sets))


def test_all_full_family_is_compatible():
    fam = family(B4, (3, 3, 3, 3))
    assert is_compatible(fam)
    assert is_compatible(fam, exhaustive=True)


def test_boolean_examples():
    good = family(B4, (0b00, 0b01, 0b10, 0b11))
    bad = family(B4, (0b00, 0b01, 0b01, 0b11))
    assert is_compatible(good)
    assert is_compatible(good, exhaustive=True)
    assert not is_compatible(bad)  # S_2 cap S_3 = {0} != S_1
    assert not is_compatible(bad, exhaustive=True)


def test_compatibility_requires_full_top():
    with pytest.raises(ValueError, match="^family must assign the full point set to the top index$"):
        family(B4, (0, 0, 0, 0b01))


def test_family_shape_validation():
    with pytest.raises(ValueError):
        ClosedFamily(B4, 1, (0, 0, 0))
    for sets, message in [
        ((0, 0, 0, 4), "subset mask 4 out of range"),
        ((0, 0, 0, -1), "subset mask -1 out of range"),
        ((0, 0, 0, 1.0), "subset mask 1.0 out of range"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClosedFamily(B4, 1, sets)
    with pytest.raises(ValueError, match="^subset mask False out of range$"):
        ClosedFamily(chain_lattice(2), 1, (False, True))


@pytest.mark.parametrize("lat", POOL)
@pytest.mark.parametrize("points", [1, 2])
def test_pairwise_agrees_with_exhaustive(lat, points):
    full = (1 << points) - 1
    for assignment in itertools.product(range(full + 1), repeat=lat.size):
        assert _pairwise_compatible(lat, assignment) == _exhaustive_compatible(lat, assignment)
    assert compat_oracles_agree(lat, points)


def test_oracle_agreement_check_can_fail():
    """Negative control: a meet table that is not commutative splits the
    enumerator from the exhaustive check, because the enumerator and the
    pairwise check never read meet[2][1]."""
    b = boolean_lattice(2)
    meet = [list(row) for row in b.meet]
    meet[2][1] = 1
    lat = BoundedLattice(b.size, meet, b.join, b.bottom, b.top)
    assert _pairwise_compatible(lat, (0, 1, 0, 3))
    assert not _exhaustive_compatible(lat, (0, 1, 0, 3))
    assert not compat_oracles_agree(lat, 2)


@pytest.mark.parametrize(
    "lat, points",
    [(boolean_lattice(2), 3), (chain_lattice(3), 4), (chain_lattice(6), 2), (boolean_lattice(3), 1)],
)
def test_enumerator_agrees_with_brute_force(lat, points):
    assert compat_oracles_agree(lat, points)


@pytest.mark.parametrize("points", [1, 2])
def test_oracle_agreement_fails_when_the_enumerator_drops_a_trigger(drop_meet_trigger, points):
    """On a valid lattice: unchecked, S_1 and S_2 may meet outside S_0."""
    lat = boolean_lattice(2)
    assert (0, 1, 1, 1) in [f.sets for f in enumerate_compatible_families(lat, 1)]
    assert not compat_oracles_agree(lat, points)


@given(st.sampled_from(POOL), st.data())
@settings(max_examples=60, deadline=None)
def test_level_families_are_compatible(lat, data):
    points = data.draw(st.integers(0, 3))
    levels = [data.draw(st.integers(0, lat.size - 1)) for _ in range(points)]
    fam = level_family(lat, levels)
    assert is_compatible(fam)
    assert is_compatible(fam, exhaustive=True)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_of_bottom_is_empty():
    for lat in POOL:
        assert compute_gamma(lat, lat.bottom) == frozenset()


def test_gamma_chain3():
    lat = chain_lattice(3)
    assert compute_gamma(lat, 1) == frozenset({0})
    assert compute_gamma(lat, 2) == frozenset({0, 1})


def test_gamma_never_contains_top_and_gamma_top_is_everything_else():
    for lat in POOL:
        for j in range(lat.size):
            assert lat.top not in compute_gamma(lat, j)
        assert compute_gamma(lat, lat.top) == frozenset(range(lat.size)) - {lat.top}


def test_gamma_monotone():
    for lat in POOL:
        for j in range(lat.size):
            for jp in range(lat.size):
                if lat.leq(j, jp):
                    assert compute_gamma(lat, j) <= compute_gamma(lat, jp)


def test_gamma_table_skips_bottom():
    table = {j: compute_gamma(B4, j) for j in range(B4.size) if j != B4.bottom}
    assert sorted(table) == [1, 2, 3]


def test_compatible_family_never_forces_containment_inside_gamma():
    """For i in gamma_j, some compatible S has S_j not inside S_i."""
    for lat in POOL:
        for j in range(lat.size):
            fam = level_family(lat, [j])
            assert is_compatible(fam)
            for i in compute_gamma(lat, j):
                assert fam.sets[j] & ~fam.sets[i]


def test_union_over_gamma_on_chain_is_previous_set():
    lat = chain_lattice(5)
    fam = level_family(lat, [0, 2, 3])
    for j in range(1, 5):
        assert union_over_gamma(fam, j) == fam.sets[j - 1]
    assert union_over_gamma(fam, lat.bottom) == 0


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_two_chain_single_point():
    fams = enumerate_compatible_families(chain_lattice(2), 1)
    assert [f.sets for f in fams] == [(0, 1), (1, 1)]


def test_enumerate_counts_match_lattice_size_power():
    for lat, points in [(B4, 1), (B4, 2), (chain_lattice(3), 2), (diamond_lattice(), 2)]:
        fams = enumerate_compatible_families(lat, points)
        assert len(fams) == lat.size**points


def test_enumerate_is_lexicographic_and_all_compatible():
    fams = enumerate_compatible_families(B4, 2)
    tuples = [f.sets for f in fams]
    assert tuples == sorted(tuples)
    assert all(is_compatible(f) for f in fams)


def test_enumerate_bound():
    with pytest.raises(LimitExceeded):
        enumerate_compatible_families(boolean_lattice(3), 3)


def test_enumerate_zero_points():
    fams = enumerate_compatible_families(B4, 0)
    assert len(fams) == 1
    assert fams[0].sets == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# masks and families
# ---------------------------------------------------------------------------

def test_mask_helpers():
    assert mask_to_points(0b101) == (0, 2)
    assert points_to_mask([0, 2], 3) == 0b101
    with pytest.raises(ValueError):
        points_to_mask([3], 3)


def test_family_list_roundtrip():
    fam = family_from_lists(B4, 2, [[], [0], [1], [0, 1]])
    assert fam.sets == (0, 1, 2, 3)
    assert family_to_lists(fam) == [[], [0], [1], [0, 1]]


def test_product_lattice_shape():
    p = product_lattice(chain_lattice(3), chain_lattice(3))
    assert p.size == 9
    assert validate_lattice(p) is None
    assert p.bottom == 0 and p.top == 8
