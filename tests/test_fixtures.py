"""Bundled fixtures: problem documents for the 9-element lattice, chains and
block algebras."""

import itertools

import pytest

from conftest import BH2_NESTED_LEVELS, level_family
from fnideals.fdalgebra import AlgebraSpec, enumerate_ideals
from fnideals.fixtures import bundled_fixture_names, load_fixture
from fnideals.lattice import (
    compute_gamma,
    family_from_lists,
    is_compatible,
    lattice_from_dict,
    union_over_gamma,
    validate_lattice,
)
from oracles import chain_lattice, product_lattice

# the printed gamma table (1-based labels), frozen from the source example
BH2_GAMMA_1BASED = {
    2: {1, 3, 6},
    3: {1, 2, 4},
    4: {1, 2, 3, 5, 6, 8},
    5: {1, 2, 3, 4, 6},
    6: {1, 2, 3, 4, 5, 7},
    7: {1, 2, 3, 4, 5, 6, 8},
    8: {1, 2, 3, 4, 5, 6, 7},
    9: {1, 2, 3, 4, 5, 6, 7, 8},
}


def fixture_lattice(name):
    """The lattice a fixture's document describes: its `lattice` member, or
    the ideal lattice of its `blocks`."""
    _, doc = load_fixture(name)
    if "blocks" in doc:
        return enumerate_ideals(AlgebraSpec(doc["blocks"]))
    return lattice_from_dict(doc["lattice"])


def bh2_family():
    _, doc = load_fixture("bh2")
    return family_from_lists(lattice_from_dict(doc["lattice"]), doc["points"], doc["family"])


def test_every_bundled_fixture_has_a_valid_lattice():
    for name in bundled_fixture_names():
        assert validate_lattice(fixture_lattice(name)) is None, name


def test_bh2_gamma_table_is_exactly_the_published_one():
    lat = fixture_lattice("bh2")
    got = {
        j + 1: {i + 1 for i in compute_gamma(lat, j)}
        for j in range(lat.size)
        if j != lat.bottom
    }
    assert got == BH2_GAMMA_1BASED


def test_bh2_specific_meets_and_joins():
    lat = fixture_lattice("bh2")
    assert lat.meet[6][7] == 4  # I7 meet I8 = I5
    assert lat.join[3][5] == 8  # I4 join I6 = I9
    assert lat.bottom == 0 and lat.top == 8


def test_bh2_is_the_square_of_a_three_chain():
    lat = fixture_lattice("bh2")
    square = product_lattice(chain_lattice(3), chain_lattice(3))
    # I_i of bh2 -> the pair (row, column) of the square, as row * 3 + column
    to_square = (0, 1, 3, 2, 4, 6, 5, 7, 8)
    assert sorted(to_square) == list(range(9))
    for i, j in itertools.product(range(9), repeat=2):
        assert to_square[lat.meet[i][j]] == square.meet[to_square[i]][to_square[j]]
        assert to_square[lat.join[i][j]] == square.join[to_square[i]][to_square[j]]


def test_bh2_is_distributive():
    lat = fixture_lattice("bh2")
    for i, j, k in itertools.product(range(lat.size), repeat=3):
        assert lat.meet[i][lat.join[j][k]] == lat.join[lat.meet[i][j]][lat.meet[i][k]]


def test_bh2_bundled_family_is_compatible_with_nested_order():
    fam = bh2_family()
    assert fam.points == 4
    assert is_compatible(fam, exhaustive=True)
    for i in range(9):
        for j in range(9):
            if fam.lattice.leq(i, j):
                assert fam.sets[i] & ~fam.sets[j] == 0  # S_i inside S_j


def test_bh2_nested_family_distinct_nonempty():
    fam = level_family(fixture_lattice("bh2"), BH2_NESTED_LEVELS)
    assert is_compatible(fam, exhaustive=True)
    assert len(set(fam.sets)) == 9
    assert all(fam.sets)


def test_chain_fixture_basics():
    name, doc = load_fixture("chain3")
    assert (name, list(doc)) == ("chain3", ["lattice"])
    lat = fixture_lattice("chain3")
    assert lat == chain_lattice(3)
    assert compute_gamma(lat, 1) == frozenset({0})
    with pytest.raises(ValueError, match=r"^chain length 1 outside bundled range \[2, 8\]$"):
        load_fixture("chain1")


def test_chain_two_matches_the_m2_ideal_lattice():
    assert load_fixture("chain2") == ("chain2", {"blocks": [2]})
    assert fixture_lattice("chain2") == chain_lattice(2) == enumerate_ideals(AlgebraSpec((2,)))


def test_chain_union_over_gamma_reduction():
    lat = fixture_lattice("chain5")
    for levels in itertools.product(range(5), repeat=2):
        fam = level_family(lat, levels)
        for j in range(1, 5):
            assert union_over_gamma(fam, j) == fam.sets[j - 1]


@pytest.mark.parametrize("dims", [(2,), (1, 1), (1, 2), (1, 1, 1)])
def test_block_fixture_lattice_matches_enumeration(dims):
    name = "block_" + "_".join(str(n) for n in dims)
    assert load_fixture(name) == (name, {"blocks": list(dims)})
    assert fixture_lattice(name) == enumerate_ideals(AlgebraSpec(dims))


def test_block_fixture_names():
    assert load_fixture("block_01_2")[0] == "block_1_2"
    with pytest.raises(ValueError, match="^block dimension 0 must be a positive integer$"):
        load_fixture("block_0")


def test_load_fixture_names():
    assert load_fixture("bh2")[0] == "bh2"
    assert load_fixture("chain08")[0] == "chain8"
    assert fixture_lattice("chain5").size == 5
    assert load_fixture("block_1_2")[1] == {"blocks": [1, 2]}
    with pytest.raises(ValueError):
        load_fixture("chain99")
    with pytest.raises(ValueError):
        load_fixture("nonesuch")


def test_bundled_names_cover_generators():
    names = bundled_fixture_names()
    assert "bh2" in names
    assert "chain2" in names and "chain8" in names
    assert "block_1_1" in names
