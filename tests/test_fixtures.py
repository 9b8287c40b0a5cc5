"""Bundled fixtures: the 9-element lattice, chains and block lattices."""

import itertools

import pytest

from conftest import BH2_NESTED_LEVELS, level_family
from fnideals.fdalgebra import AlgebraSpec, enumerate_ideals
from fnideals.fixtures import (
    bh2_fixture,
    block_fixture,
    bundled_fixture_names,
    chain_fixture,
    load_fixture,
)
from fnideals.lattice import (
    chain_lattice,
    compute_gamma,
    is_compatible,
    union_over_gamma,
    validate_lattice,
)
from oracles import product_lattice

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


def test_every_bundled_fixture_has_a_valid_lattice():
    for name in bundled_fixture_names():
        fx = load_fixture(name)
        assert validate_lattice(fx.lattice) is None, name


def test_bh2_gamma_table_is_exactly_the_published_one():
    lat = bh2_fixture().lattice
    got = {
        j + 1: {i + 1 for i in compute_gamma(lat, j)}
        for j in range(lat.size)
        if j != lat.bottom
    }
    assert got == BH2_GAMMA_1BASED


def test_bh2_specific_meets_and_joins():
    lat = bh2_fixture().lattice
    assert lat.meet[6][7] == 4  # I7 meet I8 = I5
    assert lat.join[3][5] == 8  # I4 join I6 = I9
    assert lat.bottom == 0 and lat.top == 8


def test_bh2_is_the_square_of_a_three_chain():
    lat = bh2_fixture().lattice
    square = product_lattice(chain_lattice(3), chain_lattice(3))
    # I_i of bh2 -> the pair (row, column) of the square, as row * 3 + column
    to_square = (0, 1, 3, 2, 4, 6, 5, 7, 8)
    assert sorted(to_square) == list(range(9))
    for i, j in itertools.product(range(9), repeat=2):
        assert to_square[lat.meet[i][j]] == square.meet[to_square[i]][to_square[j]]
        assert to_square[lat.join[i][j]] == square.join[to_square[i]][to_square[j]]


def test_bh2_is_distributive():
    lat = bh2_fixture().lattice
    for i, j, k in itertools.product(range(lat.size), repeat=3):
        assert lat.meet[i][lat.join[j][k]] == lat.join[lat.meet[i][j]][lat.meet[i][k]]


def test_bh2_bundled_family_is_compatible_with_nested_order():
    fx = bh2_fixture()
    fam = fx.family
    assert fam is not None
    assert is_compatible(fam, exhaustive=True)
    for i in range(9):
        for j in range(9):
            if fx.lattice.leq(i, j):
                assert fam.sets[i] & ~fam.sets[j] == 0  # S_i inside S_j


def test_bh2_nested_family_distinct_nonempty():
    fam = level_family(bh2_fixture().lattice, BH2_NESTED_LEVELS)
    assert is_compatible(fam, exhaustive=True)
    assert len(set(fam.sets)) == 9
    assert all(fam.sets)


def test_chain_fixture_basics():
    fx = chain_fixture(3)
    assert fx.lattice == chain_lattice(3)
    assert fx.spec is None
    assert compute_gamma(fx.lattice, 1) == frozenset({0})
    with pytest.raises(ValueError):
        chain_fixture(1)


def test_chain_two_matches_the_m2_ideal_lattice():
    fx = chain_fixture(2)
    assert fx.spec == AlgebraSpec((2,))
    assert fx.lattice == enumerate_ideals(fx.spec)


def test_chain_union_over_gamma_reduction():
    fx = chain_fixture(5)
    for levels in itertools.product(range(5), repeat=2):
        fam = level_family(fx.lattice, levels)
        for j in range(1, 5):
            assert union_over_gamma(fam, j) == fam.sets[j - 1]


@pytest.mark.parametrize("dims", [(2,), (1, 1), (1, 2), (1, 1, 1)])
def test_block_fixture_lattice_matches_enumeration(dims):
    fx = block_fixture(dims)
    lat = enumerate_ideals(AlgebraSpec(dims))
    assert fx.lattice == lat


def test_block_fixture_names():
    assert block_fixture((1, 2)).name == "block_1_2"


def test_load_fixture_names():
    assert load_fixture("bh2").name == "bh2"
    assert load_fixture("chain5").lattice.size == 5
    assert load_fixture("block_1_2").spec == AlgebraSpec((1, 2))
    with pytest.raises(ValueError):
        load_fixture("chain99")
    with pytest.raises(ValueError):
        load_fixture("nonesuch")


def test_bundled_names_cover_generators():
    names = bundled_fixture_names()
    assert "bh2" in names
    assert "chain2" in names and "chain8" in names
    assert "block_1_1" in names
