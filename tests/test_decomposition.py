"""Finite-sum decomposition: terms, evaluation and the full round trip."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BH2_NESTED_LEVELS, level_family
from fnideals import decomposition, lattice
from fnideals.decomposition import (
    Decomposition,
    decompose,
    evaluate,
    union_reduction_holds,
    verify_theorem,
)
from fnideals.fixtures import load_fixture
from fnideals.function_algebra import PointwiseIdeal, recover_S, theta
from fnideals.lattice import (
    ClosedFamily,
    boolean_lattice,
    enumerate_compatible_families,
    family_from_lists,
    lattice_from_dict,
    union_over_gamma,
)
from oracles import chain_lattice

B4 = boolean_lattice(2)
# the package exports a function of the same name
function_algebra = importlib.import_module("fnideals.function_algebra")


def test_decompose_boolean_example():
    fam = ClosedFamily(B4, 2, (0b00, 0b01, 0b10, 0b11))
    dec = decompose(fam)
    assert dec.terms == ((0b10, 1), (0b01, 2), (0b11, 3))
    assert evaluate(dec).stalks == (1, 2)
    assert evaluate(dec) == theta(fam)


def test_decompose_rejects_incompatible():
    fam = ClosedFamily(B4, 2, (0b00, 0b01, 0b01, 0b11))
    with pytest.raises(ValueError):
        decompose(fam)


def test_all_full_family_gives_all_zero_terms():
    fam = ClosedFamily(B4, 2, (3, 3, 3, 3))
    dec = decompose(fam)
    assert all(y == 3 for y, _ in dec.terms)
    assert evaluate(dec).stalks == (0, 0)


def test_single_top_term_evaluates_to_top():
    dec = Decomposition(B4, 2, ((0, 3),))
    assert evaluate(dec).stalks == (3, 3)


def test_term_count_is_size_minus_one():
    for lat in (B4, chain_lattice(4), boolean_lattice(3)):
        fam = level_family(lat, [0, lat.top])
        assert len(decompose(fam).terms) == lat.size - 1


def test_decomposition_validates_terms():
    with pytest.raises(ValueError):
        Decomposition(B4, 2, ((0, 0),))  # bottom index not allowed
    with pytest.raises(ValueError):
        Decomposition(B4, 2, ((9, 1),))  # mask out of range
    with pytest.raises(ValueError, match="^term index True must be a non-bottom lattice index$"):
        Decomposition(B4, 2, ((0, True),))
    with pytest.raises(ValueError, match="^term mask False out of range$"):
        Decomposition(B4, 2, ((False, 1),))


def test_chain_decomposition_uses_previous_set():
    lat = chain_lattice(6)
    fam = level_family(lat, [1, 3, 5])
    dec = decompose(fam)
    for y, j in dec.terms:
        assert y == fam.sets[j - 1]


@pytest.mark.parametrize(
    "lat, points",
    [(B4, 1), (B4, 2), (chain_lattice(3), 1), (chain_lattice(3), 2), (chain_lattice(3), 3)],
)
def test_verify_theorem_exhaustive(lat, points):
    families = enumerate_compatible_families(lat, points)
    for fam in families:
        assert all(ok for _, ok in verify_theorem(fam))


def test_verify_theorem_reports_stable_names():
    fam = ClosedFamily(B4, 1, (0, 0, 0, 1))
    names = [name for name, _ in verify_theorem(fam)]
    assert names == ["evaluate-equals-theta", "recover-roundtrip", "union-reduction"]


def test_verify_theorem_reports_an_incompatible_family():
    fam = ClosedFamily(B4, 1, (0, 1, 1, 1))  # S_1 and S_2 meet outside S_0
    assert verify_theorem(fam) == [("family-compatible", False)]


def test_verify_theorem_decides_compatibility_once(monkeypatch):
    """verify_theorem builds theta and the terms unchecked after its own guard;
    theta and decompose still check when called alone."""
    calls = []

    def counted(family):
        calls.append(family)
        return lattice.is_compatible(family)

    for module in (decomposition, function_algebra):
        monkeypatch.setattr(module, "is_compatible", counted)
    fam = ClosedFamily(B4, 2, (0b00, 0b01, 0b10, 0b11))
    assert all(ok for _, ok in verify_theorem(fam))
    assert len(calls) == 1
    theta(fam)
    decompose(fam)
    assert len(calls) == 3
    bad = ClosedFamily(B4, 2, (0b00, 0b01, 0b01, 0b11))
    for build in (theta, decompose):
        with pytest.raises(ValueError, match="^family is not compatible with the lattice$"):
            build(bad)


def test_bh2_nested_family_targeted_run():
    fam = level_family(lattice_from_dict(load_fixture("bh2")[1]["lattice"]), BH2_NESTED_LEVELS)
    sets = fam.sets
    assert len(set(sets)) == 9 and all(sets)  # distinct and nonempty
    assert all(ok for _, ok in verify_theorem(fam))
    dec = decompose(fam)
    terms = dict((j, y) for y, j in dec.terms)
    # the I_5 term vanishes exactly on S_4 union S_6 (0-based indices 3 and 5)
    assert terms[4] == sets[3] | sets[5]
    # the I_2 term vanishes exactly on S_6: gamma_2 = {1,3,6} and S_1, S_3 <= S_6
    assert terms[1] == sets[5]
    assert union_over_gamma(fam, 1) == sets[5]


def test_bundled_bh2_family_passes():
    _, doc = load_fixture("bh2")
    family = family_from_lists(lattice_from_dict(doc["lattice"]), doc["points"], doc["family"])
    assert all(ok for _, ok in verify_theorem(family))


@pytest.mark.parametrize("lat", [B4, chain_lattice(4), boolean_lattice(3)])
def test_union_reduction_identity(lat):
    families = enumerate_compatible_families(lat, 2)
    for fam in families:
        assert union_reduction_holds(fam)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_idempotence_of_decompose_after_recover(data):
    """decompose(recover_S(evaluate(d))) evaluates to evaluate(d) for any terms."""
    lat = data.draw(st.sampled_from([B4, chain_lattice(3), boolean_lattice(3)]))
    points = data.draw(st.integers(1, 2))
    full = (1 << points) - 1
    terms = tuple(
        (data.draw(st.integers(0, full)), j) for j in range(lat.size) if j != lat.bottom
    )
    dec = Decomposition(lat, points, terms)
    ideal = evaluate(dec)
    again = evaluate(decompose(recover_S(ideal)))
    assert again == ideal
