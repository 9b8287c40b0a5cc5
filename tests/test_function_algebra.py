"""theta / recover_S, pointwise ideals and the product-ideal constructions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import level_family
from fnideals.fdalgebra import AlgebraSpec, block_ideal_subspace, centre, unit_products
from fnideals.function_algebra import (
    FunctionAlgebra,
    FunctionElement,
    PointwiseIdeal,
    enumerate_all_ideals,
    function_algebra,
    ideal_from_Y_and_I,
    pointwise_subspace,
    product_subspace,
    recover_S,
    theta,
)
from fnideals.lattice import ClosedFamily, LimitExceeded, is_compatible
from fnideals.lie import lie_normalizer
from fnideals.linalg import Subspace, rref
from oracles import (
    basis_element,
    chain_lattice,
    closures_of_unit_subsets,
    commutator,
    element_from_vector,
    trace_zero_subspace,
)

M2 = AlgebraSpec((2,))
M11 = AlgebraSpec((1, 1))


def alg11(points=2):
    return function_algebra(M11, points)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_all_full_family_gives_bottom_stalks():
    alg = alg11(2)
    fam = ClosedFamily(alg.lattice, 2, (3, 3, 3, 3))
    assert theta(fam).stalks == (0, 0)


def test_theta_boolean_example():
    alg = alg11(2)
    fam = ClosedFamily(alg.lattice, 2, (0b00, 0b01, 0b10, 0b11))
    assert theta(fam).stalks == (1, 2)


def test_theta_only_top_nonempty_gives_top_stalks():
    alg = alg11(2)
    fam = ClosedFamily(alg.lattice, 2, (0, 0, 0, 0b11))
    assert theta(fam).stalks == (3, 3)


def test_theta_rejects_incompatible_family():
    alg = alg11(2)
    fam = ClosedFamily(alg.lattice, 2, (0b00, 0b01, 0b01, 0b11))
    with pytest.raises(ValueError):
        theta(fam)


# ---------------------------------------------------------------------------
# recover_S
# ---------------------------------------------------------------------------

def test_recover_boolean_example():
    alg = alg11(2)
    ideal = PointwiseIdeal(alg.lattice, (1, 2))
    assert recover_S(ideal).sets == (0b00, 0b01, 0b10, 0b11)


def test_pointwise_ideal_validation():
    lat = chain_lattice(2)
    for stalk in (True, 1.0, 2, -1):
        with pytest.raises(ValueError, match=f"^stalk index {stalk!r} out of range$"):
            PointwiseIdeal(lat, (stalk,))


def test_wrong_length_ideal_fails_where_it_is_used():
    """An ideal's point count is len(stalks); an algebra refuses any other."""
    alg = function_algebra(M2, 2)
    ideal = PointwiseIdeal(alg.lattice, (0,))
    with pytest.raises(ValueError, match="^one subspace of A per point is required$"):
        alg.ideal_subspace(ideal)
    with pytest.raises(ValueError, match="^one subspace of A per point is required$"):
        lie_normalizer(alg, ideal)


def test_recover_bottom_stalks_gives_full_everywhere():
    alg = alg11(2)
    ideal = PointwiseIdeal(alg.lattice, (0, 0))
    assert recover_S(ideal).sets == (3, 3, 3, 3)


def test_recover_top_stalks_gives_empty_except_top():
    alg = alg11(2)
    ideal = PointwiseIdeal(alg.lattice, (3, 3))
    assert recover_S(ideal).sets == (0, 0, 0, 3)


# ---------------------------------------------------------------------------
# enumeration, surjectivity, bijectivity
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    assert len(enumerate_all_ideals(function_algebra(M2, 1))) == 2
    assert len(enumerate_all_ideals(alg11(2))) == 16
    assert len(enumerate_all_ideals(function_algebra(M2, 2))) == 4


def test_enumeration_is_lexicographic():
    stalks = [i.stalks for i in enumerate_all_ideals(function_algebra(M2, 2))]
    assert stalks == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumeration_bound(monkeypatch):
    """8^5 = 32,768 stalk assignments: refused before any ideal is built."""
    alg = FunctionAlgebra(AlgebraSpec((1, 1, 1)), 5)

    def refuse(ideal):
        raise AssertionError("an ideal subspace was built before the bound was checked")

    monkeypatch.setattr(alg, "ideal_subspace", refuse)
    with pytest.raises(LimitExceeded):
        enumerate_all_ideals(alg)


@pytest.mark.parametrize(
    "spec, points",
    [(M2, 1), (M2, 2), (M11, 1), (M11, 2), (AlgebraSpec((1, 2)), 1)],
)
def test_theta_recover_mutually_inverse(spec, points):
    alg = function_algebra(spec, points)
    from fnideals.lattice import enumerate_compatible_families

    families = enumerate_compatible_families(alg.lattice, points)
    ideals = enumerate_all_ideals(alg)
    assert len(families) == len(ideals)
    for ideal in ideals:
        assert theta(recover_S(ideal)) == ideal
    for fam in families:
        assert recover_S(theta(fam)) == fam


def test_theta_is_order_reversing_in_the_sets_and_preserving_in_the_ideal():
    """Pointwise larger sets impose more constraints, so stalks shrink."""
    alg = alg11(2)
    lat = alg.lattice
    from fnideals.lattice import enumerate_compatible_families

    families = enumerate_compatible_families(lat, 2)
    for fam_a in families:
        for fam_b in families:
            if all(sa & sb == sb for sa, sb in zip(fam_a.sets, fam_b.sets)):
                ja, jb = theta(fam_a), theta(fam_b)
                assert all(lat.leq(a, b) for a, b in zip(ja.stalks, jb.stalks))


# ---------------------------------------------------------------------------
# subspace realizations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec, points", [(M11, 2), (AlgebraSpec((1,)), 2)])
def test_brute_force_closure_matches_enumeration(spec, points):
    alg = function_algebra(spec, points)
    enumerated = {alg.ideal_subspace(i) for i in enumerate_all_ideals(alg)}
    assert closures_of_unit_subsets(alg.dim, unit_products(spec)) == enumerated


def test_verified_enumeration_fails_on_a_non_invariant_subspace(monkeypatch):
    """Negative control: a corrupted ideal subspace (one off-diagonal unit of
    M_2) must fail the invariance check of enumerate_all_ideals."""
    alg = FunctionAlgebra(M2, 1)
    e12 = rref([(0, 1, 0, 0)], 4)
    monkeypatch.setattr(alg, "ideal_subspace", lambda ideal: e12)
    assert len(enumerate_all_ideals(alg, verify=False)) == 2
    with pytest.raises(AssertionError):
        enumerate_all_ideals(alg)


def test_brute_force_respects_limit():
    alg = function_algebra(M2, 2)
    with pytest.raises(LimitExceeded):
        closures_of_unit_subsets(alg.dim, unit_products(M2))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_pointwise_ideals_invariant_under_random_elements(data):
    spec = data.draw(st.sampled_from([M2, M11]))
    points = data.draw(st.integers(1, 2))
    alg = function_algebra(spec, points)
    ideals = enumerate_all_ideals(alg, verify=False)
    ideal = data.draw(st.sampled_from(ideals))
    sub = alg.ideal_subspace(ideal)
    vec = tuple(data.draw(st.integers(-2, 2)) for _ in range(alg.dim))
    f = element_from_vector(alg, vec)
    for row in sub.basis:
        v = element_from_vector(alg, row)
        assert sub.contains((f * v).to_vector())
        assert sub.contains((v * f).to_vector())


def test_commutator_table_matches_element_commutators():
    """B's brackets read A's table at each point's offset; units at different
    points bracket to zero.  B builds no table of its own size."""
    spec = AlgebraSpec((1, 2))
    table = function_algebra(spec, 1).commutator_table
    assert all(function_algebra(spec, p).commutator_table is table for p in range(1, 5))
    alg = function_algebra(spec, 3)
    d = alg.spec.total_dim
    for i in range(alg.dim):
        ei = basis_element(alg, i)
        x, a = divmod(i, d)
        for b in range(alg.dim):
            expected = commutator(ei, basis_element(alg, b)).to_vector()
            y, e = divmod(b, d)
            if y != x:
                assert not any(expected)
                continue
            dense = [0] * alg.dim
            for c, v in dict(alg.commutator_table[a]).get(e, ()):
                dense[x * d + c] = v
            assert tuple(dense) == expected


# ---------------------------------------------------------------------------
# product subspaces and the Y-restriction corollary
# ---------------------------------------------------------------------------

def test_product_subspace_full_y_is_zero_family():
    alg = function_algebra(M2, 2)
    assert product_subspace(alg, 0b11, Subspace.full(4)) == Subspace.zero(8)


def test_product_subspace_empty_y_full_c():
    alg = function_algebra(M2, 2)
    assert product_subspace(alg, 0, Subspace.full(4)) == Subspace.full(8)


def test_product_subspace_commutator_span_example():
    alg = function_algebra(M2, 2)
    sl = trace_zero_subspace(M2)
    ps = product_subspace(alg, 0b01, sl)
    assert ps == pointwise_subspace(alg, [Subspace.zero(4), sl])
    # vanishes at point 0, equals sl at point 1
    assert ps.dim == sl.dim == 3
    assert all(not any(row[:4]) for row in ps.basis)
    assert rref([row[4:] for row in ps.basis], 4) == sl


def test_pointwise_subspace_sum_and_embedding():
    alg = function_algebra(M11, 2)
    a = product_subspace(alg, 0b01, Subspace.full(2))
    b = product_subspace(alg, 0b10, Subspace.full(2))
    assert a.dim == b.dim == 2
    assert a & b == Subspace.zero(4)
    assert a + b == Subspace.full(4)


def test_pointwise_subspace_needs_one_part_of_a_per_point():
    alg = function_algebra(M11, 2)
    with pytest.raises(ValueError):
        pointwise_subspace(alg, [Subspace.full(2)])
    with pytest.raises(ValueError):
        pointwise_subspace(alg, [Subspace.full(2), Subspace.full(3)])


PLACEMENT_SPECS = [AlgebraSpec(b) for b in ((1,), (2,), (3,), (1, 2), (2, 2), (1, 1, 1))]


@st.composite
def subspaces_of_a(draw, spec):
    """A block ideal, the centre or the RREF of random rows of A."""
    d = spec.total_dim
    kind = draw(st.sampled_from(["rows", "block-ideal", "centre"]))
    if kind == "block-ideal":
        return block_ideal_subspace(spec, draw(st.integers(0, (1 << spec.num_blocks) - 1)))
    if kind == "centre":
        return centre(spec)
    row = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    return rref(draw(st.lists(row, max_size=d)), d)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pointwise_subspace_places_rref_parts(data):
    """The placed parts are B's RREF basis: the subspace elimination gives
    from the same rows, and a basis the validating constructor accepts."""
    spec = data.draw(st.sampled_from(PLACEMENT_SPECS))
    alg = function_algebra(spec, data.draw(st.integers(0, 3)))
    d = spec.total_dim
    parts = [data.draw(subspaces_of_a(spec)) for _ in range(alg.points)]
    rows = []
    for x, part in enumerate(parts):
        for row in part.basis:
            big = [0] * alg.dim
            big[x * d : (x + 1) * d] = row
            rows.append(big)
    placed = pointwise_subspace(alg, parts)
    assert placed == rref(rows, alg.dim)
    assert Subspace(alg.dim, placed.basis) == placed
    message = "^one subspace of A per point is required$"
    with pytest.raises(ValueError, match=message):
        pointwise_subspace(alg, parts + [Subspace.zero(d)])
    if parts:
        with pytest.raises(ValueError, match=message):
            pointwise_subspace(alg, parts[:-1])
        wrong = list(parts)
        wrong[data.draw(st.integers(0, len(parts) - 1))] = Subspace.full(d + 1)
        with pytest.raises(ValueError, match=message):
            pointwise_subspace(alg, wrong)


def test_ideal_from_y_trivial_cases():
    alg = alg11(2)
    ideal, matches = ideal_from_Y_and_I(alg, 0, 1)
    assert ideal.stalks == (3, 3)
    assert matches
    ideal, matches = ideal_from_Y_and_I(alg, 0b11, alg.lattice.top)
    assert ideal.stalks == (3, 3)
    assert matches


def test_ideal_from_y_boolean_example():
    alg = alg11(2)
    ideal, matches = ideal_from_Y_and_I(alg, 0b01, 1)
    assert ideal.stalks == (1, 3)
    assert matches


@pytest.mark.parametrize("spec, points", [(M2, 2), (M11, 2), (AlgebraSpec((1, 2)), 2)])
def test_ideal_from_y_sweep(spec, points):
    alg = function_algebra(spec, points)
    for y_mask in range((1 << points)):
        for t in range(alg.lattice.size):
            assert ideal_from_Y_and_I(alg, y_mask, t)[1]


# ---------------------------------------------------------------------------
# function elements
# ---------------------------------------------------------------------------

def test_function_element_arithmetic_is_pointwise():
    alg = alg11(2)
    f = element_from_vector(alg, (1, 2, 3, 4))
    g = element_from_vector(alg, (5, 6, 7, 8))
    assert (f * g).to_vector() == (5, 12, 21, 32)
    assert (f + g).to_vector() == (6, 8, 10, 12)
    assert commutator(f, g).to_vector() == (0,) * 4


def test_function_element_shape_validation():
    alg = alg11(2)
    with pytest.raises(ValueError):
        element_from_vector(alg, (1,) * 3)
    f = element_from_vector(alg, (1,) * 4)
    g = element_from_vector(function_algebra(M11, 1), (1,) * 2)
    with pytest.raises(ValueError):
        f * g
