"""Block algebra arithmetic, centres, commutator spans and ideal enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnideals import fdalgebra
from fnideals.fdalgebra import (
    AlgebraSpec,
    Element,
    block_ideal_subspace,
    centre,
    enumerate_ideals,
    is_invariant,
    unit_product,
    unit_products,
    unit_translates,
)
from fnideals.function_algebra import PointwiseIdeal, function_algebra
from fnideals.lattice import LimitExceeded, boolean_lattice
from fnideals.lie import commutator_ideal_span
from fnideals.linalg import Subspace, intersect, rref
from oracles import (
    basis_element,
    closures_of_unit_subsets,
    commutator,
    element_from_vector,
    sympy_kernel,
    trace_zero_subspace,
    tracial_state_basis,
    vec_dot,
)

M1 = AlgebraSpec((1,))
M2 = AlgebraSpec((2,))
M11 = AlgebraSpec((1, 1))
M21 = AlgebraSpec((2, 1))
M23 = AlgebraSpec((2, 3))

SAMPLE_SPECS = [M1, M2, M11, M21, AlgebraSpec((1, 2)), AlgebraSpec((1, 1, 2)), M23]


def unit(spec, b, p, q):
    return Element.matrix_unit(spec, b, p, q)


# ---------------------------------------------------------------------------
# multiplication and commutators
# ---------------------------------------------------------------------------

def test_multiply_identity():
    x = unit(M2, 0, 0, 1) + unit(M2, 0, 1, 0).scale(3)
    assert x * Element.identity(M2) == x
    assert Element.identity(M2) * x == x


def test_matrix_unit_product():
    assert unit(M2, 0, 0, 0) * unit(M2, 0, 0, 1) == unit(M2, 0, 0, 1)
    assert unit(M2, 0, 0, 1) * unit(M2, 0, 0, 1) == Element.zero(M2)


def test_scalar_blocks_multiply_componentwise():
    x = Element.from_vector(M11, (2, 3))
    y = Element.from_vector(M11, (5, 7))
    assert (x * y).to_vector() == (10, 21)


def test_multiply_spec_mismatch():
    with pytest.raises(ValueError):
        Element.identity(M2) * Element.identity(M11)


def test_commutator_examples():
    x = unit(M2, 0, 0, 1) + unit(M2, 0, 1, 1)
    assert commutator(x, x) == Element.zero(M2)
    assert commutator(x, Element.identity(M2)) == Element.zero(M2)
    e11_minus_e22 = unit(M2, 0, 0, 0) - unit(M2, 0, 1, 1)
    assert commutator(unit(M2, 0, 0, 1), unit(M2, 0, 1, 0)) == e11_minus_e22


def test_unit_product_matches_element_multiplication():
    coords = list(M23.unit_coords())
    for u in coords:
        for v in coords:
            got = unit_product(u, v)
            expected = unit(M23, *u) * unit(M23, *v)
            if got is None:
                assert expected == Element.zero(M23)
            else:
                assert expected == unit(M23, *got)


@given(st.sampled_from(SAMPLE_SPECS), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_unit_translates_match_element_multiplication(spec, points, data):
    """A row of A^X, translated one point slice at a time through A's table,
    gives the nonzero products with every unit of B on either side."""
    alg = function_algebra(spec, points)
    vec = tuple(data.draw(st.integers(-2, 2)) for _ in range(alg.dim))
    f = element_from_vector(alg, vec)
    dense = set()
    for i in range(alg.dim):
        e = basis_element(alg, i)
        for prod in (e * f, f * e):
            if any(prod.to_vector()):
                dense.add(prod.to_vector())
    got = [tuple(t) for t in unit_translates(vec, unit_products(spec))]
    assert all(any(t) for t in got)
    assert set(got) == dense


def test_invariance_check_rejects_a_non_ideal():
    """Negative control: one off-diagonal unit of M_2 spans no ideal."""
    e12 = rref([(0, 1, 0, 0)], 4)
    assert not is_invariant(e12, unit_products(M2))
    assert is_invariant(Subspace.full(4), unit_products(M2))


def test_enumerate_ideals_fails_on_a_non_invariant_subspace(monkeypatch):
    e12 = rref([(0, 1, 0, 0)], 4)
    monkeypatch.setattr(fdalgebra, "block_ideal_subspace", lambda spec, mask: e12)
    with pytest.raises(AssertionError):
        enumerate_ideals.__wrapped__(M2)


@given(st.sampled_from(SAMPLE_SPECS), st.data())
@settings(max_examples=40, deadline=None)
def test_vector_roundtrip(spec, data):
    vec = tuple(
        data.draw(st.integers(-3, 3)) for _ in range(spec.total_dim)
    )
    assert Element.from_vector(spec, vec).to_vector() == vec


# ---------------------------------------------------------------------------
# centre
# ---------------------------------------------------------------------------

def sympy_centre(spec) -> Subspace:
    """Independent route: solve [z, e] = 0 for all matrix units."""
    d = spec.total_dim
    units = [Element.matrix_unit(spec, *c) for c in spec.unit_coords()]
    brackets = [[commutator(ek, u).to_vector() for u in units] for ek in units]
    # constraint matrix: one row per (unit, coordinate) pair
    return sympy_kernel([[brackets[k][u][c] for k in range(d)] for u in range(d) for c in range(d)], d)


@pytest.mark.parametrize(
    "spec, dim",
    [(M2, 1), (M11, 2), (M23, 2)],
)
def test_centre_dimension(spec, dim):
    assert centre(spec).dim == dim


def test_centre_of_commutative_algebra_is_everything():
    assert centre(M11) == Subspace.full(2)


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_centre_matches_commutation_solver(spec):
    assert centre(spec) == sympy_centre(spec)


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_centre_members_commute_with_basis(spec):
    z = centre(spec)
    units = [Element.matrix_unit(spec, *c) for c in spec.unit_coords()]
    for row in z.basis:
        elem = Element.from_vector(spec, row)
        for u in units:
            assert commutator(elem, u) == Element.zero(spec)


# ---------------------------------------------------------------------------
# commutator span
# ---------------------------------------------------------------------------

def commutator_span(spec) -> Subspace:
    """[A, A] from the package's commutator routine: span[A, B] for B = A at one point."""
    alg = function_algebra(spec, 1)
    return commutator_ideal_span(alg, PointwiseIdeal(alg.lattice, (alg.lattice.top,)))


def test_commutator_span_commutative_is_zero():
    assert commutator_span(M1) == trace_zero_subspace(M1) == Subspace.zero(1)
    assert commutator_span(M11) == trace_zero_subspace(M11) == Subspace.zero(2)


def test_commutator_span_m2_is_trace_zero():
    got = commutator_span(M2)
    assert got.dim == 3
    trace_zero = rref([(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)], 4)
    assert got == trace_zero == trace_zero_subspace(M2)


def test_commutator_span_block_sum():
    assert commutator_span(M21).dim == 3


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_commutator_span_dimension_formula(spec):
    assert commutator_span(spec).dim == sum(n * n - 1 for n in spec.block_dims)


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (1, 2), (2, 2), (1, 1, 1), (3, 3, 3), (1, 1, 5)])
def test_commutator_span_is_the_kernel_of_the_tracial_states(dims):
    spec = AlgebraSpec(dims)
    assert commutator_span(spec) == trace_zero_subspace(spec)


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_centre_meets_commutator_span_trivially(spec):
    assert intersect(centre(spec), commutator_span(spec)) == Subspace.zero(spec.total_dim)


# ---------------------------------------------------------------------------
# ideal enumeration
# ---------------------------------------------------------------------------

def test_enumerate_ideals_counts():
    assert enumerate_ideals(M2).size == 2
    assert enumerate_ideals(M11).size == 4
    assert enumerate_ideals(M21).size == 4


def test_enumerate_ideals_lattice_is_boolean():
    lat = enumerate_ideals(M21)
    assert lat == boolean_lattice(2)
    assert lat.bottom == 0 and lat.top == 3
    assert lat.meet[1][2] == 0 and lat.join[1][2] == 3


def test_block_ideal_subspace_is_the_sum_of_the_masked_blocks():
    assert block_ideal_subspace(M21, 0) == Subspace.zero(5)
    assert block_ideal_subspace(M21, 3) == Subspace.full(5)
    assert block_ideal_subspace(M21, 1) == rref(Subspace.full(5).basis[:4], 5)
    assert block_ideal_subspace(M21, 2) == rref(Subspace.full(5).basis[4:], 5)
    for mask in (-1, 4):
        with pytest.raises(ValueError):
            block_ideal_subspace(M21, mask)


def test_enumerate_ideals_block_bound():
    with pytest.raises(LimitExceeded):
        enumerate_ideals(AlgebraSpec((1,) * 7))


CLOSURE_SPECS = [M1, M11, M2, AlgebraSpec((1, 1, 1)), AlgebraSpec((1, 2)), M21]


def block_ideals(spec) -> set:
    return {fdalgebra.block_ideal_subspace(spec, m) for m in range(enumerate_ideals(spec).size)}


def unit_closures(spec) -> frozenset:
    return closures_of_unit_subsets(spec.total_dim, unit_products(spec))


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_brute_force_search_finds_exactly_the_block_ideals(spec):
    assert unit_closures(spec) == block_ideals(spec)


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_brute_force_search_detects_a_block_ideal_missing_a_row(spec, monkeypatch):
    """Negative control: block 0 without its last unit is no ideal, so the
    closures must differ from the enumerated block ideals."""
    enumerate_ideals(spec)  # cached before the fault, whose mask 1 fails its invariance check
    exact = fdalgebra.block_ideal_subspace

    def corrupted(spec, mask):
        sub = exact(spec, mask)
        return rref(sub.basis[:-1], spec.total_dim) if mask == 1 else sub

    monkeypatch.setattr(fdalgebra, "block_ideal_subspace", corrupted)
    assert unit_closures(spec) != block_ideals(spec)


def test_brute_force_search_respects_dim_limit():
    with pytest.raises(LimitExceeded):
        unit_closures(M23)


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_block_ideals_are_two_sided_invariant(spec):
    units = [Element.matrix_unit(spec, *c) for c in spec.unit_coords()]
    for mask in range(enumerate_ideals(spec).size):
        sub = block_ideal_subspace(spec, mask)
        for row in sub.basis:
            v = Element.from_vector(spec, row)
            for a in units:
                assert sub.contains((a * v).to_vector())
                assert sub.contains((v * a).to_vector())


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_weak_centrality_on_block_ideals(spec):
    """Maximal ideals (k-1 blocks) meet the centre in pairwise distinct subspaces."""
    k = spec.num_blocks
    z = centre(spec)
    full = (1 << k) - 1
    traces = []
    for b in range(k):
        traces.append(intersect(block_ideal_subspace(spec, full & ~(1 << b)), z))
    assert len(set(traces)) == k


# ---------------------------------------------------------------------------
# tracial states
# ---------------------------------------------------------------------------

def test_tracial_state_m2():
    (t,) = tracial_state_basis(M2)
    half = Fraction(1, 2)
    assert t == (half, 0, 0, half)


def test_tracial_states_commutative():
    assert tracial_state_basis(M11) == ((1, 0), (0, 1))


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_tracial_states_normalized_and_annihilate_commutators(spec):
    states = tracial_state_basis(spec)
    assert len(states) == spec.num_blocks  # nonempty for every layout
    for b, t in enumerate(states):
        block_identity = [0] * spec.total_dim
        for p in range(spec.block_dims[b]):
            block_identity[spec.coord(b, p, p)] = 1
        assert vec_dot(t, block_identity) == 1
    for t in states:
        for row in commutator_span(spec).basis:
            assert not vec_dot(t, row)
