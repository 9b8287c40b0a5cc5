"""Lie normalizers, sandwich characterization, CQP and weak centrality."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnideals import lie
from fnideals.fdalgebra import AlgebraSpec
from fnideals.function_algebra import (
    FunctionAlgebra,
    PointwiseIdeal,
    enumerate_all_ideals,
    function_algebra,
    pointwise_subspace,
    theta,
)
from fnideals.lattice import ClosedFamily, enumerate_compatible_families
from fnideals.lie import (
    LieCandidate,
    check_cqp,
    commutator_ideal_span,
    cqp_sides,
    cqp_transfer_check,
    is_lie_ideal,
    least_normalizing_ideal,
    lie_normalizer,
    maximal_ideals,
    random_subspace,
    sandwich_random_suite,
    sandwich_witness,
    weak_centrality,
)
from fnideals.linalg import Subspace, intersect, rref
from oracles import (
    basis_element,
    dense_brackets,
    element_from_vector,
    sympy_kernel,
    trace_zero_subspace,
    tracial_state_basis,
    vec_dot,
)

M2 = AlgebraSpec((2,))
M3 = AlgebraSpec((3,))
M11 = AlgebraSpec((1, 1))
M12 = AlgebraSpec((1, 2))


def ideal_of(alg, *stalks):
    return PointwiseIdeal(alg.lattice, stalks)


# ---------------------------------------------------------------------------
# lie_normalizer
# ---------------------------------------------------------------------------

def test_normalizer_of_whole_algebra_is_everything():
    alg = function_algebra(M2, 2)
    top = ideal_of(alg, 1, 1)
    assert lie_normalizer(alg, top) == Subspace.full(alg.dim)


def test_normalizer_of_zero_in_m2_is_centre():
    alg = function_algebra(M2, 1)
    n = lie_normalizer(alg, ideal_of(alg, 0))
    assert n.dim == 1
    assert n == alg.centre_subspace


def test_normalizer_of_vanish_on_point_ideal_has_dim_5():
    # dim J (4) + dim central functions (2) - overlap (1)
    alg = function_algebra(M2, 2)
    n = lie_normalizer(alg, ideal_of(alg, 0, 1))
    assert n.dim == 5


def test_normalizer_accepts_raw_subspaces():
    alg = function_algebra(M2, 1)
    zero = Subspace.zero(alg.dim)
    assert lie_normalizer(alg, zero) == alg.centre_subspace


@pytest.mark.parametrize("spec, points", [(M2, 1), (M2, 2), (M12, 1), (M12, 2)])
def test_normalizer_contains_ideal_and_centre(spec, points):
    alg = function_algebra(spec, points)
    for ideal in enumerate_all_ideals(alg, verify=False):
        n = lie_normalizer(alg, ideal)
        assert alg.ideal_subspace(ideal) <= n
        assert alg.centre_subspace <= n


@pytest.mark.parametrize("spec, points", [(M2, 2), (M12, 2)])
def test_normalizer_is_closed_under_multiplication(spec, points):
    alg = function_algebra(spec, points)
    for ideal in enumerate_all_ideals(alg, verify=False):
        n = lie_normalizer(alg, ideal)
        for r1 in n.basis:
            v1 = element_from_vector(alg, r1)
            for r2 in n.basis:
                v2 = element_from_vector(alg, r2)
                assert n.contains((v1 * v2).to_vector())


@pytest.mark.parametrize("spec, points", [(M2, 2), (M12, 2)])
def test_pointwise_normalizer_formula(spec, points):
    """N(theta(S)) equals the pointwise family x -> N(I_stalk(x))."""
    alg = function_algebra(spec, points)
    alg1 = function_algebra(spec, 1)
    per_stalk = {
        s: lie_normalizer(alg1, PointwiseIdeal(alg1.lattice, (s,)))
        for s in range(alg.lattice.size)
    }
    for fam in enumerate_compatible_families(alg.lattice, points):
        ideal = theta(fam)
        direct = lie_normalizer(alg, ideal)
        assembled = pointwise_subspace(alg, [per_stalk[s] for s in ideal.stalks])
        assert direct == assembled


# ---------------------------------------------------------------------------
# dense oracles for the bracket core
# ---------------------------------------------------------------------------

def dense_normalizer(alg, sub) -> Subspace:
    """N(S) = { f : phi . [f, e_b] = 0 for each phi vanishing on S and each b }."""
    ann = sympy_kernel(list(sub.basis), alg.dim).basis
    cols = [dense_brackets(alg, basis_element(alg, i).to_vector()) for i in range(alg.dim)]
    rows = [
        [vec_dot(phi, cols[i][b]) for i in range(alg.dim)]
        for phi in ann
        for b in range(alg.dim)
    ]
    return sympy_kernel(rows, alg.dim)


def core_cases(spec, points, random_count=6):
    """Every ideal subspace of A^X and seeded random raw subspaces."""
    alg = function_algebra(spec, points)
    rng = random.Random(1904)
    subs = [alg.ideal_subspace(i) for i in enumerate_all_ideals(alg, verify=False)]
    subs += [random_subspace(alg.dim, rng, max_rows=3) for _ in range(random_count)]
    return alg, subs


@pytest.mark.parametrize("spec, points", [(M2, 2), (M12, 2)])
def test_bracket_core_matches_dense_oracles(spec, points):
    alg, subs = core_cases(spec, points)
    for sub in subs:
        dense = [row for v in sub.basis for row in dense_brackets(alg, v)]
        cand = LieCandidate(alg, sub)
        assert [tuple(row) for row in cand.brackets if any(row)] == [row for row in dense if any(row)]
        assert lie_normalizer(alg, sub) == dense_normalizer(alg, sub)
        assert commutator_ideal_span(alg, sub) == rref(dense, alg.dim)
        assert is_lie_ideal(cand) == all(sub.contains(row) for row in dense)


# ---------------------------------------------------------------------------
# the two sides of N(J) = J + Z(B) (on one block, the normalizer formula)
# ---------------------------------------------------------------------------

def test_cqp_sides_single_point_zero_ideal():
    alg = function_algebra(M2, 1)
    nj, summed = cqp_sides(alg, ideal_of(alg, 0))
    assert nj == summed
    assert nj.dim == 1


def test_cqp_sides_whole_algebra():
    alg = function_algebra(M3, 1)
    nj, summed = cqp_sides(alg, ideal_of(alg, 1))
    assert nj == summed
    assert nj.dim == 9


# ---------------------------------------------------------------------------
# commutator ideal span
# ---------------------------------------------------------------------------

def test_commutator_ideal_of_zero_is_zero():
    alg = function_algebra(M2, 2)
    assert commutator_ideal_span(alg, ideal_of(alg, 0, 0)) == Subspace.zero(alg.dim)


def test_commutator_ideal_of_whole_m2_is_trace_zero():
    alg = function_algebra(M2, 1)
    got = commutator_ideal_span(alg, ideal_of(alg, 1))
    assert got.dim == 3
    assert got == trace_zero_subspace(M2)


def test_commutator_ideal_commutative_algebra_is_zero():
    alg = function_algebra(M11, 2)
    top = ideal_of(alg, 3, 3)
    assert commutator_ideal_span(alg, top) == Subspace.zero(alg.dim)


def test_commutator_ideal_span_is_memoized_per_stalk_tuple(monkeypatch):
    """A second call for the same ideal runs no rref.  A fresh instance is
    used, so the patched rref never fills the memo of a shared algebra."""
    alg = FunctionAlgebra(M12, 2)
    calls = []

    def counted(rows, dim):
        calls.append(dim)
        return rref(rows, dim)

    monkeypatch.setattr(lie, "rref", counted)
    ideal = ideal_of(alg, 2, 3)
    first = commutator_ideal_span(alg, ideal)
    assert len(calls) == 1
    again = commutator_ideal_span(alg, ideal_of(alg, 2, 3))
    assert len(calls) == 1
    assert again == first
    assert commutator_ideal_span(alg, alg.ideal_subspace(ideal)) == first
    assert len(calls) == 2


@pytest.mark.parametrize("spec, points", [(M2, 2), (M12, 2)])
def test_memoized_commutator_spans_match_the_subspace_path(spec, points):
    """Every memo entry of a shared algebra equals the span computed afresh."""
    alg = function_algebra(spec, points)
    for ideal in enumerate_all_ideals(alg, verify=False):
        commutator_ideal_span(alg, ideal)
    for stalks, span in alg.commutator_spans.items():
        assert span == commutator_ideal_span(alg, alg.ideal_subspace(ideal_of(alg, *stalks)))


@pytest.mark.parametrize("spec, points", [(M2, 1), (M2, 2), (M12, 2)])
def test_commutator_ideal_intersection_identity(spec, points):
    """span[J, B] = J intersect [B, B] for every ideal J."""
    alg = function_algebra(spec, points)
    top = ideal_of(alg, *([alg.lattice.top] * points))
    bb = commutator_ideal_span(alg, top)
    for ideal in enumerate_all_ideals(alg, verify=False):
        lhs = commutator_ideal_span(alg, ideal)
        rhs = intersect(alg.ideal_subspace(ideal), bb)
        assert lhs == rhs


@pytest.mark.parametrize("spec, points", [(M2, 1), (M3, 1), (M12, 1), (M2, 2)])
def test_tracial_states_annihilate_commutator_ideal(spec, points):
    """Pointwise block traces vanish on span[B, B]."""
    alg = function_algebra(spec, points)
    top = ideal_of(alg, *([alg.lattice.top] * points))
    bb = commutator_ideal_span(alg, top)
    d = spec.total_dim
    for x in range(points):
        for t in tracial_state_basis(spec):
            extended = [0] * alg.dim
            extended[x * d : (x + 1) * d] = list(t)
            for row in bb.basis:
                assert not vec_dot(extended, row)


# ---------------------------------------------------------------------------
# is_lie_ideal / sandwich
# ---------------------------------------------------------------------------

def test_zero_subspace_is_lie_ideal():
    alg = function_algebra(M2, 1)
    assert is_lie_ideal(LieCandidate(alg, Subspace.zero(alg.dim)))


def test_commutator_span_is_lie_ideal_with_top_witness():
    alg = function_algebra(M2, 1)
    sl = trace_zero_subspace(M2)
    cand = LieCandidate(alg, sl)
    assert is_lie_ideal(cand)
    assert sandwich_witness(cand).stalks == (1,)


def test_single_matrix_unit_is_not_lie_ideal():
    alg = function_algebra(M2, 1)
    e12 = rref([(0, 1, 0, 0)], 4)
    cand = LieCandidate(alg, e12)
    assert not is_lie_ideal(cand)
    assert sandwich_witness(cand) is None


def test_centre_has_zero_ideal_witness():
    alg = function_algebra(M2, 2)
    cand = LieCandidate(alg, alg.centre_subspace)
    assert is_lie_ideal(cand)
    assert sandwich_witness(cand).stalks == (0, 0)


def test_lie_candidate_dimension_checked():
    alg = function_algebra(M2, 1)
    with pytest.raises(ValueError):
        LieCandidate(alg, Subspace.zero(3))


def test_ideal_plus_central_subspace_is_always_lie_ideal():
    alg = function_algebra(M2, 2)
    rng = random.Random(7)
    centre = alg.centre_subspace
    for ideal in enumerate_all_ideals(alg, verify=False):
        for _ in range(5):
            k_rows = []
            for row in centre.basis:
                c = rng.randint(-2, 2)
                k_rows.append([c * v for v in row])
            sub = rref(list(alg.ideal_subspace(ideal).basis) + k_rows, alg.dim)
            assert is_lie_ideal(LieCandidate(alg, sub))


def test_sl_type_subspace_is_not_ideal_plus_centre():
    """In one matrix block the trace-zero Lie ideal escapes the ideal+centre form,
    which is why tracelessness matters for that representation."""
    alg = function_algebra(M2, 1)
    sl = trace_zero_subspace(M2)
    assert is_lie_ideal(LieCandidate(alg, sl))
    centre_subs = [Subspace.zero(4), alg.centre_subspace]
    for ideal in enumerate_all_ideals(alg, verify=False):
        for k in centre_subs:
            assert alg.ideal_subspace(ideal) + k != sl


@pytest.mark.parametrize("points", [1, 2])
def test_sandwich_random_suite_small(points):
    alg = function_algebra(M2, points)
    ok, lines = sandwich_random_suite(alg, seed=11)
    assert ok, lines


def test_sandwich_suite_catches_witness_without_lower_bound_test(monkeypatch):
    """A witness that skips span[J_min, B] <= L must make the suite FAIL."""
    monkeypatch.setattr(lie, "sandwich_witness", least_normalizing_ideal)
    ok, lines = sandwich_random_suite(function_algebra(M2, 2), seed=11)
    assert not ok
    assert lines[1].startswith("FAIL sandwich-outside-bounds"), lines


def test_sandwich_suite_counts_every_draw_of_a_shared_interval(monkeypatch):
    """Each distinct candidate is decided once, but a rejected verdict still
    counts once per draw: 20 per ideal, whichever interval the ideal shares.
    The outside scan is switched off, since a draw of it that lands in an
    interval adds a discrepancy too."""
    alg = function_algebra(M2, 2)
    monkeypatch.setattr(lie, "is_lie_ideal", lambda candidate: False)
    monkeypatch.setattr(lie, "SANDWICH_FREE_COUNT", 0)
    ok, lines = sandwich_random_suite(alg, seed=11)
    n = lie.SANDWICH_PER_IDEAL * len(enumerate_all_ideals(alg, verify=False))
    assert not ok
    assert lines[0] == f"FAIL sandwich-between-bounds ({n} subspaces, {n} discrepancies)"


@pytest.mark.parametrize("spec", [M11, AlgebraSpec((1,))])
def test_sandwich_suite_outside_check_is_vacuous_on_a_commutative_algebra(spec):
    """Every interval is [0, B], so no subspace lies outside every bound."""
    alg = function_algebra(spec, 2)
    ok, lines = sandwich_random_suite(alg, seed=11)
    assert ok
    assert lines[1] == "VACUOUS sandwich-outside-bounds (every subspace lies in [0, B])"


def test_sandwich_suite_reports_an_outside_scan_that_checked_nothing(monkeypatch):
    """The zero subspace lies in [span[0, B], N(0)], so a scan that draws only
    it checks no subspace in all its attempts."""
    monkeypatch.setattr(lie, "random_subspace", lambda dim, rng: Subspace.zero(dim))
    ok, lines = sandwich_random_suite(function_algebra(M2, 1), seed=11)
    attempts = lie.SANDWICH_FREE_COUNT * 50
    assert ok
    assert lines[1] == f"VACUOUS sandwich-outside-bounds (0 subspaces in {attempts} attempts)"


def test_coord_blocks_match_coord_info():
    alg = function_algebra(M12, 2)
    assert alg.coord_blocks == tuple(
        (x, 1 << b) for x, b, _, _ in map(alg.coord_info, range(alg.dim))
    )


@lru_cache(maxsize=None)
def sandwich_bounds(alg):
    """(ideal, span[J,B], N(J)) for every ideal, in canonical stalk order."""
    return tuple(
        (ideal, commutator_ideal_span(alg, ideal), lie_normalizer(alg, ideal))
        for ideal in enumerate_all_ideals(alg, verify=False)
    )


def scan_witness(candidate):
    """Oracle: the first ideal J in stalk order with span[J,B] <= L <= N(J)."""
    sub = candidate.space
    for ideal, lower, upper in sandwich_bounds(candidate.alg):
        if lower <= sub and sub <= upper:
            return ideal
    return None


def test_random_lie_subspaces_equivalence():
    """Lie ideal iff a sandwich witness exists, and the closed-form witness is
    the scan's first hit; J_min is the first ideal whose normalizer holds L.

    Candidates: seeded random subspaces, each ideal's bounds, and subspaces
    between them.
    """
    rng = random.Random(3)
    cases = [(M2, 1), (M2, 2), (M3, 1), (M12, 2), (AlgebraSpec((2, 2)), 1), (AlgebraSpec((1, 1, 1)), 2)]
    for spec, points in cases:
        alg = function_algebra(spec, points)
        bounds = sandwich_bounds(alg)
        subs = [random_subspace(alg.dim, rng) for _ in range(120)]
        for _, lower, upper in bounds:
            subs += [lower, upper]
            for _ in range(3):
                extra = [row for row in upper.basis if rng.random() < 0.5]
                subs.append(rref(list(lower.basis) + extra, alg.dim))
        for sub in subs:
            cand = LieCandidate(alg, sub)
            witness, expected = sandwich_witness(cand), scan_witness(cand)
            assert is_lie_ideal(cand) == (witness is not None)
            assert (witness is None) == (expected is None), (alg, sub)
            assert witness is None or witness.stalks == expected.stalks, (alg, sub)
            least = next(ideal for ideal, _, upper in bounds if sub <= upper)
            assert least_normalizing_ideal(cand).stalks == least.stalks, (alg, sub)


# ---------------------------------------------------------------------------
# CQP / weak centrality / transfer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec, points",
    [(M2, 1), (M2, 2), (M11, 1), (M11, 2), (AlgebraSpec((2, 3)), 1), (AlgebraSpec((2, 3)), 2)],
)
def test_check_cqp_holds(spec, points):
    alg = function_algebra(spec, points)
    ok, lines = check_cqp(alg)
    assert ok
    assert len(lines) == alg.lattice.size**points
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize(
    "spec, points",
    [(M2, 1), (M11, 1), (AlgebraSpec((2, 2)), 2), (M12, 2)],
)
def test_weak_centrality_holds(spec, points):
    assert weak_centrality(function_algebra(spec, points))


def test_maximal_ideals_shape():
    alg = function_algebra(M11, 2)
    ideals = maximal_ideals(alg)
    assert len(ideals) == 4  # two coatoms, two points
    for ideal in ideals:
        dropped = [s for s in ideal.stalks if s != alg.lattice.top]
        assert len(dropped) == 1


@pytest.mark.parametrize(
    "spec, points",
    [(M2, 2), (AlgebraSpec((1, 1, 2)), 1), (M12, 2)],
)
def test_cqp_transfer_both_directions(spec, points):
    alg = function_algebra(spec, points)
    ok, lines = cqp_transfer_check(spec, points, check_cqp(alg)[0], weak_centrality(alg))
    assert ok
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)


def test_cqp_transfer_zero_points_skips():
    ok, lines = cqp_transfer_check(M2, 0, True, True)
    assert ok
    assert lines == ["SKIP points=0 function algebra is the zero algebra"]


# ---------------------------------------------------------------------------
# negative controls: each CQP-family check FAILs under a seeded fault
# ---------------------------------------------------------------------------

def test_check_cqp_fails_on_corrupted_normalizer(corrupt_normalizer):
    ok, lines = check_cqp(function_algebra(M2, 2))
    assert not ok
    assert all(line.startswith("FAIL") for line in lines), lines


def test_cqp_transfer_fails_when_function_algebra_lacks_cqp():
    ok, lines = cqp_transfer_check(M2, 2, False, True)
    assert not ok
    assert lines == [
        "PASS cqp-function-algebra-implies-base",
        "FAIL cqp-base-implies-function-algebra",
        "PASS weak-centrality-equals-cqp-base",
        "FAIL weak-centrality-equals-cqp-function-algebra",
    ]


def test_cqp_transfer_fails_when_base_lacks_cqp(monkeypatch):
    monkeypatch.setattr(lie, "check_cqp", lambda alg: (False, []))
    ok, lines = cqp_transfer_check(M2, 2, True, True)
    assert not ok
    assert lines == [
        "FAIL cqp-function-algebra-implies-base",
        "PASS cqp-base-implies-function-algebra",
        "FAIL weak-centrality-equals-cqp-base",
        "PASS weak-centrality-equals-cqp-function-algebra",
    ]


def test_weak_centrality_fails_on_repeated_maximal_ideal(monkeypatch):
    maximal = lie.maximal_ideals
    monkeypatch.setattr(lie, "maximal_ideals", lambda alg: maximal(alg) + maximal(alg)[:1])
    assert not weak_centrality(function_algebra(M11, 2))
