"""Lie normalizers, sandwich characterization, CQP and weak centrality."""

import random
import re
import tracemalloc
from functools import lru_cache
from unittest import mock

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
)
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
    bracket_spaces,
    dense_brackets,
    element_from_vector,
    lie_closure,
    sandwich_draws,
    split_decide,
    split_support,
    sympy_kernel,
    trace_zero_subspace,
    tracial_state_basis,
    unequal_diagonal_pairs,
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
    """(ideal, subspace) for every ideal of A^X, then (None, subspace) for
    seeded random subspaces of at most 3 rows."""
    alg = function_algebra(spec, points)
    rng = random.Random(1904)
    cases = [(i, alg.ideal_subspace(i)) for i in enumerate_all_ideals(alg, verify=False)]
    for _ in range(random_count):
        rows = [[rng.randint(-2, 2) for _ in range(alg.dim)] for _ in range(rng.randint(0, 3))]
        cases.append((None, rref(rows, alg.dim)))
    return alg, cases


def realified(sub) -> Subspace:
    """Rows (v, w) pairing each basis row v of sub with the next one, w, so a
    row's Re and Im parts mostly sit at different points."""
    rows = list(sub.basis)
    return rref([v + w for v, w in zip(rows, rows[1:] + rows[:1])], 2 * sub.ambient_dim)


@pytest.mark.parametrize("spec, points", [(M2, 2), (M12, 2), (M2, 3)])
def test_bracket_core_matches_dense_oracles(spec, points):
    alg, cases = core_cases(spec, points)
    for ideal, sub in cases:
        for space in (sub, realified(sub)):
            dense = [row for v in space.basis for row in dense_brackets(alg, v)]
            cand = LieCandidate(alg, space)
            # the candidate brackets the basis rows scaled to integers by D
            den, _ = space.integer_rows()
            scaled = [tuple(den * x for x in row) for row in dense if any(row)]
            assert [row for row in cand.brackets if any(row)] == scaled
            assert is_lie_ideal(cand) == all(space.contains(row) for row in dense)
        if ideal is not None:
            dense = [row for v in sub.basis for row in dense_brackets(alg, v)]
            assert lie_normalizer(alg, ideal) == dense_normalizer(alg, sub)
            assert commutator_ideal_span(alg, ideal) == rref(dense, alg.dim)


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


# ---------------------------------------------------------------------------
# placement from the per-mask table of A
# ---------------------------------------------------------------------------

PLACEMENT_SPECS = [M2, M3, M12, AlgebraSpec((2, 2)), AlgebraSpec((1, 1, 1))]


def blocks_id(spec) -> str:
    return "blocks" + "_".join(map(str, spec.block_dims))


@pytest.mark.parametrize("points", range(4))
@pytest.mark.parametrize("spec", PLACEMENT_SPECS, ids=blocks_id)
def test_placed_bracket_spaces_match_the_elimination_in_b(spec, points):
    """N(J), span[J, B] and J + Z(B), placed from J's stalks, equal the same
    spaces found by elimination over all of B, for every pointwise ideal."""
    alg = function_algebra(spec, points)
    for ideal in enumerate_all_ideals(alg, verify=False):
        span, normalizer, summed = bracket_spaces(alg, ideal)
        assert commutator_ideal_span(alg, ideal) == span
        assert lie_normalizer(alg, ideal) == normalizer
        assert cqp_sides(alg, ideal) == (normalizer, summed)


@pytest.mark.parametrize("spec", [M2, M12, AlgebraSpec((1, 1, 1))], ids=blocks_id)
def test_placement_runs_no_elimination_after_the_first_call(monkeypatch, spec):
    """The first call on a spec fills its table; after it, no rref or
    annihilator runs in the Lie layer at any point count."""
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)

        return wrapper

    monkeypatch.setattr(lie, "rref", counted("rref", lie.rref))
    monkeypatch.setattr(lie, "annihilator", counted("annihilator", lie.annihilator))
    lie.stalk_parts.cache_clear()
    try:
        alg = function_algebra(spec, 2)
        lie_normalizer(alg, ideal_of(alg, 0, 0))
        assert "rref" in calls and "annihilator" in calls
        calls.clear()
        for points in range(4):
            alg = function_algebra(spec, points)
            for ideal in enumerate_all_ideals(alg, verify=False):
                lie_normalizer(alg, ideal)
                commutator_ideal_span(alg, ideal)
                cqp_sides(alg, ideal)
        assert calls == []
    finally:
        lie.stalk_parts.cache_clear()


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
    """A rejected verdict counts once per draw, 20 per ideal, whichever interval
    the ideal shares, including the draws that reuse an end's verdict.  The
    outside scan is switched off, since a draw of it that lands in an
    interval adds a discrepancy too."""
    alg = function_algebra(M2, 2)
    monkeypatch.setattr(lie, "is_lie_ideal", lambda candidate: False)
    monkeypatch.setattr(lie, "SANDWICH_FREE_COUNT", 0)
    ok, lines = sandwich_random_suite(alg, seed=11)
    n = lie.SANDWICH_PER_IDEAL * len(enumerate_all_ideals(alg, verify=False))
    assert not ok
    assert lines[0] == f"FAIL sandwich-between-bounds ({n} subspaces, {n} discrepancies)"


@pytest.mark.parametrize("end", ["lower", "upper"])
def test_sandwich_suite_decides_an_end_once_and_counts_it_per_draw(monkeypatch, end):
    """On M2 x 2 the interval of J = 0 is [span[0, B], N(0)] = [0, Z(B)], and
    no other interval has either end.  A fault that rejects only that end is
    decided once, yet fails every draw equal to the end."""
    alg = function_algebra(M2, 2)
    bad = Subspace.zero(alg.dim) if end == "lower" else alg.centre_subspace
    decided = []
    honest = lie.is_lie_ideal

    def faulty(candidate):
        decided.append(candidate.space == bad)
        return candidate.space != bad and honest(candidate)

    monkeypatch.setattr(lie, "is_lie_ideal", faulty)
    monkeypatch.setattr(lie, "SANDWICH_FREE_COUNT", 0)
    ok, lines = sandwich_random_suite(alg, seed=11)
    found = re.fullmatch(r"FAIL sandwich-between-bounds \((\d+) subspaces, (\d+) discrepancies\)", lines[0])
    assert not ok and found
    assert int(found[2]) > 1
    assert decided.count(True) == 1


def test_sandwich_suite_memory_does_not_grow_with_its_draws():
    """[1,1,1] x 2 is commutative, so its 64 ideals share one interval, [0, B],
    and its 1,280 draws hold over 900 distinct subspaces; the suite keeps none.
    A fresh algebra keeps the peak independent of what earlier tests cached."""
    alg = FunctionAlgebra(AlgebraSpec((1, 1, 1)), 2)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    try:
        ok, _ = sandwich_random_suite(alg, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert ok
    assert peak - base < 0.25 * 2**20


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


# Algebras whose sandwich draws are compared with draws lifted to whole rows
# of B, and seeds; [1,2] x 3 is a verify-suite algebra.
DRAW_CASES = [(M2, 2), (M12, 2), (AlgebraSpec((2, 2)), 2), (M3, 2), (AlgebraSpec((2, 3)), 1),
              (AlgebraSpec((1, 1, 1)), 2), (M12, 3)]
DRAW_SEEDS = [0, 1, 11]


@lru_cache(maxsize=None)
def decided_candidates(spec, points, seed):
    """(alg, ok, every candidate the between-bounds part decides, in order)."""
    alg = function_algebra(spec, points)
    decided = []
    honest = lie.is_lie_ideal

    def logged(candidate):
        decided.append(candidate)
        return honest(candidate)

    with mock.patch.object(lie, "is_lie_ideal", logged), mock.patch.object(lie, "SANDWICH_FREE_COUNT", 0):
        ok, _ = sandwich_random_suite(alg, seed)
    return alg, ok, tuple(decided)


@pytest.mark.parametrize("seed", DRAW_SEEDS)
@pytest.mark.parametrize("spec, points", DRAW_CASES)
def test_sandwich_suite_decides_the_draws_of_whole_rows(spec, points, seed):
    """The quotient draws are the subspaces that the same random rows give
    when lifted to whole rows of B and reduced there, each end once per
    interval, and every assembled basis is a valid, canonical RREF."""
    alg, ok, decided = decided_candidates(spec, points, seed)
    expected = sandwich_draws(alg, seed)
    assert ok
    assert [cand.space for cand in decided] == expected
    for cand, want in zip(decided, expected):
        space = cand.space
        assert space == Subspace(space.ambient_dim, space.basis)
        assert [list(map(type, row)) for row in space.basis] == [list(map(type, row)) for row in want.basis]


@pytest.mark.parametrize("seed", DRAW_SEEDS)
@pytest.mark.parametrize("spec, points", DRAW_CASES)
def test_candidates_over_the_interval_base_agree_with_fresh_ones(spec, points, seed):
    """A candidate over its interval's base decides as a fresh candidate for
    the same subspace does, and finds the same J_min."""
    alg, _, decided = decided_candidates(spec, points, seed)
    verdicts = set()
    for cand in decided:
        fresh = LieCandidate(alg, cand.space)
        verdicts.add(is_lie_ideal(fresh))
        assert is_lie_ideal(cand) == is_lie_ideal(fresh)
        assert cand.support == fresh.support
        assert least_normalizing_ideal(cand) == least_normalizing_ideal(fresh)
    assert verdicts == {True}


def trace_zero_at_first_point(alg):
    """sl2 at the first point of M2 x points: span(e11 - e22, e12, e21) there."""
    rows = [(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)]
    return rref([row + (0,) * (alg.dim - 4) for row in rows], alg.dim)


def test_candidates_over_a_base_whose_brackets_leave_it():
    """span(e12) at one point of M2 x 2 is not Lie-closed: its brackets leave
    it, so every superspace must test them, whether the base holds all of
    them or only those outside it."""
    alg = function_algebra(M2, 2)
    e12 = rref([(0, 1, 0, 0, 0, 0, 0, 0)], alg.dim)
    rng = random.Random(5)
    supers = [e12, e12 + trace_zero_at_first_point(alg), Subspace.full(alg.dim)]
    for _ in range(20):
        rows = [[rng.randint(-2, 2) for _ in range(alg.dim)] for _ in range(rng.randint(1, 4))]
        supers.append(e12 + rref(rows, alg.dim))
    fresh_base = LieCandidate(alg, e12)
    escaping = LieCandidate(alg, e12, fresh_base)
    assert not is_lie_ideal(fresh_base) and escaping.brackets
    assert len(escaping.brackets) < len(fresh_base.brackets)
    verdicts = set()
    for sup in supers:
        fresh = LieCandidate(alg, sup)
        verdicts.add(is_lie_ideal(fresh))
        for base in (fresh_base, escaping):
            cand = LieCandidate(alg, sup, base)
            assert is_lie_ideal(cand) == is_lie_ideal(fresh), sup
            assert cand.support == fresh.support
            assert least_normalizing_ideal(cand) == least_normalizing_ideal(fresh)
    assert verdicts == {True, False}


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


SPLIT_SPECS = [M2, M12, AlgebraSpec((2, 2)), M3]


def split_generators(alg, rng) -> list:
    """1-3 seeded rows of B: sparse rows, matrix units and e_ii - e_jj."""
    diagonal = [i for i in range(alg.dim) if alg.coord_info(i)[2] == alg.coord_info(i)[3]]
    rows = []
    for _ in range(rng.randint(1, 3)):
        row = [0] * alg.dim
        kind = rng.choice(["sparse", "unit", "diagonal"])
        if kind == "sparse":
            for i in rng.sample(range(alg.dim), min(2, alg.dim)):
                row[i] = rng.choice([-2, -1, 1, 2])
        elif kind == "unit":
            row[rng.randrange(alg.dim)] = 1
        elif len(diagonal) > 1:
            i, j = rng.sample(diagonal, 2)
            row[i], row[j] = 1, -1
        rows.append(row)
    return rows


def split_cases():
    """(alg, subspace): seeded Lie closures and plain spans of the same kind
    of generators, on every algebra of SPLIT_SPECS at 1-3 points."""
    rng = random.Random(1904)
    for spec in SPLIT_SPECS:
        for points in (1, 2, 3):
            alg = function_algebra(spec, points)
            for _ in range(4):
                yield alg, lie_closure(alg, split_generators(alg, rng))
                yield alg, rref(split_generators(alg, rng), alg.dim)


def test_split_decide_agrees_with_the_brackets():
    """A second method with no brackets: split_decide agrees with
    is_lie_ideal, and its T is the block support of J_min.  Ignoring
    off-diagonal entries must disagree at least once."""
    verdicts = set()
    faulty = 0
    for alg, sub in split_cases():
        cand = LieCandidate(alg, sub)
        lie = is_lie_ideal(cand)
        assert split_decide(alg, sub) == lie, (alg, sub)
        stalks = least_normalizing_ideal(cand).stalks
        blocks = range(alg.spec.num_blocks)
        support = {(x, b) for x, s in enumerate(stalks) for b in blocks if s >> b & 1}
        assert split_support(alg, sub) == support, (alg, sub)
        verdicts.add(lie)
        # seeded fault: off-diagonal entries are ignored
        faulty += split_decide(alg, sub, unequal_diagonal_pairs(alg, sub)) != lie
    assert verdicts == {True, False}
    assert faulty > 0


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
