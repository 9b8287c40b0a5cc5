"""Lie normalizers, commutator ideals, sandwich witnesses and the
centre-quotient property, computed exactly on B = A^X.

The normalizer N(J) = { f : [f, B] inside J } is the solution space of one
linear system (membership constraints against every basis element), solved
in one shot with exact arithmetic.  A closed subspace L is a Lie ideal iff
some ideal J satisfies span[J, B] <= L <= N(J) (Bresar, Kissin and Shulman).
Such J form an interval [J_min, J_max], J_min the least ideal holding [L, B],
so sandwich_witness decides the question in closed form from J_min alone.
"""

from __future__ import annotations

from .fdalgebra import AlgebraSpec
from .function_algebra import (
    FunctionAlgebra,
    PointwiseIdeal,
    enumerate_all_ideals,
    function_algebra,
)
from .lattice import SpaceModel
from .linalg import Subspace, annihilator, rref
from .value import Frozen, setfield

# Candidates the sandwich suite draws per ideal, and outside every bound.
SANDWICH_PER_IDEAL = 20
SANDWICH_FREE_COUNT = 20


def _ideal_subspace(alg: FunctionAlgebra, ideal) -> Subspace:
    if isinstance(ideal, PointwiseIdeal):
        return alg.ideal_subspace(ideal)
    if isinstance(ideal, Subspace):
        if ideal.ambient_dim != alg.dim:
            raise ValueError("subspace does not live in the algebra's coordinate space")
        return ideal
    raise TypeError(f"expected PointwiseIdeal or Subspace, got {type(ideal).__name__}")


def _brackets(alg: FunctionAlgebra, v) -> list:
    """[v, e_b] as dense rows, for each basis e_b whose bracket with v has a term.

    v may hold several elements of B side by side (a realified row holds
    (Re, Im)); B is real, so each is bracketed with e_b in its own slot.
    A row's terms may cancel to zero; callers only span or test membership.
    """
    comm = alg.commutator_table
    dim = alg.dim
    width = len(v)
    rows = [None] * dim
    for i, f in enumerate(v):
        if not f:
            continue
        offset = i - i % dim
        for b, terms in enumerate(comm[i - offset]):
            if terms:
                row = rows[b]
                if row is None:
                    row = rows[b] = [0] * width
                for c, s in terms:
                    row[offset + c] = row[offset + c] + f * s
    return [row for row in rows if row is not None]


def lie_normalizer(alg: FunctionAlgebra, ideal) -> Subspace:
    """N(J): all f with [f, b] in J for every basis element b of B.

    Under the coordinate pairing, phi . [f, e_b] = [phi, e_b^T] . f, so the
    constraint rows are the brackets of the annihilator's basis rows.
    """
    ann = annihilator(_ideal_subspace(alg, ideal))
    rows = [row for phi in ann.basis for row in _brackets(alg, phi)]
    return annihilator(rref(rows, alg.dim))


def commutator_ideal_span(alg: FunctionAlgebra, ideal) -> Subspace:
    """Span of [v, b] over basis rows v of the ideal and basis elements b,
    memoized per stalk tuple on the algebra when the ideal is a PointwiseIdeal."""
    memo = isinstance(ideal, PointwiseIdeal)
    if memo and ideal.stalks in alg.commutator_spans:
        return alg.commutator_spans[ideal.stalks]
    sub = _ideal_subspace(alg, ideal)
    span = rref([row for v in sub.basis for row in _brackets(alg, v)], alg.dim)
    if memo:
        alg.commutator_spans[ideal.stalks] = span
    return span


class LieCandidate(Frozen):
    """A closed subspace L of B offered as a potential Lie ideal.

    `space` is L itself (width dim B) or, for a complex L, its realification:
    the rational span of (Re v, Im v) over v in L (width 2 dim B).  B is
    real, so every test below reads the same answer off either form.
    """

    # brackets: the [v, e_b] rows over L's basis rows v, computed once for every test of L
    __slots__ = ("alg", "space", "brackets")

    def __init__(self, alg: FunctionAlgebra, space: Subspace):
        if space.ambient_dim not in (alg.dim, 2 * alg.dim):
            raise ValueError("candidate does not live in the algebra's coordinate space")
        setfield(self, "alg", alg)
        setfield(self, "space", space)
        setfield(self, "brackets", tuple(row for v in space.basis for row in _brackets(alg, v)))


def is_lie_ideal(candidate: LieCandidate) -> bool:
    """True iff [b, l] stays in the subspace for all basis pairs."""
    return all(candidate.space._reduces_to_zero(row) for row in candidate.brackets)


def least_normalizing_ideal(candidate: LieCandidate) -> PointwiseIdeal:
    """J_min, the least ideal J with [L, B] <= J (equivalently L <= N(J)): its
    stalk at x masks the blocks where some [v, e_b], v in L's basis, is nonzero
    (in its real or its imaginary part)."""
    alg = candidate.alg
    masks = [0] * alg.space.point_count
    for row in candidate.brackets:
        for i, c in enumerate(row):
            if c:
                x, b, _, _ = alg.coord_info(i % alg.dim)
                masks[x] |= 1 << b
    return PointwiseIdeal(alg.lattice, alg.space, tuple(masks))


def sandwich_witness(candidate: LieCandidate):
    """First ideal J (canonical stalk order) with span[J,B] <= L <= N(J), or None.

    L <= N(J) iff J contains J_min, and span[J, B] grows with J, so J_min
    decides; stalk indices are block masks, so it is the first witness too.
    span[J, B] is real: it lies in L iff each basis row s has (s, 0) in the
    realification, so its rows are padded to the candidate's width.
    """
    ideal = least_normalizing_ideal(candidate)
    space = candidate.space
    pad = (0,) * (space.ambient_dim - candidate.alg.dim)
    lower = commutator_ideal_span(candidate.alg, ideal)
    return ideal if all(space._reduces_to_zero(row + pad) for row in lower.basis) else None


def random_subspace(dim: int, rng, max_rows: int | None = None) -> Subspace:
    count = rng.randint(0, dim if max_rows is None else max_rows)
    return rref(_random_combination_rows(Subspace.full(dim), rng, count), dim)


def _random_combination_rows(base: Subspace, rng, count: int) -> list:
    terms = [[(k, v) for k, v in enumerate(src) if v] for src in base.basis]
    rows = []
    for _ in range(count):
        row = [0] * base.ambient_dim
        for src in terms:
            c = rng.randint(-2, 2)
            if c:
                for k, v in src:
                    row[k] = row[k] + c * v
        rows.append(row)
    return rows


def sandwich_random_suite(alg: FunctionAlgebra, seed: int) -> tuple:
    """Randomized check that the sandwich bounds characterize Lie ideals.

    Part one: subspaces between span[J,B] and N(J) must all be Lie ideals
    with a witness.  Part two: seeded random subspaces lying between no
    bounds (a scan independent of sandwich_witness) must fail both tests.
    Returns (ok, report_lines) with zero tolerated discrepancies.
    """
    import random

    rng = random.Random(seed)
    ideals = enumerate_all_ideals(alg, verify=False)
    bounds = [(commutator_ideal_span(alg, j), lie_normalizer(alg, j)) for j in ideals]
    bad_between = 0
    checked_between = 0
    for lower, upper in bounds:
        for _ in range(SANDWICH_PER_IDEAL):
            extra = _random_combination_rows(upper, rng, rng.randint(0, upper.dim))
            cand = LieCandidate(alg, rref(list(lower.basis) + extra, alg.dim))
            checked_between += 1
            if not is_lie_ideal(cand) or sandwich_witness(cand) is None:
                bad_between += 1
    bad_free = 0
    checked_free = 0
    attempts = 0
    while checked_free < SANDWICH_FREE_COUNT and attempts < SANDWICH_FREE_COUNT * 50:
        attempts += 1
        sub = random_subspace(alg.dim, rng)
        cand = LieCandidate(alg, sub)
        between = any(lo <= sub and sub <= up for lo, up in bounds)
        lie = is_lie_ideal(cand)
        witness = sandwich_witness(cand)
        if between:
            if not lie or witness is None:
                bad_between += 1
            continue
        checked_free += 1
        if lie or witness is not None:
            bad_free += 1
    ok = bad_between == 0 and bad_free == 0
    lines = [
        f"{'PASS' if bad_between == 0 else 'FAIL'} sandwich-between-bounds "
        f"({checked_between} subspaces, {bad_between} discrepancies)",
        f"{'PASS' if bad_free == 0 else 'FAIL'} sandwich-outside-bounds "
        f"({checked_free} subspaces, {bad_free} discrepancies)",
    ]
    return ok, lines


def cqp_sides(alg: FunctionAlgebra, ideal) -> tuple:
    """(N(J), J + Z(B)): the two sides of the centre-quotient identity.

    With one block, Z(B) is C(X, C1), so this is also the normalizer formula
    N(J) = J + C(X, C1) for an algebra with a unique maximal ideal.
    """
    return lie_normalizer(alg, ideal), _ideal_subspace(alg, ideal) + alg.centre_subspace


def check_cqp(alg: FunctionAlgebra) -> tuple:
    """Centre-quotient property: N(I) = I + Z(B) for every ideal I.

    Returns (holds, report_lines) with one stable line per ideal.
    """
    lines = []
    ok = True
    for ideal in enumerate_all_ideals(alg, verify=False):
        nj, summed = cqp_sides(alg, ideal)
        good = nj == summed
        ok = ok and good
        label = ",".join(str(s + 1) for s in ideal.stalks)
        lines.append(f"{'PASS' if good else 'FAIL'} ideal=({label}) normalizer-is-ideal-plus-centre")
    return ok, lines


def maximal_ideals(alg: FunctionAlgebra) -> list:
    """Maximal pointwise ideals: one stalk drops to a coatom, the rest stay top."""
    lat = alg.lattice
    out = []
    for x in alg.space.points():
        for c in lat.coatoms():
            stalks = [lat.top] * alg.space.point_count
            stalks[x] = c
            out.append(PointwiseIdeal(lat, alg.space, tuple(stalks)))
    out.sort(key=lambda ideal: ideal.stalks)
    return out


def weak_centrality(alg: FunctionAlgebra) -> bool:
    """Injectivity of M -> M intersect Z(B) on maximal ideals."""
    centre = alg.centre_subspace
    seen = []
    for ideal in maximal_ideals(alg):
        trace = alg.ideal_subspace(ideal) & centre
        if trace in seen:
            return False
        seen.append(trace)
    return True


def cqp_transfer_check(spec: AlgebraSpec, space: SpaceModel, cqp_b: bool, wc_b: bool) -> tuple:
    """CQP passes between A and A^X in both directions (A is unital here),
    and agrees with weak centrality on every algebra tested.

    cqp_b and wc_b are the verdicts of check_cqp and weak_centrality on
    B = A^X; only A's are computed here.  Returns (ok, report_lines).
    """
    if space.point_count == 0:
        return True, ["SKIP points=0 function algebra is the zero algebra"]
    alg_a = function_algebra(spec, 1)
    cqp_a, _ = check_cqp(alg_a)
    wc_a = weak_centrality(alg_a)
    checks = [
        ("cqp-function-algebra-implies-base", (not cqp_b) or cqp_a),
        ("cqp-base-implies-function-algebra", (not cqp_a) or cqp_b),
        ("weak-centrality-equals-cqp-base", wc_a == cqp_a),
        ("weak-centrality-equals-cqp-function-algebra", wc_b == cqp_b),
    ]
    lines = [f"{'PASS' if good else 'FAIL'} {name}" for name, good in checks]
    return all(good for _, good in checks), lines
