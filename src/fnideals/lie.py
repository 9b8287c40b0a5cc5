"""Lie normalizers, commutator ideals, sandwich witnesses and the
centre-quotient property, computed exactly on B = A^X.

The normalizer N(J) = { f : [f, B] inside J } is the solution space of one
linear system (membership constraints against every basis element), solved
in one shot with exact arithmetic.  A closed subspace L is a Lie ideal iff
some ideal J satisfies span[J, B] <= L <= N(J) (Bresar, Kissin and Shulman).
Such J form an interval [J_min, J_max], J_min the least ideal holding [L, B],
so sandwich_witness decides the question in closed form from J_min alone.

The randomized sandwich suite groups the ideals by their interval
(span[J, B], N(J)), which many ideals share, and draws each interval's
candidates together.  Most repeated draws are one of the interval's two ends,
so those two are decided once per interval and every other draw directly.
"""

from __future__ import annotations

from itertools import compress

from .fdalgebra import AlgebraSpec
from .function_algebra import (
    FunctionAlgebra,
    PointwiseIdeal,
    enumerate_all_ideals,
    function_algebra,
)
from .linalg import Subspace, annihilator, rref
from .value import Value

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


class LieCandidate(Value):
    """A closed subspace L of B offered as a potential Lie ideal.

    `space` is L itself (width dim B) or, for a complex L, its realification:
    the rational span of (Re v, Im v) over v in L (width 2 dim B).  B is
    real, so every test below reads the same answer off either form.
    """

    # brackets: the [v, e_b] rows over L's basis rows v, as lists, so only a
    # candidate without rows hashes; contains: the membership test of L, a
    # closure, so candidates built apart never compare equal.  Both are built
    # once for every test of L.
    __slots__ = ("alg", "space", "brackets", "contains")

    def __init__(self, alg: FunctionAlgebra, space: Subspace):
        if space.ambient_dim not in (alg.dim, 2 * alg.dim):
            raise ValueError("candidate does not live in the algebra's coordinate space")
        brackets = tuple(row for v in space.basis for row in _brackets(alg, v))
        self._fill(alg, space, brackets, space.membership())


def is_lie_ideal(candidate: LieCandidate) -> bool:
    """True iff [b, l] stays in the subspace for all basis pairs."""
    return all(map(candidate.contains, candidate.brackets))


def least_normalizing_ideal(candidate: LieCandidate) -> PointwiseIdeal:
    """J_min, the least ideal J with [L, B] <= J (equivalently L <= N(J)): its
    stalk at x masks the blocks where some [v, e_b], v in L's basis, is nonzero
    (in its real or its imaginary part)."""
    alg = candidate.alg
    columns = range(candidate.space.ambient_dim)
    support = set()
    for row in candidate.brackets:
        support.update(compress(columns, row))
    table = alg.coord_blocks
    masks = [0] * alg.points
    for i in support:
        x, bit = table[i % alg.dim]
        masks[x] |= bit
    return PointwiseIdeal(alg.lattice, masks)


def sandwich_witness(candidate: LieCandidate):
    """First ideal J (canonical stalk order) with span[J,B] <= L <= N(J), or None.

    L <= N(J) iff J contains J_min, and span[J, B] grows with J, so J_min
    decides; stalk indices are block masks, so it is the first witness too.
    span[J, B] is real: it lies in L iff each basis row s has (s, 0) in the
    realification, so its rows are padded to the candidate's width.
    """
    ideal = least_normalizing_ideal(candidate)
    pad = (0,) * (candidate.space.ambient_dim - candidate.alg.dim)
    lower = commutator_ideal_span(candidate.alg, ideal)
    return ideal if all(candidate.contains(row + pad) for row in lower.basis) else None


def random_subspace(dim: int, rng) -> Subspace:
    count = rng.randint(0, dim)
    units = [(k, [k], [1]) for k in range(dim)]
    return rref(_random_combination_rows(units, dim, rng, count), dim)


def _random_combination_rows(terms: list, width: int, rng, count: int) -> list:
    """`count` rows, each a combination of the basis rows given as `terms`
    (`Subspace.integer_rows`) with coefficients drawn from -2..2.  The rows
    span what the same combinations of the unscaled basis span."""
    rows = []
    for _ in range(count):
        row = [0] * width
        for _, cols, values in terms:
            c = rng.randrange(5) - 2  # randint(-2, 2), one call layer less
            if c:
                for k, v in zip(cols, values):
                    row[k] += c * v
        rows.append(row)
    return rows


def _sandwiched(alg: FunctionAlgebra, space: Subspace) -> bool:
    """True iff the subspace is a Lie ideal with a sandwich witness."""
    cand = LieCandidate(alg, space)
    return is_lie_ideal(cand) and sandwich_witness(cand) is not None


def sandwich_random_suite(alg: FunctionAlgebra, seed: int) -> tuple:
    """Randomized check that the sandwich bounds characterize Lie ideals.

    Part one: subspaces between span[J,B] and N(J) must all be Lie ideals
    with a witness.  Ideals sharing the interval (span[J,B], N(J)) are
    grouped, in first-seen order: an interval shared by m ideals gets
    SANDWICH_PER_IDEAL * m draws.  Each end is decided when first drawn and
    its verdict reused for every later draw equal to it; any other draw is
    decided directly.  Every draw counts.
    Part two: seeded random subspaces lying in no interval (a scan
    independent of sandwich_witness) must fail both tests.  When some
    interval is [0, B] no subspace lies outside, and the part is VACUOUS.
    Returns (ok, report_lines) with zero tolerated discrepancies.
    """
    import random

    rng = random.Random(seed)
    intervals: dict = {}  # (span[J, B], N(J)) -> number of ideals J
    for j in enumerate_all_ideals(alg, verify=False):
        key = (commutator_ideal_span(alg, j), lie_normalizer(alg, j))
        intervals[key] = intervals.get(key, 0) + 1
    bad_between = 0
    checked_between = 0
    for (lower, upper), m in intervals.items():
        ends: dict = {}  # lower.dim or upper.dim -> that end's verdict, once drawn
        _, terms = upper.integer_rows()
        for _ in range(SANDWICH_PER_IDEAL * m):
            extra = _random_combination_rows(terms, alg.dim, rng, rng.randint(0, upper.dim))
            space = rref(list(lower.basis) + extra, alg.dim) if extra else lower
            # lower <= space <= upper, so it is an end iff it has an end's dimension
            if space.dim not in (lower.dim, upper.dim):
                good = _sandwiched(alg, space)
            elif space.dim in ends:
                good = ends[space.dim]
            else:
                good = ends[space.dim] = _sandwiched(alg, space)
            checked_between += 1
            bad_between += not good
    bad_free = 0
    checked_free = 0
    attempts = 0
    vacuous = any(lo.dim == 0 and up.dim == alg.dim for lo, up in intervals)
    while (
        not vacuous
        and checked_free < SANDWICH_FREE_COUNT
        and attempts < SANDWICH_FREE_COUNT * 50
    ):
        attempts += 1
        sub = random_subspace(alg.dim, rng)
        cand = LieCandidate(alg, sub)
        between = any(all(map(cand.contains, lo.basis)) and sub <= up for lo, up in intervals)
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
    if vacuous:
        outside = "VACUOUS sandwich-outside-bounds (every subspace lies in [0, B])"
    elif checked_free == 0:
        outside = f"VACUOUS sandwich-outside-bounds (0 subspaces in {attempts} attempts)"
    else:
        outside = (
            f"{'PASS' if bad_free == 0 else 'FAIL'} sandwich-outside-bounds "
            f"({checked_free} subspaces, {bad_free} discrepancies)"
        )
    lines = [
        f"{'PASS' if bad_between == 0 else 'FAIL'} sandwich-between-bounds "
        f"({checked_between} subspaces, {bad_between} discrepancies)",
        outside,
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
    for x in range(alg.points):
        for c in lat.coatoms():
            stalks = [lat.top] * alg.points
            stalks[x] = c
            out.append(PointwiseIdeal(lat, stalks))
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


def cqp_transfer_check(spec: AlgebraSpec, points: int, cqp_b: bool, wc_b: bool) -> tuple:
    """CQP passes between A and A^X in both directions (A is unital here),
    and agrees with weak centrality on every algebra tested.

    cqp_b and wc_b are the verdicts of check_cqp and weak_centrality on
    B = A^X; only A's are computed here.  Returns (ok, report_lines).
    """
    if points == 0:
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
