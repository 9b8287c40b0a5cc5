"""Lie normalizers, commutator ideals, sandwich witnesses and the
centre-quotient property, computed exactly on B = A^X.

Brackets in B act point by point, so N(J) = { f : [f, B] inside J },
span[J, B] and J + Z(B) have at each point the N(I), span[I, A] or I + Z(A)
of J's stalk I there.  stalk_parts computes these once per ideal I of A,
exactly, and they are placed at J's stalks with no elimination in B.
A closed subspace L is a Lie ideal iff some ideal J satisfies
span[J, B] <= L <= N(J) (Bresar, Kissin and Shulman).  Such J form an
interval [J_min, J_max], J_min the least ideal holding [L, B], so
sandwich_witness decides the question in closed form from J_min alone.

The randomized sandwich suite groups the ideals by their interval
(span[J, B], N(J)), which many ideals share, and draws each interval's
candidates together, in the quotient N(J) / span[J, B]: each draw is
span[J, B] plus random rows of the quotient, given by their coefficients on
N(J)'s basis rows outside span[J, B]'s pivots, and its RREF is taken in the
few columns of the quotient.  Most repeated draws are one of the interval's
two ends, so those two are decided once per interval.  Every other draw's
basis is assembled from its quotient RREF and decided through a candidate
over the interval's base candidate for span[J, B], which brackets
span[J, B]'s rows once.  An interval with span[J, B] outside N(J) holds no
subspace: every draw of it FAILs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .fdalgebra import AlgebraSpec, block_ideal_subspace
from .function_algebra import (
    FunctionAlgebra,
    PointwiseIdeal,
    enumerate_all_ideals,
    function_algebra,
    pointwise_subspace,
)
from .linalg import (
    Subspace,
    annihilator,
    echelon_subspace,
    integer_combination,
    integer_membership,
    rref,
)
from .value import Value

# Candidates the sandwich suite draws per ideal, and outside every bound.
SANDWICH_PER_IDEAL = 20
SANDWICH_FREE_COUNT = 20


def _brackets(alg: FunctionAlgebra, rows: list, width: int) -> list:
    """[v, e_b] as dense rows of `width`, as tuples, for each integer row v of
    `rows` (given by its nonzero entries, as `Subspace.integer_rows` lists
    them, so no Fraction arithmetic arises) and each basis e_b of B whose
    bracket with v has a term.

    v is read as copies of A side by side, one per point and, in a realified
    row, per part (Re, Im); coordinate i brackets through A's table at offset
    i - i % dim A, in the row of B's unit at i's point plus b (B is real).
    A row's terms may cancel to zero; callers only span or test membership.
    """
    comm = alg.commutator_table
    d, dim = alg.spec.total_dim, alg.dim
    out = []
    for _, cols, values in rows:
        brackets = [None] * dim
        for i, f in zip(cols, values):
            offset = i - i % d
            point = offset % dim
            for b, terms in comm[i - offset]:
                row = brackets[point + b]
                if row is None:
                    row = brackets[point + b] = [0] * width
                for c, s in terms:
                    row[offset + c] = row[offset + c] + f * s
        out += [tuple(row) for row in brackets if row is not None]
    return out


@lru_cache(maxsize=None)
def stalk_parts(spec: AlgebraSpec) -> tuple:
    """(span[I, A], N(I), I + Z(A)) for each ideal I of A, by block mask.
    As phi . [f, e_b] = [phi, e_b^T] . f, N(I) is the annihilator of the
    brackets of I's annihilator."""
    alg = function_algebra(spec, 1)

    def bracket_span(sub: Subspace) -> Subspace:
        return rref(_brackets(alg, sub.integer_rows()[1], alg.dim), alg.dim)

    ideals = [block_ideal_subspace(spec, mask) for mask in range(alg.lattice.size)]
    return tuple(
        (bracket_span(i), annihilator(bracket_span(annihilator(i))), i + alg.centre_subspace)
        for i in ideals
    )


def _placed(alg: FunctionAlgebra, ideal: PointwiseIdeal, part: int) -> Subspace:
    """B's subspace whose stalk at x is stalk_parts' `part` for J's stalk there."""
    table = stalk_parts(alg.spec)
    return pointwise_subspace(alg, [table[s][part] for s in ideal.stalks])


def lie_normalizer(alg: FunctionAlgebra, ideal: PointwiseIdeal) -> Subspace:
    """N(J): all f with [f, b] in J for every b in B, placed from its stalks."""
    return _placed(alg, ideal, 1)


def commutator_ideal_span(alg: FunctionAlgebra, ideal: PointwiseIdeal) -> Subspace:
    """span[J, B]: the span of [v, b] over v in J, b in B, placed from its stalks."""
    return _placed(alg, ideal, 0)


class LieCandidate(Value):
    """A closed subspace L of B offered as a potential Lie ideal.

    `space` is L itself (width dim B) or, for a complex L, its realification:
    the rational span of (Re v, Im v) over v in L (width 2 dim B).  B is
    real, so every test below reads the same answer off either form.

    A `base` candidate, for a subspace K of L of the same width, shares its
    work: L's rows whose pivot is not one of K's span L modulo K, so only they
    are bracketed, and of K's bracket rows only those outside K can leave L.
    A base built on a fresh candidate for K itself keeps just those rows, so
    every candidate over it tests them again at little cost.
    """

    # brackets: bracket rows [v, e_b], as tuples, that span [L, B] modulo a
    # part already inside L, each scaled by an integer; support: the columns
    # where some [v, e_b] over L's basis rows v is nonzero; contains: the
    # membership test of L, a closure, so candidates built apart never compare
    # equal.  All are built once for every test of L.
    __slots__ = ("alg", "space", "brackets", "support", "contains")

    def __init__(self, alg: FunctionAlgebra, space: Subspace, base: LieCandidate | None = None):
        width = space.ambient_dim
        if width not in (alg.dim, 2 * alg.dim):
            raise ValueError("candidate does not live in the algebra's coordinate space")
        den, rows = space.integer_rows()
        bracketed, escaping, support = rows, (), frozenset()
        if base is not None:
            if base.space.ambient_dim != width:
                raise ValueError("base candidate has another width")
            held = set(base.space.pivots)
            bracketed = [row for row in rows if row[0] not in held]
            escaping = tuple(row for row in base.brackets if not base.contains(row))
            support = base.support
        new = _brackets(alg, bracketed, width)
        columns = range(width)
        support = support.union(*(compress(columns, row) for row in new))
        self._fill(alg, space, escaping + tuple(new), support, integer_membership(den, rows))


def is_lie_ideal(candidate: LieCandidate) -> bool:
    """True iff [b, l] stays in the subspace for all basis pairs."""
    return all(map(candidate.contains, candidate.brackets))


def least_normalizing_ideal(candidate: LieCandidate) -> PointwiseIdeal:
    """J_min, the least ideal J with [L, B] <= J (equivalently L <= N(J)): its
    stalk at x masks the blocks where some [v, e_b], v in L's basis, is nonzero
    (in its real or its imaginary part): the blocks of the candidate's support."""
    alg = candidate.alg
    block = [b for b, n in enumerate(alg.spec.block_dims) for _ in range(n * n)]
    masks = [0] * alg.points
    for i in candidate.support:
        x, a = divmod(i % alg.dim, len(block))
        masks[x] |= 1 << block[a]
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
    return rref(_random_rows(dim, rng.randint(0, dim), rng), dim)


def _random_rows(width: int, count: int, rng) -> list:
    """`count` rows of `width` coefficients drawn from -2..2."""
    # randrange(5) - 2 is randint(-2, 2), one call layer less
    return [[rng.randrange(5) - 2 for _ in range(width)] for _ in range(count)]


class _Interval:
    """The draws between lower = span[J, B] and upper = N(J), lower <= upper,
    made in the quotient upper / lower.

    Let Q be the pivots of upper that are not lower's; upper's basis rows U_q,
    q in Q, span upper modulo lower.  A draw is lower plus random rows of
    coefficients on the U_q, and their RREF in |Q| columns has rank 0 at lower
    and |Q| at upper.  Any other draw's RREF basis in B is assembled from the
    quotient's RREF with no elimination in B: each quotient row lifted
    through the U_q, and lower's rows reduced at the lifted rows' pivots, in
    pivot order.
    """

    def __init__(self, alg: FunctionAlgebra, lower: Subspace, upper: Subspace):
        self.alg, self.lower, self.upper = alg, lower, upper
        self.den, urows = upper.integer_rows()
        held = set(lower.pivots)
        self.q_rows = [row for row in urows if row[0] not in held]
        # lower's rows: (pivot, row, its entries at Q, upper's integer row there)
        upper_at = {row[0]: row for row in urows}
        self.lower_rows = [
            (p, row, [row[q] for q, _, _ in self.q_rows], upper_at[p])
            for row, p in zip(lower.basis, lower.pivots)
        ]
        # when Q is every column, the quotient RREF is the draw itself
        self.whole = len(self.q_rows) == alg.dim
        self.base = LieCandidate(alg, lower, LieCandidate(alg, lower))

    def draw(self, rng) -> Subspace:
        """The next draw of `rng`: `lower` or `upper` itself at an end."""
        width = len(self.q_rows)
        count = rng.randint(0, self.upper.dim)
        if not count:
            return self.lower
        quotient = rref(_random_rows(width, count, rng), width)
        if quotient.dim == 0:
            return self.lower
        if quotient.dim == width:
            return self.upper
        return quotient if self.whole else self._assemble(quotient)

    def _assemble(self, quotient: Subspace) -> Subspace:
        dim = self.alg.dim
        rows = [
            (self.q_rows[t][0], integer_combination(r, self.q_rows, self.den, dim))
            for r, t in zip(quotient.basis, quotient.pivots)
        ]
        for p, row, at_q, upper_row in self.lower_rows:
            hits = [(at_q[t], r) for r, t in zip(quotient.basis, quotient.pivots) if at_q[t]]
            if hits:
                coords = list(at_q)
                for f, r in hits:
                    for k, x in enumerate(r):
                        if x:
                            coords[k] -= f * x
                row = integer_combination([1] + coords, [upper_row] + self.q_rows, self.den, dim)
            rows.append((p, row))
        rows.sort()
        return echelon_subspace(dim, tuple(r for _, r in rows), tuple(p for p, _ in rows))


def _sandwiched(alg: FunctionAlgebra, space: Subspace, base: LieCandidate) -> bool:
    """True iff the subspace is a Lie ideal with a sandwich witness."""
    cand = LieCandidate(alg, space, base)
    return is_lie_ideal(cand) and sandwich_witness(cand) is not None


def sandwich_random_suite(alg: FunctionAlgebra, seed: int) -> tuple:
    """Randomized check that the sandwich bounds characterize Lie ideals.

    Part one: subspaces between span[J,B] and N(J) must all be Lie ideals
    with a witness.  Ideals sharing the interval (span[J,B], N(J)) are
    grouped, in first-seen order: an interval shared by m ideals gets
    SANDWICH_PER_IDEAL * m draws, each span[J, B] plus random rows of the
    quotient N(J) / span[J, B] (see _Interval).  Each end is decided when
    first drawn and its verdict reused for every later draw equal to it; any
    other draw is decided directly, by a candidate over the interval's base
    candidate for span[J, B].  Every draw counts.  An interval whose
    span[J, B] is not inside N(J) holds no subspace, so each of its draws is
    a discrepancy.
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
        draws = SANDWICH_PER_IDEAL * m
        checked_between += draws
        if not lower <= upper:
            bad_between += draws
            continue
        interval = _Interval(alg, lower, upper)
        ends: dict = {}  # lower.dim or upper.dim -> that end's verdict, once drawn
        for _ in range(draws):
            space = interval.draw(rng)
            # lower <= space <= upper, so it is an end iff it has an end's dimension
            if space.dim not in (lower.dim, upper.dim):
                good = _sandwiched(alg, space, interval.base)
            elif space.dim in ends:
                good = ends[space.dim]
            else:
                good = ends[space.dim] = _sandwiched(alg, space, interval.base)
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


def cqp_sides(alg: FunctionAlgebra, ideal: PointwiseIdeal) -> tuple:
    """(N(J), J + Z(B)): the two sides of the centre-quotient identity.

    With one block, Z(B) is C(X, C1), so this is also the normalizer formula
    N(J) = J + C(X, C1) for an algebra with a unique maximal ideal.
    """
    return lie_normalizer(alg, ideal), _placed(alg, ideal, 2)


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
