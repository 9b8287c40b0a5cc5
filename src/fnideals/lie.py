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
few columns of the quotient.  Each draw is decided there, with no lift to B:
how bracketing with B acts on N(J) modulo span[J, B] is computed once per
interval, and a draw's verdict and J_min are read off it with no
elimination beyond the draw's own RREF.  An interval with span[J, B] outside
N(J) holds no subspace: every draw of it FAILs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress

from .fdalgebra import AlgebraSpec, block_ideal_subspace, unit_action, unit_action_row
from .function_algebra import (
    FunctionAlgebra,
    PointwiseIdeal,
    enumerate_all_ideals,
    function_algebra,
    pointwise_subspace,
)
from .linalg import Subspace, annihilator, integer_membership, integer_residue, rref
from .value import Value

# Candidates the sandwich suite draws per ideal, and outside every bound.
SANDWICH_PER_IDEAL = 20
SANDWICH_FREE_COUNT = 20


@lru_cache(maxsize=None)
def stalk_parts(spec: AlgebraSpec) -> tuple:
    """(span[I, A], N(I), I + Z(A)) for each ideal I of A, by block mask.
    As phi . [f, e_b] = [phi, e_b^T] . f, N(I) is the annihilator of the
    brackets of I's annihilator."""
    alg = function_algebra(spec, 1)

    def bracket_span(sub: Subspace) -> Subspace:
        rows = unit_action(alg.commutator_table, sub.integer_rows()[1], alg.dim, alg.dim)
        return rref(rows, alg.dim)

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
    """

    # brackets: the bracket rows [v, e_b] over L's basis rows v, as tuples,
    # each scaled by an integer; support: the columns where some of them is
    # nonzero; contains: the membership test of L, a closure, so candidates
    # built apart never compare equal.  All are built once for every test of L.
    __slots__ = ("alg", "space", "brackets", "support", "contains")

    def __init__(self, alg: FunctionAlgebra, space: Subspace):
        width = space.ambient_dim
        if width not in (alg.dim, 2 * alg.dim):
            raise ValueError("candidate does not live in the algebra's coordinate space")
        den, rows = space.integer_rows()
        brackets = unit_action(alg.commutator_table, rows, width, alg.dim)
        support = frozenset().union(*(compress(range(width), row) for row in brackets))
        self._fill(alg, space, tuple(brackets), support, integer_membership(den, rows))


def is_lie_ideal(candidate: LieCandidate) -> bool:
    """True iff [b, l] stays in the subspace for all basis pairs."""
    return all(map(candidate.contains, candidate.brackets))


@lru_cache(maxsize=None)
def _block_bits(spec: AlgebraSpec) -> tuple:
    """1 << b for each coordinate of A, b its block."""
    return tuple(1 << b for b, _, _ in spec.unit_coords())


def _support_ideal(alg: FunctionAlgebra, support) -> PointwiseIdeal:
    """The least ideal holding a unit at each support column (read modulo
    dim B, so a realified column names its real one): its stalk at x masks
    the blocks of the columns at x."""
    bits, d = _block_bits(alg.spec), alg.spec.total_dim
    masks = [0] * alg.points
    for i in support:
        x, a = divmod(i % alg.dim, d)
        masks[x] |= bits[a]
    return PointwiseIdeal(alg.lattice, masks)


def least_normalizing_ideal(candidate: LieCandidate) -> PointwiseIdeal:
    """J_min, the least ideal J with [L, B] <= J (equivalently L <= N(J)): its
    stalk at x masks the blocks where some [v, e_b], v in L's basis, is nonzero
    (in its real or its imaginary part): the blocks of the candidate's support."""
    return _support_ideal(candidate.alg, candidate.support)


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
    made and decided in the quotient upper / lower.

    Q is upper's pivots that are not lower's; upper's basis rows U_q, q in Q,
    span upper modulo lower and are zero at lower's pivots.  A draw is
    L = lower + span(C.U), C the RREF in |Q| columns of random coefficient
    rows.  `split` reduces a row v of B by lower to r, and gives sigma = r at
    Q and o = r - sum_q sigma_q U_q: v is in L iff o = 0 and sigma is in C's
    row space.  [L, B] is spanned by the brackets of lower's rows and of the
    rows C.U, and membership, the split and the support of a span are linear
    in those rows: so the splits of lower's escaping brackets and of each
    [U_q, e_b], and the columns of each [U_q, e_b], taken once, decide each
    draw and its J_min as a fresh LieCandidate for it would.
    """

    def __init__(self, alg: FunctionAlgebra, lower: Subspace, upper: Subspace):
        self.alg, self.lower, self.upper = alg, lower, upper
        n, table = alg.dim, alg.commutator_table
        held = set(lower.pivots)
        self.q = [p for p in upper.pivots if p not in held]
        upper_den, rows = upper.integer_rows()
        q_rows = [row for row in rows if row[0] not in held]
        self.residues = integer_residue(*lower.integer_rows()), integer_residue(upper_den, q_rows)
        base = LieCandidate(alg, lower)
        self.escaping = [self.split(w) for w in base.brackets if not base.contains(w)]
        self.support = base.support
        # kept: the splits of [U_q, e_b] over q, for each e_b where one is not 0;
        # reach: each nonzero ([U_q, e_b]_i)_q, i outside support -> those i
        self.kept, reach, zero = [], {}, [0] * n
        acted = [unit_action_row(table, row, n, n) for row in q_rows]
        for b in range(n):
            column = [row[b] or zero for row in acted]
            if not any(map(any, column)):
                continue
            splits = [self.split(w) for w in column]
            if any(map(any, splits)):
                self.kept.append(splits)
            for i in range(n):
                if i not in self.support and any(m := tuple(w[i] for w in column)):
                    reach.setdefault(m, []).append(i)
        self.reach = list(reach.items())
        self.witnesses: dict = {}  # J_min's support -> nonzero splits of span[J_min, B]'s rows

    def split(self, v) -> list:
        """sigma + o for a row v of B, each part scaled by a fixed positive integer."""
        by_lower, by_q = self.residues
        r = by_lower(v)
        return [r[q] for q in self.q] + by_q(r)

    def draw(self, rng) -> Subspace:
        """The quotient RREF C of the next draw of `rng`."""
        return rref(_random_rows(len(self.q), rng.randint(0, self.upper.dim), rng), len(self.q))

    def _holds(self, quotient: Subspace):
        """split(v) -> v in lower + span(C.U), C = quotient, building C's test for a nonzero sigma."""
        k, member = len(self.q), []

        def holds(split) -> bool:
            sigma = split[:k]
            if any(split[k:]):
                return False
            if any(sigma) and not member:
                member.append(quotient.membership())
            return not any(sigma) or member[0](sigma)

        return holds

    def is_lie_ideal(self, quotient: Subspace, holds=None) -> bool:
        """True iff lower + span(C.U), C = quotient, is a Lie ideal."""
        holds = holds or self._holds(quotient)
        rows = quotient.integer_rows()[1] if self.kept else ()
        combined = ([sum(x * splits[q][j] for q, x in zip(cols, values)) for j in range(len(splits[0]))]
                    for splits in self.kept for _, cols, values in rows)
        return all(map(holds, chain(self.escaping, combined)))

    def decide(self, quotient: Subspace) -> bool:
        """True iff lower + span(C.U), C = quotient, is a Lie ideal with a
        sandwich witness: span[J_min, B] splits into it."""
        holds = self._holds(quotient)
        if not self.is_lie_ideal(quotient, holds):
            return False
        support = frozenset(self.draw_support(quotient))
        if support not in self.witnesses:
            span = commutator_ideal_span(self.alg, _support_ideal(self.alg, support)).basis
            self.witnesses[support] = [s for s in map(self.split, span) if any(s)]
        return all(map(holds, self.witnesses[support]))

    def draw_support(self, quotient: Subspace) -> set:
        """The columns where some [v, e_b], v in lower + span(C.U), C =
        quotient, is nonzero: J_min's support."""
        rows = quotient.integer_rows()[1] if self.reach else ()
        support = set(self.support)
        for m, columns in self.reach:
            if any(sum(x * m[q] for q, x in zip(cols, values)) for _, cols, values in rows):
                support.update(columns)
        return support


def sandwich_random_suite(alg: FunctionAlgebra, seed: int) -> tuple:
    """Randomized check that the sandwich bounds characterize Lie ideals.

    Part one: subspaces between span[J,B] and N(J) must all be Lie ideals
    with a witness.  Ideals sharing the interval (span[J,B], N(J)) are
    grouped, in first-seen order: an interval shared by m ideals gets
    SANDWICH_PER_IDEAL * m draws, each span[J, B] plus random rows of the
    quotient N(J) / span[J, B], and each draw is decided in the quotient
    through the interval's bracket action (see _Interval).  Every draw
    counts.  An interval whose span[J, B] is not inside N(J) holds no
    subspace, so each of its draws is a discrepancy.
    Part two: seeded random subspaces lying in no interval (a scan
    independent of sandwich_witness) must fail both tests.  When some
    interval is [0, B] no subspace lies outside, and the part is VACUOUS.
    A scanned subspace in some interval must pass both tests; it counts in
    neither part, and a third line reports those subspaces if one fails.
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
        for _ in range(draws):
            bad_between += not interval.decide(interval.draw(rng))
    bad_free = 0
    checked_free = 0
    attempts = 0
    in_bounds = bad_in_bounds = 0  # scan draws that land in an interval
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
            in_bounds += 1
            bad_in_bounds += not lie or witness is None
            continue
        checked_free += 1
        if lie or witness is not None:
            bad_free += 1
    ok = bad_between == 0 and bad_free == 0 and bad_in_bounds == 0
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
    if bad_in_bounds:
        lines.append(
            f"FAIL sandwich-scan-between-bounds ({in_bounds} subspaces, {bad_in_bounds} discrepancies)"
        )
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
