"""Reference helpers shared by the tests; independent of the package's fast paths."""

import argparse
import contextlib
import io
import itertools
import random
from fractions import Fraction

import sympy

from fnideals import cli, lie
from fnideals.fdalgebra import Element, unit_action
from fnideals.function_algebra import FunctionElement, enumerate_all_ideals
from fnideals.lattice import BoundedLattice, LimitExceeded, mask_to_points
from fnideals.linalg import Subspace, annihilator, rref, vector

# Largest algebra dimension whose 2^dim unit subsets the closure oracle closes.
BRUTE_FORCE_DIM_LIMIT = 5


def vec_dot(u, v):
    """Standard bilinear pairing of two coordinate rows."""
    return sum(a * b for a, b in zip(u, v))


def flat_coords(alg) -> list:
    """(point, block, row, col) of each flat coordinate of B = A^X, in order:
    B is point-major, and A's coordinates run in `AlgebraSpec.unit_coords` order."""
    coords = list(alg.spec.unit_coords())
    return [(x, *c) for x in range(alg.points) for c in coords]


def gaussian_text(re, im):
    """re + im*i written as "p/q", "r/s i" or "p/q+r/s i", as a problem file does."""
    if not im:
        return str(re)
    if not re:
        return f"{im} i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)} i"


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def sympy_kernel(rows, dim) -> Subspace:
    """{ f : r . f = 0 for every row r }, solved by sympy."""
    if not rows:
        return Subspace.full(dim)
    matrix = sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])
    return rref([tuple(from_sympy(x) for x in w) for w in matrix.nullspace()], dim)


def ideal_closure(alg, generators) -> Subspace:
    """Smallest two-sided ideal of B = A^X containing the generators: each basis
    row, as a dense function element, is multiplied on both sides by every
    unit of B until the span stops growing.  No package table is read."""
    units = [basis_element(alg, i) for i in range(alg.dim)]
    current = rref(list(generators), alg.dim)
    while True:
        rows = list(current.basis)
        for row in current.basis:
            f = element_from_vector(alg, row)
            rows += [(e * f).to_vector() for e in units] + [(f * e).to_vector() for e in units]
        closed = rref(rows, alg.dim)
        if closed.dim == current.dim:
            return closed
        current = closed


def closures_of_unit_subsets(alg) -> frozenset:
    """ideal_closure of every subset of the unit basis of B = A^X.

    Each closure is a two-sided ideal, and every ideal spanned by units
    arises from its own units, so for a block algebra (or A^X) the closure
    set must equal the enumerated ideals exactly.
    """
    if alg.dim > BRUTE_FORCE_DIM_LIMIT:
        raise LimitExceeded(
            f"total dimension {alg.dim} exceeds the search limit {BRUTE_FORCE_DIM_LIMIT}"
        )
    unit_rows = Subspace.full(alg.dim).basis
    return frozenset(
        ideal_closure(alg, subset)
        for r in range(alg.dim + 1)
        for subset in itertools.combinations(unit_rows, r)
    )


def commutator(x, y):
    """[x, y] = xy - yx of two Elements or two FunctionElements."""
    return x * y - y * x


def dense_brackets(alg, v) -> list:
    """[v, e_b] for every basis element e_b of B, from dense function elements;
    a realified row v = (Re, Im), of width 2 dim B, gives ([Re, e_b], [Im, e_b])."""
    if len(v) == 2 * alg.dim:
        halves = dense_brackets(alg, v[: alg.dim]), dense_brackets(alg, v[alg.dim :])
        return [re + im for re, im in zip(*halves)]
    f = element_from_vector(alg, v)
    return [commutator(f, basis_element(alg, b)).to_vector() for b in range(alg.dim)]


def bracket_spaces(alg, ideal) -> tuple:
    """(span[J, B], N(J), J + Z(B)) by elimination over all of B, with no
    placement from stalks: span[J, B] is the rref of the brackets of J's
    basis rows, N(J) the annihilator of the brackets of J's annihilator."""
    sub = alg.ideal_subspace(ideal)

    def bracket_span(space):
        rows = unit_action(alg.commutator_table, space.integer_rows()[1], alg.dim, alg.dim)
        return rref(rows, alg.dim)

    return bracket_span(sub), annihilator(bracket_span(annihilator(sub))), sub + alg.centre_subspace


def lie_closure(alg, rows) -> Subspace:
    """The least Lie ideal of B holding the rows: L <- L + span[L, B], with
    dense brackets, until L stops growing."""
    current = rref(rows, alg.dim)
    while True:
        brackets = [r for v in current.basis for r in dense_brackets(alg, v)]
        grown = rref(list(current.basis) + brackets, alg.dim)
        if grown.dim == current.dim:
            return current
        current = grown


def unequal_diagonal_pairs(alg, sub) -> frozenset:
    """The (point, block) pairs where some basis row of sub has two unequal
    diagonal entries."""
    spec, d = alg.spec, alg.spec.total_dim
    return frozenset(
        (x, b)
        for row in sub.basis
        for x in range(alg.points)
        for b, n in enumerate(spec.block_dims)
        if len({row[x * d + spec.coord(b, p, p)] for p in range(n)}) > 1
    )


def split_support(alg, sub) -> frozenset:
    """T: the (point, block) pairs where some basis row of sub is not a scalar
    matrix, having an off-diagonal entry or two unequal diagonal entries."""
    off_diagonal = {
        (x, b)
        for row in sub.basis
        for i, (x, b, p, q) in enumerate(flat_coords(alg))
        if row[i] and p != q
    }
    return unequal_diagonal_pairs(alg, sub) | off_diagonal


def split_decide(alg, sub, support=None) -> bool:
    """Is sub a Lie ideal of B?  Decided with no bracket: B = [B, B] + Z(B)
    block by block, and a Lie ideal of M_n (n >= 2) holding a non-scalar
    matrix holds sl(n) (Herstein), so sub is a Lie ideal iff it holds the
    trace-zero units e_pq (p != q) and e_11 - e_pp of every pair in `support`,
    which is T (see split_support) unless given."""
    spec, d = alg.spec, alg.spec.total_dim
    for x, b in split_support(alg, sub) if support is None else support:
        n = spec.block_dims[b]
        units = [{(p, q): 1} for p in range(n) for q in range(n) if p != q]
        units += [{(0, 0): 1, (p, p): -1} for p in range(1, n)]
        for terms in units:
            row = [0] * alg.dim
            for (p, q), v in terms.items():
                row[x * d + spec.coord(b, p, q)] = v
            if not sub.contains(row):
                return False
    return True


def sandwich_draws(alg, seed: int) -> list:
    """The subspaces the sandwich suite decides between its bounds, in order,
    built from whole rows of B: each draw's random coefficient rows on N(J)'s
    basis rows at Q, the pivots of N(J) that are not span[J, B]'s, lifted
    densely in Fraction arithmetic, joined to span[J, B]'s basis and reduced
    by rref in B."""
    rng = random.Random(seed)
    intervals = {}
    for ideal in enumerate_all_ideals(alg, verify=False):
        key = (lie.commutator_ideal_span(alg, ideal), lie.lie_normalizer(alg, ideal))
        intervals[key] = intervals.get(key, 0) + 1
    out = []
    for (lower, upper), m in intervals.items():
        q_rows = [row for row, p in zip(upper.basis, upper.pivots) if p not in lower.pivots]
        for _ in range(lie.SANDWICH_PER_IDEAL * m):
            extra = []
            for _ in range(rng.randint(0, upper.dim)):
                coeffs = [rng.randrange(5) - 2 for _ in q_rows]
                lifted = [Fraction(0)] * alg.dim
                for c, row in zip(coeffs, q_rows):
                    for k, y in enumerate(row):
                        if c and y:
                            lifted[k] += c * Fraction(y)
                extra.append(lifted)
            out.append(rref(list(lower.basis) + extra, alg.dim) if extra else lower)
    return out


def tracial_state_basis(spec) -> tuple:
    """Normalized block traces as dual coordinate vectors; never empty."""
    d = spec.total_dim
    out = []
    for b, n in enumerate(spec.block_dims):
        row = [0] * d
        for p in range(n):
            row[spec.coord(b, p, p)] = Fraction(1, n)
        out.append(vector(row))
    return tuple(out)


def trace_zero_subspace(spec) -> Subspace:
    """The common kernel of the tracial states: [A, A], trace zero in every block."""
    return annihilator(rref(tracial_state_basis(spec), spec.total_dim))


def basis_element(alg, index: int) -> FunctionElement:
    """The matrix unit of B = A^X at flat coordinate index."""
    x, b, p, q = flat_coords(alg)[index]
    values = [Element.zero(alg.spec)] * alg.points
    values[x] = Element.matrix_unit(alg.spec, b, p, q)
    return FunctionElement(alg.spec, tuple(values))


def element_from_vector(alg, vec) -> FunctionElement:
    """The member of B = A^X with the given point-major coordinates."""
    d = alg.spec.total_dim
    if len(vec) != alg.dim:
        raise ValueError("vector length differs from the algebra dimension")
    values = tuple(
        Element.from_vector(alg.spec, vec[x * d : (x + 1) * d]) for x in range(alg.points)
    )
    return FunctionElement(alg.spec, values)


def chain_lattice(m: int) -> BoundedLattice:
    """Total order 0 < 1 < ... < m-1."""
    if m < 1:
        raise ValueError("chain length must be positive")
    meet = tuple(tuple(min(i, j) for j in range(m)) for i in range(m))
    join = tuple(tuple(max(i, j) for j in range(m)) for i in range(m))
    return BoundedLattice(m, meet, join, 0, m - 1)


def product_lattice(a: BoundedLattice, b: BoundedLattice) -> BoundedLattice:
    """Componentwise product; index of (i, j) is i * b.size + j."""
    pairs = list(itertools.product(range(a.size), range(b.size)))

    def table(ta, tb):
        return [[ta[i][k] * b.size + tb[j][m] for k, m in pairs] for i, j in pairs]

    bottom, top = a.bottom * b.size + b.bottom, a.top * b.size + b.top
    return BoundedLattice(len(pairs), table(a.meet, b.meet), table(a.join, b.join), bottom, top)


def lattice_to_dict(lat: BoundedLattice) -> dict:
    """The JSON problem-file layout of a lattice; lattice_from_dict inverts it."""
    return {
        "size": lat.size,
        "meet": [list(r) for r in lat.meet],
        "join": [list(r) for r in lat.join],
        "bottom": lat.bottom,
        "top": lat.top,
    }


def family_to_lists(family) -> list:
    """Per-index sorted point lists; family_from_lists inverts it."""
    return [list(mask_to_points(s)) for s in family.sets]


def argparse_parse(argv) -> tuple:
    """The command line as an argparse parser built apart from `cli` reads it:
    the oracle for the plain command lines that `cli.parse_args` reads itself.
    Returns (its namespace as a dict, or "help" for -h/--help (exit 0) or
    "refused" (exit 2); what it printed on stdout; what on stderr), with the
    help formatter at the width `cli` pins, 80 columns."""
    parser = argparse.ArgumentParser(
        prog="fnideals",
        description="Exhaustive finite-model checks for ideal and Lie-ideal lattices "
        "of algebra-valued function algebras.",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
    )
    parser.add_argument("command", choices=sorted(cli._COMMANDS))
    parser.add_argument("problem", nargs="?", help="JSON problem file")
    parser.add_argument("--fixture", help="bundled fixture name (see the fixtures command)")
    parser.add_argument("--minimal", action="store_true", help="drop zero decomposition terms")
    parser.add_argument("--seed", type=int, default=0, help="seed for random-subspace suites")
    parser.add_argument("--bound", type=int, default=None, help="family enumeration bound")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parser.parse_intermixed_args(argv))
        except SystemExit as exc:
            parsed = "help" if exc.code == 0 else "refused"
    return parsed, out.getvalue(), err.getvalue()
