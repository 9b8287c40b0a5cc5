"""Exact subspace arithmetic over the rationals, cross-checked against sympy as
an independent oracle, and the CLI's parser of Gaussian-rational entries."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fnideals.cli import _parse_scalar
from fnideals.linalg import Subspace, annihilator, integer_residue, intersect, rref, vector
from oracles import from_sympy, gaussian_text


def V(*entries):
    return vector(entries)


# ---------------------------------------------------------------------------
# sympy oracle plumbing
# ---------------------------------------------------------------------------

def to_sympy_matrix(rows, dim):
    return sympy.Matrix(
        [[sympy.Rational(v) for v in row] for row in rows]
    ) if rows else sympy.zeros(0, dim)


def oracle_rref(rows, dim) -> tuple:
    reduced, _ = to_sympy_matrix(rows, dim).rref()
    out = []
    for i in range(reduced.rows):
        row = tuple(from_sympy(v) for v in reduced.row(i))
        if any(row):
            out.append(row)
    return tuple(out)


def oracle_intersection(u_rows, v_rows, dim) -> tuple:
    """U cap V by solving a*U = b*V with a sympy nullspace."""
    if not u_rows or not v_rows:
        return ()
    mu = to_sympy_matrix(u_rows, dim).T
    mv = to_sympy_matrix(v_rows, dim).T
    stacked = mu.row_join(-mv)
    combos = []
    for w in stacked.nullspace():
        coeffs = w[: len(u_rows), 0]
        combos.append(tuple(from_sympy(v) for v in (mu * coeffs).T))
    return oracle_rref(combos, dim)


# ---------------------------------------------------------------------------
# the CLI's scalar parser, which feeds the realified rows of `sandwich`
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, value",
    [
        ("0", (0, 0)),
        ("2", (2, 0)),
        ("-3/4", (Fraction(-3, 4), 0)),
        ("1/2+3/4 i", (Fraction(1, 2), Fraction(3, 4))),
        ("1/2-3/4 i", (Fraction(1, 2), Fraction(-3, 4))),
        ("3/4 i", (0, Fraction(3, 4))),
        ("-2 i", (0, -2)),
        ("i", (0, 1)),
        ("-i", (0, -1)),
        ("1/2+i", (Fraction(1, 2), 1)),
    ],
)
def test_scalar_parse(text, value):
    assert _parse_scalar(text) == value


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
def test_scalar_format_parse_roundtrip(re, im):
    parsed = _parse_scalar(gaussian_text(re, im))
    assert parsed == (re, im)
    for x in parsed:
        assert_canonical(x)


def test_scalar_parse_rejects_garbage():
    for bad in ("", "one", "1//2", "2-"):
        with pytest.raises(ValueError):
            _parse_scalar(bad)


def test_vector_gives_canonical_values():
    got = vector([Fraction(4, 2), 3, 2.5, Fraction(1, 3)])
    assert got == (2, 3, Fraction(5, 2), Fraction(1, 3))
    assert [type(x) for x in got] == [int, int, Fraction, Fraction]


def assert_canonical(x):
    """int, or Fraction with denominator > 1."""
    if type(x) is Fraction:
        assert x.denominator > 1
    else:
        assert type(x) is int


# ints and Fractions (some integral): every kind an entry may arrive as
raw_entries = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------

def test_rref_identity_rows_full_space():
    sub = rref([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)], 3)
    assert sub == Subspace.full(3)
    assert sub.dim == 3


def test_rref_zero_rows_zero_space():
    sub = rref([V(0, 0, 0), V(0, 0, 0)], 3)
    assert sub == Subspace.zero(3)
    assert sub.dim == 0


def test_rref_dependent_rows():
    # hand reduction: (2,2,0) is twice (1,1,0); pivots land in columns 0 and 2
    sub = rref([V(1, 1, 0), V(2, 2, 0), V(0, 0, 1)], 3)
    assert sub.dim == 2
    assert sub.pivots == (0, 2)
    assert sub.basis == (V(1, 1, 0), V(0, 0, 1))


def test_rref_dimension_mismatch():
    with pytest.raises(ValueError):
        rref([V(1, 0), V(1, 0, 0)], 2)


def test_subspace_rejects_a_zero_basis_row():
    # a zero row has no pivot, so contains() could not reduce against it
    with pytest.raises(ValueError):
        Subspace(2, (V(1, 0), V(0, 0)))


def test_subspace_rejects_a_basis_row_of_the_wrong_length():
    with pytest.raises(ValueError, match="row length differs from ambient dimension"):
        Subspace(2, (V(1, 0, 0),))


@pytest.mark.parametrize(
    "basis",
    [
        (V(2, 0),),  # leading entry 2: contains((2, 0)) would read False
        (V(0, 1), V(1, 0)),  # pivots decrease
        (V(1, 1), V(0, 1)),  # pivot column 1 is nonzero in two rows
        (("1", 0),),  # rref reads "1" as 1, so the reduced basis differs
    ],
    ids=["leading-entry-not-1", "pivots-not-increasing", "pivot-column-not-cleared", "string-entry"],
)
def test_subspace_rejects_a_basis_not_in_rref(basis):
    with pytest.raises(ValueError, match="reduced row-echelon form"):
        Subspace(2, basis)


@pytest.mark.parametrize(
    "given, stored",
    [
        (((1, 2.5),), ((1, Fraction(5, 2)),)),
        (((1, Fraction(4, 2)),), ((1, 2),)),
        (((1.0, 0, 0), (0, 1, Fraction(-1, 3))), ((1, 0, 0), (0, 1, Fraction(-1, 3)))),
    ],
    ids=["float", "integral-fraction", "float-one"],
)
def test_subspace_stores_canonical_entries(given, stored):
    """The constructor stores the rows `rref` returns: an entry equal to its
    canonical form but of another type is stored canonical, whether the basis
    comes as a tuple of tuples or as a generator of lists."""
    n = len(stored[0])
    for basis in (given, (list(row) for row in given)):
        sub = Subspace(n, basis)
        assert sub == rref(stored, n)
        assert [list(map(type, row)) for row in sub.basis] == [list(map(type, row)) for row in stored]
        for row in sub.basis:
            for x in row:
                assert_canonical(x)


def first_nonzero_columns(basis) -> tuple:
    """The pivots of a basis in RREF, read off its rows."""
    return tuple(next(c for c, v in enumerate(row) if v) for row in basis)


scalars = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def rows_strategy(dim, max_rows=4):
    return st.lists(
        st.lists(scalars, min_size=dim, max_size=dim).map(tuple),
        min_size=0,
        max_size=max_rows,
    )


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), rows_strategy(d))))
@settings(max_examples=120, deadline=None)
def test_rref_matches_sympy(case):
    dim, rows = case
    sub = rref(rows, dim)
    assert sub.basis == oracle_rref(rows, dim)
    assert sub.pivots == first_nonzero_columns(sub.basis)
    assert Subspace(dim, sub.basis) == sub  # the checked constructor takes rref's output


# Rows up to 8 wide with numerators up to 10^6 over denominators up to 12:
# integer elimination then scales rows by a != 1, divides out their content and
# ends on pivots other than 1, which the small entries above rarely reach.
wide_entries = st.one_of(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12)),
)


@seed(904)
@given(
    st.sampled_from(range(1, 9)).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.lists(wide_entries, min_size=d, max_size=d), max_size=10),
        )
    )
)
@settings(max_examples=120, deadline=None)
def test_rref_matches_sympy_on_wide_rows_with_large_entries(case):
    dim, rows = case
    sub = rref(rows, dim)
    basis = sub.basis
    assert basis == oracle_rref(rows, dim)
    assert sub.pivots == first_nonzero_columns(basis)
    assert Subspace(dim, basis) == sub  # the checked constructor takes rref's output
    for row in basis:
        for x in row:
            assert_canonical(x)


def _vandermonde(nodes, width):
    return [[Fraction(x) ** k for k in range(width)] for x in nodes]


@pytest.mark.parametrize(
    "rows",
    [
        [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)],
        # five rows over three distinct nodes: rank 3 of 6
        _vandermonde([2, Fraction(-1, 3), 5, 2, 5], 6),
        [[-3, 1, 2, 0], [6, 0, 5, -7], [0, -2, 1, 1]],
        [[4, 6, 8, 10], [6, 9, 3, 12], [10, 15, 11, 22]],
    ],
    ids=["hilbert-6", "vandermonde-rank-3", "negative-pivot", "content-above-1"],
)
def test_rref_matches_sympy_on_fixed_integer_cases(rows):
    width = len(rows[0])
    basis = rref(rows, width).basis
    assert basis == oracle_rref(rows, width)
    for row in basis:
        for x in row:
            assert_canonical(x)


@given(
    st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), rows_strategy(d))),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_rref_canonical_under_regeneration(case, rng):
    """Different generating sets with equal span reduce to identical bases."""
    dim, rows = case
    first = rref(rows, dim)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    if len(rows) >= 2:
        shuffled.append(vector([a + b for a, b in zip(rows[0], rows[1])]))
    if rows:
        shuffled.append(vector([3 * a for a in rows[0]]))
    assert rref(shuffled, dim) == first


# ---------------------------------------------------------------------------
# sum / intersect / contains
# ---------------------------------------------------------------------------

def test_sum_trivial_cases():
    u = rref([V(1, 2)], 2)
    assert u + Subspace.zero(2) == u
    assert u + u == u


def test_sum_spans_both_generators():
    u = rref([V(1, 0)], 2)
    v = rref([V(0, 1)], 2)
    assert u + v == Subspace.full(2)


def test_sum_ambient_mismatch():
    with pytest.raises(ValueError):
        rref([V(1, 0)], 2) + rref([V(1, 0, 0)], 3)


def test_intersect_trivial_cases():
    u = rref([V(1, 2, 0)], 3)
    assert intersect(u, Subspace.full(3)) == u
    assert intersect(rref([V(1, 0)], 2), rref([V(0, 1)], 2)) == Subspace.zero(2)


def test_intersect_diagonal():
    plane = rref([V(1, 0), V(0, 1)], 2)
    diag = rref([V(1, 1)], 2)
    assert intersect(plane, diag) == diag


def test_contains_examples():
    u = rref([V(1, 0)], 2)
    assert u.contains(V(0, 0))
    assert not u.contains(V(1, 1))
    assert rref([V(1, 1)], 2).contains(V(3, 3))
    with pytest.raises(ValueError):
        u.contains(V(1, 0, 0))


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), rows_strategy(d), rows_strategy(d))
    )
)
@settings(max_examples=80, deadline=None)
def test_modular_law_and_commutativity(case):
    dim, ur, vr = case
    u, v = rref(ur, dim), rref(vr, dim)
    s, m = u + v, intersect(u, v)
    assert s.dim + m.dim == u.dim + v.dim
    assert u + v == v + u
    assert intersect(u, v) == intersect(v, u)
    assert u + intersect(u, v) == u  # absorption
    assert intersect(u, u + v) == u


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.just(d), rows_strategy(d, 3), rows_strategy(d, 3), rows_strategy(d, 3)
        )
    )
)
@settings(max_examples=50, deadline=None)
def test_sum_and_intersect_associative(case):
    dim, ar, br, cr = case
    a, b, c = (rref(r, dim) for r in (ar, br, cr))
    assert (a + b) + c == a + (b + c)
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), rows_strategy(d), rows_strategy(d))
    )
)
@settings(max_examples=80, deadline=None)
def test_intersection_matches_sympy(case):
    dim, ur, vr = case
    u, v = rref(ur, dim), rref(vr, dim)
    assert intersect(u, v).basis == oracle_intersection(list(u.basis), list(v.basis), dim)


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), rows_strategy(d))))
@settings(max_examples=80, deadline=None)
def test_annihilator_pairing_and_double_dual(case):
    dim, rows = case
    u = rref(rows, dim)
    ann = annihilator(u)
    assert ann.dim == dim - u.dim
    for phi in ann.basis:
        for row in u.basis:
            assert not sum(a * b for a, b in zip(phi, row))
    assert annihilator(ann) == u


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), rows_strategy(d))))
@settings(max_examples=60, deadline=None)
def test_contains_closed_under_combinations(case):
    dim, rows = case
    u = rref(rows, dim)
    assert u.contains([0] * dim)
    if u.dim >= 2:
        combo = [a + b for a, b in zip(u.basis[0], u.basis[1])]
        assert u.contains(combo)
    for row in rows:
        assert u.contains(row)


def mixed_rows(dim, max_rows=4):
    return st.lists(
        st.lists(raw_entries, min_size=dim, max_size=dim).map(tuple), min_size=0, max_size=max_rows
    )


@given(
    st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), mixed_rows(d), mixed_rows(d)))
)
@settings(max_examples=120, deadline=None)
def test_exactness_guard_every_basis_entry_is_canonical(case):
    """No float and no integral Fraction reaches any Subspace."""
    dim, ur, vr = case
    u, v = rref(ur, dim), rref(vr, dim)
    for sub in (u, v, u + v, intersect(u, v), annihilator(u), annihilator(v)):
        for row in sub.basis:
            for x in row:
                assert_canonical(x)
    for row in ur:
        assert u.contains(row)
    for row in u.basis:
        assert (u + v).contains(row)


# ---------------------------------------------------------------------------
# fraction-free membership, against a sympy rank oracle
# ---------------------------------------------------------------------------

def oracle_contains(basis, vec) -> bool:
    """vec lies in the span iff appending it leaves the rank unchanged."""
    if not basis:
        return not any(vec)
    return to_sympy_matrix(list(basis) + [vec], len(vec)).rank() == len(basis)


def _realified(rows):
    """The rational span of (Re v, Im v) and (-Im v, Re v), as `sandwich` builds it."""
    out = []
    for re, im in rows:
        out.append(re + im)
        out.append([-y for y in im] + re)
    return out


def fraction_membership_cases(seed, count=6):
    """(subspace, vectors) pairs: seeded subspaces whose RREF basis holds
    Fractions, every other one realified (width 2d), each with members, near
    misses and random vectors, all with Fraction entries; one copy of each
    member holds only Fractions, integral ones included."""
    rng = random.Random(seed)

    def small():
        return rng.randint(-3, 3)

    def frac():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    cases = []
    while len(cases) < count:
        d = rng.randint(2, 6)
        k = rng.randint(1, d - 1)
        if len(cases) % 2:
            width = 2 * d
            rows = _realified([([small() for _ in range(d)], [small() for _ in range(d)])
                               for _ in range(k)])
        else:
            width = d
            rows = [[small() for _ in range(d)] for _ in range(k)]
        sub = rref(rows, width)
        if not any(type(x) is Fraction for row in sub.basis for x in row):
            continue
        vecs = []
        for _ in range(2):
            coeffs = [frac() for _ in sub.basis]
            member = vector(sum(c * row[i] for c, row in zip(coeffs, sub.basis)) for i in range(width))
            near = list(member)
            near[rng.randrange(width)] += Fraction(1, 3)
            vecs += [member, tuple(map(Fraction, member)), vector(near),
                     vector(frac() for _ in range(width))]
        cases.append((sub, vecs))
    return cases


def membership_disagreements(seeds) -> tuple:
    """(disagreements with the rank oracle, oracle verdicts seen)."""
    bad, seen = [], set()
    for seed in seeds:
        for sub, vecs in fraction_membership_cases(seed):
            contains = sub.membership()
            for v in vecs:
                expected = oracle_contains(sub.basis, v)
                seen.add(expected)
                if contains(v) != expected or sub.contains(v) != expected:
                    bad.append((sub, v))
    return bad, seen


def test_membership_matches_rank_oracle_on_fraction_bases():
    bad, seen = membership_disagreements(range(4))
    assert not bad
    assert seen == {True, False}


def test_integer_residue_vanishes_at_the_pivots_and_everywhere_on_members():
    """A row's residue, Fractions left unscaled as the sandwich interval's
    split leaves them, is zero at each pivot, and zero everywhere exactly
    when the row lies in the subspace."""
    for seed in range(4):
        for sub, vecs in fraction_membership_cases(seed):
            residue = integer_residue(*sub.integer_rows())
            for v in vecs:
                r = residue(v)
                assert not any(r[p] for p in sub.pivots)
                assert (not any(r)) == oracle_contains(sub.basis, v)


@pytest.fixture(params=["unscaled-rows", "dropped-row"])
def broken_integer_rows(request, monkeypatch):
    """Seeded fault in the integer form membership tests against: the basis rows
    keep their Fractions while D stays, or the last basis row is left out."""
    integer_rows = Subspace.integer_rows

    def unscaled(self):
        den, rows = integer_rows(self)
        return den, [(p, cols, [row[c] for c in cols])
                     for row, (p, cols, _) in zip(self.basis, rows)]

    def dropped(self):
        den, rows = integer_rows(self)
        return den, rows[:-1]

    fault = unscaled if request.param == "unscaled-rows" else dropped
    monkeypatch.setattr(Subspace, "integer_rows", fault)


def test_membership_oracle_check_catches_a_broken_integer_form(broken_integer_rows):
    bad, _ = membership_disagreements(range(4))
    assert bad


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "expr, shown",
    [
        ("linalg.vector(['1/2', 3])", "(Fraction(1, 2), 3) fractions.Fraction builtins.int"),
        ("linalg.rref([[2, 1]], 2).basis[0]", "(1, Fraction(1, 2)) builtins.int fractions.Fraction"),
        ("[linalg.rref([[1, 1]], 2).contains(row) for row in ([F(1, 2), F(1, 2)], [F(1, 2), 1], [F(2), 2])]",
         "[True, False, True] builtins.bool builtins.bool builtins.bool"),
    ],
    ids=["vector", "rref", "contains"],
)
def test_fractions_loads_on_first_use_with_the_same_answers(expr, shown):
    """In a fresh process `linalg` has not loaded `fractions`, nor has a
    `Subspace` of an integer basis in RREF: the checked constructor reduces it
    with every pivot 1, so it builds no Fraction.  The first non-integral
    value loads it, and is a `fractions.Fraction`.  `contains` reads rows that
    hold a caller's `fractions.Fraction` before the load.  Each answer is the
    same again after the load."""
    code = (
        "import sys\n"
        "from fnideals import linalg\n"
        "linalg.Subspace(2, ((1, 0), (0, 1))), linalg.Subspace.zero(3), linalg.Subspace.full(3)\n"
        "assert 'fractions' not in sys.modules\n"
        "from fractions import Fraction as F\n"
        "assert linalg.Fraction is not F\n"
        f"first = {expr}\n"
        "assert linalg.Fraction is F\n"
        f"assert {expr} == first\n"
        "print(first, *(f'{type(x).__module__}.{type(x).__name__}' for x in first))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, shown + "\n", "")

