"""Exact linear algebra over the rationals.

Every coordinate is stored in its canonical form: an `int`, or a `Fraction`
whose denominator is not 1, so values run on Python's own int/Fraction
arithmetic.  The model B = A^X has rational structure constants, so no
other number field is needed: the CLI decides a subspace with non-real
entries through its realification (see `cli.cmd_sandwich`).  Elimination
is fraction-free: `rref` scales each row to integers, eliminates with integer
arithmetic only and divides each pivot row by its pivot once, at the end, as
an exact Fraction, so no float arises.  Subspaces are stored as reduced
row-echelon bases, which makes RREF a true canonical form: two subspaces are
equal as sets iff their Subspace values compare equal field-for-field.
The checked constructor `Subspace(n, basis)` refuses a basis that `rref`
does not return unchanged, and stores `rref`'s canonical entries.
Membership is fraction-free too: `integer_residue` scales the basis rows by
their common denominator and keeps only their nonzero terms, and
`integer_membership` scales each tested row by its own and reads its residue.

There is one elimination layout: `rref` reduces rows of the ambient width.
Sums concatenate bases and reduce them; the annihilator is read off an RREF
basis; an intersection is the annihilator of the sum of annihilators.  All
values are immutable; every operation returns a fresh value, so the module
is safe to use from multiple threads.

`fractions` is loaded when the first non-integral value is built, not at
import (see `Fraction` below).  With `decimal` and `numbers`, which it
imports, it took about 4.7 ms of each 100 ms CLI process, and the lattice
commands, and every query whose eliminations divide evenly, build none.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import attrgetter

from .value import Value


class Fraction:
    """Stands in for `fractions.Fraction` until the first one is built here:
    its `__new__` imports the real class, rebinds this module's `Fraction` to
    it and builds the value there.  No value has this class as its type, and
    `vector` and `rref` read a caller's `fractions.Fraction` through
    `Fraction(x)`, which loads the class before a `type(x) is Fraction`
    test meets one."""

    __slots__ = ()

    def __new__(cls, *args):
        global Fraction
        from fractions import Fraction
        return Fraction(*args)


def _rational(x):
    """The canonical form of a number: an int when it is integral, else a
    Fraction.  Anything Fraction() accepts is read exactly."""
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else f


Vector = tuple  # tuple of canonical values: int or Fraction

_denominator = attrgetter("denominator")  # 1 for an int


def _scaled(entries, den: int) -> list:
    """den * x for each int or Fraction x, as ints; den must clear every denominator."""
    return [x.numerator * (den // x.denominator) for x in entries]


def vector(entries: Iterable) -> Vector:
    """Coerce numbers Fraction() accepts into a tuple of canonical values."""
    return tuple(map(_rational, entries))


def _echelon(work: list, width: int) -> tuple:
    """Reduced row echelon form of integer rows over `width` columns.

    Fraction-free (integer-preserving, after Bareiss): the pivot row clears an
    entry f of another row by row <- a*row - b*pivot_row, with a = pivot/g and
    b = f/g for g = gcd(pivot, f).  A row scaled by a != 1 is divided by the
    gcd of its entries, which keeps the integers small; when a = 1 it is
    updated in place, with no copy and no gcd.  Each finished row is divided
    by its pivot at the end, leaving canonical entries.  `work` is consumed;
    returns the nonzero rows, as tuples, and their pivot columns.
    """
    nrows = len(work)
    prow = 0
    pivots = []
    for col in range(width):
        pr = -1
        for i in range(prow, nrows):
            if work[i][col]:
                pr = i
                break
        if pr < 0:
            continue
        work[prow], work[pr] = work[pr], work[prow]
        pv = work[prow][col]
        terms = [(c, p) for c in range(col, width) if (p := work[prow][c])]
        for i in range(nrows):
            row = work[i]
            f = row[col]
            if not f or i == prow:
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                row = [a * x for x in row]
            for c, p in terms:
                row[c] -= b * p
            if a != 1:
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    # tuple() of a list, not of a generator, whose tuple is built by growing and
    # shrinking: that form measured a third more traced peak memory in verify-all
    return tuple([
        tuple(row) if (pv := row[col]) == 1
        else tuple([x // pv if x % pv == 0 else Fraction(x, pv) for x in row])
        for row, col in zip(work, pivots)
    ]), tuple(pivots)


class Subspace(Value):
    """Linear subspace given by its reduced row-echelon basis.

    The constructor checks a basis by reducing it, as membership needs: a
    basis is in RREF exactly when `rref` returns it.  The reduced rows are
    stored, so a float or an integral Fraction is stored canonical.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Iterable[Sequence]):
        basis = tuple(map(tuple, basis))
        reduced = rref(basis, ambient_dim)
        if reduced.basis != basis:
            raise ValueError("basis must be in reduced row-echelon form")
        self._fill(ambient_dim, reduced.basis, reduced.pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence) -> bool:
        v = vector(vec)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        return self.membership()(v)

    def integer_rows(self) -> tuple:
        """(D, rows): D is the lcm of the basis denominators, and each basis row
        scaled by D is (pivot, columns, values), its nonzero integer entries."""
        # parallel column and value lists, not (column, value) pairs, and
        # reduce(lcm, ...), not lcm(*iterator): either kind of throwaway tuple
        # raised the peak RSS of verify-all on [1,2]x3 and [3]x2 by 0.2-0.4 MB
        columns = range(self.ambient_dim)
        rows = [(p, list(compress(columns, row)), list(compress(row, row)))
                for row, p in zip(self.basis, self.pivots)]
        den = 1
        if Fraction in map(type, chain.from_iterable(self.basis)):
            den = reduce(lcm, map(_denominator, chain.from_iterable(v for _, _, v in rows)))
            for _, _, values in rows:
                values[:] = _scaled(values, den)
        return den, rows

    def membership(self):
        """The test v -> (v in self), for rows of ints and Fractions of the
        ambient length; build it once and apply it to a batch of rows."""
        return integer_membership(*self.integer_rows())

    def __le__(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(map(other.membership(), self.basis))

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return rref(list(self.basis) + list(other.basis), self.ambient_dim)

    def __and__(self, other: "Subspace") -> "Subspace":
        return intersect(self, other)

    @staticmethod
    def zero(n: int) -> "Subspace":
        return echelon_subspace(n, (), ())

    @staticmethod
    def full(n: int) -> "Subspace":
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            rows.append(tuple(row))
        return echelon_subspace(n, tuple(rows), tuple(range(n)))


def integer_residue(den: int, rows: list):
    """v -> D*v - sum_k v[p_k]*R_k, R_k the basis rows scaled to integers by D
    and p_k their pivots, as `Subspace.integer_rows` gives (D, rows): zero at
    each p_k, and zero everywhere iff v lies in the span."""

    def residue(vec) -> list:
        acc = [den * x for x in vec] if den != 1 else list(vec)
        for p, cols, values in rows:
            if f := vec[p]:
                for c, r in zip(cols, values):
                    acc[c] -= f * r
        return acc

    return residue


def integer_membership(den: int, rows: list):
    """The membership test of the subspace whose `Subspace.integer_rows` are
    (den, rows), for a caller that already holds them: fraction-free, as v
    is scaled to integers and its `integer_residue` compared with zero."""
    residue = integer_residue(den, rows)

    def test(vec) -> bool:
        if Fraction in map(type, vec):
            vec = _scaled(vec, reduce(lcm, map(_denominator, vec)))
        return not any(residue(vec))

    return test


def echelon_subspace(ambient_dim: int, basis: tuple, pivots: tuple) -> Subspace:
    """The Subspace of a basis its caller built in RREF, as a tuple of tuples,
    with its pivots: the `rref` check of Subspace.__init__ is skipped."""
    sub = object.__new__(Subspace)
    sub._fill(ambient_dim, basis, pivots)
    return sub


def rref(rows: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by `rows`."""
    work = []
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError("row length differs from ambient dimension")
        # coerced as vector() does, and scaled to integers by the lcm of the
        # denominators met on the way, without a tuple to throw away: freed tuples
        # of one length pile up on CPython's free list (2,000 rows) between collections
        row = []
        den = 1
        for x in r:
            if type(x) is not int:
                x = _rational(x)
                if type(x) is Fraction:
                    den = lcm(den, x.denominator)
            row.append(x)
        if den != 1:
            row = _scaled(row, den)
        if any(row):
            work.append(row)
    return echelon_subspace(ambient_dim, *_echelon(work, ambient_dim))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """U intersect V as ann(ann(U) + ann(V)).

    ann(U) + ann(V) is exactly the set of functionals vanishing on U
    intersect V, and the double annihilator is exact; mismatched ambient
    dimensions raise in the sum.
    """
    return annihilator(annihilator(u) + annihilator(v))


def annihilator(u: Subspace) -> Subspace:
    """Subspace of functionals (as coordinate vectors) vanishing on u.

    Equals the kernel of u's basis matrix under the standard bilinear
    pairing; the double annihilator recovers u exactly.
    """
    n = u.ambient_dim
    piv = set(u.pivots)
    free = [c for c in range(n) if c not in piv]
    rows = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for row, p in zip(u.basis, u.pivots):
            if row[f]:
                vec[p] = -row[f]
        rows.append(vec)
    return rref(rows, n)
