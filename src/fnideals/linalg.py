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

There is one elimination layout: `rref` reduces rows of the ambient width.
Sums concatenate bases and reduce them; the annihilator is read off an RREF
basis; an intersection is the annihilator of the sum of annihilators.  All
values are immutable; every operation returns a fresh value, so the module
is safe to use from multiple threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .value import Value, setfield


def _rational(x):
    """The canonical form of a number: an int when it is integral, else a
    Fraction.  Anything Fraction() accepts is read exactly."""
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else f


Vector = tuple  # tuple of canonical values: int or Fraction


def vector(entries: Iterable) -> Vector:
    """Coerce numbers Fraction() accepts into a tuple of canonical values."""
    return tuple(map(_rational, entries))


def _echelon(work: list, width: int) -> list:
    """Reduced row echelon form of integer rows over `width` columns.

    Fraction-free (integer-preserving, after Bareiss): the pivot row clears an
    entry f of another row by row <- a*row - b*pivot_row, with a = pivot/g and
    b = f/g for g = gcd(pivot, f).  A row scaled by a != 1 is divided by the
    gcd of its entries, which keeps the integers small; when a = 1 it is
    updated in place, with no copy and no gcd.  Each finished row is divided
    by its pivot at the end, leaving canonical entries.  `work` is consumed;
    the nonzero rows are returned as tuples.
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
    return [
        tuple(row) if (pv := row[col]) == 1
        else tuple([x // pv if x % pv == 0 else Fraction(x, pv) for x in row])
        for row, col in zip(work, pivots)
    ]


class Subspace(Value):
    """Linear subspace given by its reduced row-echelon basis.

    Invariants, checked because membership relies on them: basis rows are
    nonzero, each leading entry is 1, pivots strictly increase and each pivot
    column is zero in every other row.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: tuple):
        # rref passes a tuple of tuples; rebuilding one only churns tuples (see rref)
        if type(basis) is not tuple or not all(type(r) is tuple for r in basis):
            basis = tuple(tuple(r) for r in basis)
        for row in basis:
            if len(row) != ambient_dim or not any(row):
                raise ValueError("basis rows must be nonzero and of the ambient length")
        pivots = tuple(next(c for c, v in enumerate(row) if v) for row in basis)
        for k, (row, p) in enumerate(zip(basis, pivots)):
            if row[p] != 1 or k and p <= pivots[k - 1]:
                raise ValueError("basis must be in reduced row-echelon form")
            for above in basis[:k]:  # rows below are zero at p: their pivots lie right of it
                if above[p]:
                    raise ValueError("basis must be in reduced row-echelon form")
        setfield(self, "ambient_dim", ambient_dim)
        setfield(self, "basis", basis)
        setfield(self, "pivots", pivots)

    def _key(self) -> tuple:
        return self.ambient_dim, self.basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence) -> bool:
        v = vector(vec)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        return self._reduces_to_zero(v)

    def _reduces_to_zero(self, vec: Sequence) -> bool:
        """Membership of a row of ints and Fractions of the ambient length.

        The package's own rows (basis rows, brackets, translates) already are,
        so they skip the coercion and length check of `contains`.
        """
        v = list(vec)
        n = self.ambient_dim
        for row, p in zip(self.basis, self.pivots):
            f = v[p]
            if f:
                for c in range(p, n):
                    if row[c]:
                        v[c] = v[c] - f * row[c]
        return not any(v)

    def __contains__(self, vec) -> bool:
        return self.contains(vec)

    def __le__(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(other._reduces_to_zero(row) for row in self.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return rref(list(self.basis) + list(other.basis), self.ambient_dim)

    def __and__(self, other: "Subspace") -> "Subspace":
        return intersect(self, other)

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, ())

    @staticmethod
    def full(n: int) -> "Subspace":
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            rows.append(tuple(row))
        return Subspace(n, tuple(rows))


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
            row = [x.numerator * (den // x.denominator) if type(x) is Fraction else x * den
                   for x in row]
        if any(row):
            work.append(row)
    return Subspace(ambient_dim, tuple(_echelon(work, ambient_dim)))


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
