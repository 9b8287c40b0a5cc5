"""Exact linear algebra over the rationals.

Every coordinate is stored in its canonical form: an `int`, or a `Fraction`
whose denominator is not 1, so values run on Python's own int/Fraction
arithmetic.  The model B = A^X has rational structure constants, so no
other number field is needed: the CLI decides a subspace with non-real
entries through its realification (see `cli.cmd_sandwich`).  Elimination
scales by exact inverses, never by int / int, so no float arises.  Subspaces
are stored as reduced row-echelon bases, which makes RREF a true canonical
form: two subspaces are equal as sets iff their Subspace values compare
equal field-for-field.

There is one elimination layout: `rref` reduces rows of the ambient width.
Sums concatenate bases and reduce them; the annihilator is read off an RREF
basis; an intersection is the annihilator of the sum of annihilators.  All
values are immutable; every operation returns a fresh value, so the module
is safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence


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
    """In-place reduced row echelon over `width` columns; returns nonzero rows.

    Entries stay canonical: the pivot row is scaled by the exact inverse
    Fraction(1, pv) (so no int division makes a float), and any Fraction
    result with denominator 1 is dropped back to an int.
    """
    nrows = len(work)
    prow = 0
    for col in range(width):
        pr = -1
        for i in range(prow, nrows):
            if work[i][col]:
                pr = i
                break
        if pr < 0:
            continue
        work[prow], work[pr] = work[pr], work[prow]
        pivot_row = work[prow]
        pv = pivot_row[col]
        if pv != 1:
            inv = Fraction(1, pv) if type(pv) is int else 1 / pv
            for c in range(col, width):
                p = pivot_row[c]
                if p:
                    p = p * inv
                    if type(p) is Fraction and p.denominator == 1:
                        p = p.numerator
                    pivot_row[c] = p
        terms = [(c, p) for c in range(col, width) if (p := pivot_row[c])]
        for i in range(nrows):
            if i == prow:
                continue
            row = work[i]
            f = row[col]
            if not f:
                continue
            for c, p in terms:
                x = row[c] - f * p
                if type(x) is Fraction and x.denominator == 1:
                    x = x.numerator
                row[c] = x
        prow += 1
        if prow == nrows:
            break
    return work[:prow]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace given by its reduced row-echelon basis.

    Invariants: basis rows are nonzero, each leading entry is 1, pivot
    columns are strictly increasing and zero in every other row.
    """

    ambient_dim: int
    basis: tuple
    pivots: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # rref passes a tuple of tuples; rebuilding one only churns tuples (see rref)
        if type(self.basis) is not tuple or not all(type(r) is tuple for r in self.basis):
            object.__setattr__(self, "basis", tuple(tuple(r) for r in self.basis))
        for row in self.basis:
            if len(row) != self.ambient_dim or not any(row):
                raise ValueError("basis rows must be nonzero and of the ambient length")
        pivots = tuple(next(c for c, v in enumerate(row) if v) for row in self.basis)
        object.__setattr__(self, "pivots", pivots)

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
        # coerced as vector() does, without a tuple to throw away: freed tuples of
        # one length pile up on CPython's free list (2,000 rows) between collections
        row = list(map(_rational, r))
        if any(row):
            work.append(row)
    reduced = _echelon(work, ambient_dim)
    return Subspace(ambient_dim, tuple(tuple(r) for r in reduced))


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
