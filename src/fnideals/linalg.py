"""Exact linear algebra over the Gaussian rationals.

Scalars are pairs of Fractions (a + b*i), so every computation is exact.
Subspaces are stored as reduced row-echelon bases, which makes RREF a true
canonical form: two subspaces are equal as sets iff their Subspace values
compare equal field-for-field.  All values are immutable; every operation
returns a fresh value, so the module is safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence


class Scalar:
    """Gaussian rational a + b*i.  Immutable value type with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return Scalar(a * c)
        return Scalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        c, d = other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            return Scalar(self.re / c, self.im / c)
        norm = c * c + d * d
        a, b = self.re, self.im
        return Scalar((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q", "r/s i" or "p/q+r/s i" (signs and spaces allowed)."""
        t = text.strip()
        if not t:
            raise ValueError("empty scalar")
        if t.endswith("i"):
            body = t[:-1].strip()
            if body in ("", "+"):
                return Scalar(0, 1)
            if body == "-":
                return Scalar(0, -1)
            for k in range(len(body) - 1, 0, -1):
                if body[k] in "+-" and body[k - 1] not in "+-/":
                    re_part = body[:k].strip()
                    im_part = body[k:].strip()
                    if im_part in ("+", "-"):
                        im_part += "1"
                    return Scalar(Fraction(re_part), Fraction(im_part))
            return Scalar(0, Fraction(body))
        return Scalar(Fraction(t))


ZERO = Scalar(0)
ONE = Scalar(1)

Vector = tuple  # tuple of Scalar


def vector(entries: Iterable) -> Vector:
    """Coerce ints/Fractions/Scalars into a Scalar tuple."""
    out = []
    for e in entries:
        out.append(e if isinstance(e, Scalar) else Scalar(e))
    return tuple(out)


def vec_dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def _echelon(work: list, width: int) -> list:
    """In-place reduced row echelon over `width` columns; returns nonzero rows."""
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
        if pv != ONE:
            for c in range(col, width):
                if pivot_row[c]:
                    pivot_row[c] = pivot_row[c] / pv
        for i in range(nrows):
            if i == prow:
                continue
            row = work[i]
            f = row[col]
            if not f:
                continue
            for c in range(col, width):
                p = pivot_row[c]
                if p:
                    row[c] = row[c] - f * p
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
        v = list(vector(vec))
        if len(v) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        for row, p in zip(self.basis, self.pivots):
            f = v[p]
            if f:
                for c in range(p, self.ambient_dim):
                    if row[c]:
                        v[c] = v[c] - f * row[c]
        return not any(v)

    def __contains__(self, vec) -> bool:
        return self.contains(vec)

    def __le__(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(other.contains(row) for row in self.basis)

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
            row = [ZERO] * n
            row[i] = ONE
            rows.append(tuple(row))
        return Subspace(n, tuple(rows))


def rref(rows: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by `rows`."""
    work = []
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError("row length differs from ambient dimension")
        row = list(vector(r))
        if any(row):
            work.append(row)
    reduced = _echelon(work, ambient_dim)
    return Subspace(ambient_dim, tuple(tuple(r) for r in reduced))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block trick on [[U U], [V 0]]."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = u.ambient_dim
    work = []
    for row in u.basis:
        work.append(list(row) + list(row))
    zeros = [ZERO] * n
    for row in v.basis:
        work.append(list(row) + zeros)
    reduced = _echelon(work, 2 * n)
    right = [row[n:] for row in reduced if not any(row[:n])]
    return rref(right, n)


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
        vec = [ZERO] * n
        vec[f] = ONE
        for row, p in zip(u.basis, u.pivots):
            if row[f]:
                vec[p] = -row[f]
        rows.append(vec)
    return rref(rows, n)


def solve_membership_constraints(rows: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Solution space { v : r . v = 0 for every constraint row r }."""
    return annihilator(rref(rows, ambient_dim))
