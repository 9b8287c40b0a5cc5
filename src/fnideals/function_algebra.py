"""The finite model of algebra-valued function spaces.

For a discrete finite point set X and a block algebra A, the function
algebra B = A^X carries one copy of A per point (coordinates are laid out
point-major).  Its two-sided ideals are pointwise families x -> I_stalk(x);
the correspondence theta maps a compatible closed-set family to such an
ideal and recover_S inverts it.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .fdalgebra import (
    AlgebraSpec,
    block_ideal_subspace,
    centre,
    enumerate_ideals,
    is_invariant,
    unit_tables,
)
from .lattice import (
    BoundedLattice,
    ClosedFamily,
    LimitExceeded,
    _is_index,
    check_points,
    is_compatible,
)
from .linalg import Subspace, echelon_subspace
from .value import Value

# The CLI limits cap |L|^|X| at 8^4 stalk assignments.
MAX_IDEALS = 4096


class PointwiseIdeal(Value):
    """Ideal of A^X as a map point -> index into the ideal lattice of A;
    stalks[x] is the index at point x, so len(stalks) = |X|."""

    __slots__ = ("lattice", "stalks")

    def __init__(self, lattice: BoundedLattice, stalks):
        stalks = tuple(stalks)
        for s in stalks:
            if not _is_index(s, lattice.size):
                raise ValueError(f"stalk index {s!r} out of range")
        self._fill(lattice, stalks)


def theta(family: ClosedFamily) -> PointwiseIdeal:
    """Map a compatible family to the ideal { f : f(S_i) inside I_i for all i }.

    Pointwise this is stalk(x) = meet of { i : x in S_i }; the meet set is
    nonempty because the top index always carries the full point set.
    """
    if not is_compatible(family):
        raise ValueError("family is not compatible with the lattice")
    return _theta(family)


def _theta(family: ClosedFamily) -> PointwiseIdeal:
    """theta of a family the caller has already found compatible."""
    lat = family.lattice
    stalks = []
    for x in range(family.points):
        bit = 1 << x
        stalks.append(lat.meet_all(i for i, s in enumerate(family.sets) if s & bit))
    return PointwiseIdeal(lat, stalks)


def recover_S(ideal: PointwiseIdeal) -> ClosedFamily:
    """Inverse of theta: S_i = { x : stalk(x) <= i }."""
    lat = ideal.lattice
    sets = []
    for i in range(lat.size):
        mask = 0
        for x, s in enumerate(ideal.stalks):
            if lat.leq(s, i):
                mask |= 1 << x
        sets.append(mask)
    return ClosedFamily(lat, len(ideal.stalks), sets)


class FunctionAlgebra:
    """B = A^X for a block algebra A and a finite discrete point set X.

    B keeps no tables of its own: products and brackets read A's at each
    point, and ideal subspaces are placed from A's parts (see pointwise_subspace).
    """

    def __init__(self, spec: AlgebraSpec, points: int):
        self.spec = spec
        self.points = check_points(points)
        self.dim = points * spec.total_dim

    def __repr__(self):
        return f"FunctionAlgebra({self.spec.block_dims}, points={self.points})"

    @property
    def lattice(self) -> BoundedLattice:
        return enumerate_ideals(self.spec)

    @property
    def commutator_table(self) -> tuple:
        """A's `unit_tables` bracket table: B brackets each point's copy of A with it."""
        # kept as a plain property: bench/tracing.py wraps it as one
        return unit_tables(self.spec)[2]

    @cached_property
    def centre_subspace(self) -> Subspace:
        """Central functions: pointwise multiples of the block identities."""
        return pointwise_subspace(self, [centre(self.spec)] * self.points)

    def ideal_subspace(self, ideal: PointwiseIdeal) -> Subspace:
        """Materialize a pointwise ideal as a subspace of B's coordinate space."""
        # A stalk index is a block mask.
        return pointwise_subspace(self, [block_ideal_subspace(self.spec, s) for s in ideal.stalks])


@lru_cache(maxsize=None)
def function_algebra(spec: AlgebraSpec, points: int) -> FunctionAlgebra:
    """Shared FunctionAlgebra instances so caches are reused."""
    return FunctionAlgebra(spec, points)


class FunctionElement(Value):
    """Member of A^X: one Element per point, so len(values) = |X|."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: AlgebraSpec, values):
        values = tuple(values)
        for v in values:
            if v.spec != spec:
                raise ValueError("value belongs to a different algebra")
        self._fill(spec, values)

    def _check(self, other: "FunctionElement"):
        if self.spec != other.spec or len(self.values) != len(other.values):
            raise ValueError("elements belong to different function algebras")

    def __add__(self, other):
        self._check(other)
        return FunctionElement(self.spec, (a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check(other)
        return FunctionElement(self.spec, (a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other):
        self._check(other)
        return FunctionElement(self.spec, (a * b for a, b in zip(self.values, other.values)))

    def to_vector(self) -> tuple:
        out = []
        for v in self.values:
            out.extend(v.to_vector())
        return tuple(out)


def enumerate_all_ideals(alg: FunctionAlgebra, verify: bool = True) -> list:
    """All pointwise ideals of A^X in lexicographic stalk order.

    With verify=True each ideal's subspace is checked to be two-sided
    invariant under multiplication by every basis element of B.
    """
    lat = alg.lattice
    count = lat.size ** alg.points
    if count > MAX_IDEALS:
        raise LimitExceeded(f"{count} stalk assignments exceed the bound {MAX_IDEALS}")
    out = []
    for stalks in itertools.product(range(lat.size), repeat=alg.points):
        ideal = PointwiseIdeal(lat, stalks)
        if verify and not is_invariant(alg.ideal_subspace(ideal), alg.spec):
            raise AssertionError(f"stalks {ideal.stalks} give a non-invariant subspace")
        out.append(ideal)
    return out


def pointwise_subspace(alg: FunctionAlgebra, parts) -> Subspace:
    """The subspace of B whose value at point x lies in parts[x], a subspace of A.

    Each part's RREF basis is placed at its point's columns, in point order:
    rows at different points share no column, so the placed rows are already
    B's RREF basis, and no elimination is needed.
    """
    d = alg.spec.total_dim
    if len(parts) != alg.points or any(p.ambient_dim != d for p in parts):
        raise ValueError("one subspace of A per point is required")
    rows, pivots = [], []
    for x, part in enumerate(parts):
        left, right = (0,) * (x * d), (0,) * (alg.dim - (x + 1) * d)
        rows += [left + row + right for row in part.basis]
        pivots += [x * d + p for p in part.pivots]
    return echelon_subspace(alg.dim, tuple(rows), tuple(pivots))


def product_subspace(alg: FunctionAlgebra, y_mask: int, c: Subspace) -> Subspace:
    """The functions vanishing on Y with values in C elsewhere.

    This is the pointwise image of the product J(Y) x C under the canonical
    identification of tensors f (x) a with the function x -> f(x) a.
    """
    if c.ambient_dim != alg.spec.total_dim:
        raise ValueError("subspace must live in the coordinate space of A")
    zero = Subspace.zero(alg.spec.total_dim)
    return pointwise_subspace(alg, [zero if y_mask >> x & 1 else c for x in range(alg.points)])


def ideal_from_Y_and_I(alg: FunctionAlgebra, y_mask: int, t: int) -> tuple:
    """(ideal, matches): the ideal { f : f(Y) inside I_t } and its two-term check.

    Stalks are I_t on Y and the whole algebra off Y; matches records whether
    the ideal's subspace equals product_subspace(empty, I_t) +
    product_subspace(Y, A), an exact sum of subspaces of B.
    """
    lat = alg.lattice
    if not 0 <= t < lat.size:
        raise ValueError(f"ideal index {t} out of range")
    stalks = tuple(t if y_mask >> x & 1 else lat.top for x in range(alg.points))
    ideal = PointwiseIdeal(lat, stalks)
    full = Subspace.full(alg.spec.total_dim)
    summed = product_subspace(alg, 0, block_ideal_subspace(alg.spec, t)) + product_subspace(
        alg, y_mask, full
    )
    return ideal, summed == alg.ideal_subspace(ideal)
