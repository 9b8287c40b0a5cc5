"""The finite model of algebra-valued function spaces.

For a discrete finite point set X and a block algebra A, the function
algebra B = A^X carries one copy of A per point (coordinates are laid out
point-major).  Its two-sided ideals are pointwise families x -> I_stalk(x);
the correspondence theta maps a compatible closed-set family to such an
ideal and recover_S inverts it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .fdalgebra import (
    AlgebraSpec,
    block_ideal_subspace,
    centre,
    enumerate_ideals,
    is_invariant,
    unit_commutators,
    unit_products,
)
from .lattice import (
    BoundedLattice,
    ClosedFamily,
    LimitExceeded,
    SpaceModel,
    _is_index,
    is_compatible,
)
from .linalg import Subspace, rref
from .value import Frozen, Value, setfield

# The CLI limits cap |L|^|X| at 8^4 stalk assignments.
MAX_IDEALS = 4096


class PointwiseIdeal(Value):
    """Ideal of A^X as a map point -> index into the ideal lattice of A."""

    __slots__ = ("lattice", "space", "stalks")

    def __init__(self, lattice: BoundedLattice, space: SpaceModel, stalks):
        stalks = tuple(stalks)
        if len(stalks) != space.point_count:
            raise ValueError("one stalk per point is required")
        for s in stalks:
            if not _is_index(s, lattice.size):
                raise ValueError(f"stalk index {s!r} out of range")
        setfield(self, "lattice", lattice)
        setfield(self, "space", space)
        setfield(self, "stalks", stalks)

    def _key(self) -> tuple:
        return self.lattice, self.space, self.stalks


def theta(family: ClosedFamily) -> PointwiseIdeal:
    """Map a compatible family to the ideal { f : f(S_i) inside I_i for all i }.

    Pointwise this is stalk(x) = meet of { i : x in S_i }; the meet set is
    nonempty because the top index always carries the full point set.
    """
    if not is_compatible(family):
        raise ValueError("family is not compatible with the lattice")
    lat = family.lattice
    stalks = []
    for x in family.space.points():
        bit = 1 << x
        stalks.append(lat.meet_all(i for i, s in enumerate(family.sets) if s & bit))
    return PointwiseIdeal(lat, family.space, tuple(stalks))


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
    return ClosedFamily(lat, ideal.space, tuple(sets))


class FunctionAlgebra:
    """B = A^X for a block algebra A and a finite discrete point set X.

    Heavy derived data (the ideal lattice of A, commutator tables, ideal
    subspaces) is computed once and cached; instances are immutable.
    """

    def __init__(self, spec: AlgebraSpec, space: SpaceModel):
        self.spec = spec
        self.space = space
        self.dim = space.point_count * spec.total_dim
        self._ideal_subspaces: dict = {}
        # span[J, B] per stalk tuple, filled by lie.commutator_ideal_span
        self.commutator_spans: dict = {}

    def __repr__(self):
        return f"FunctionAlgebra({self.spec.block_dims}, points={self.space.point_count})"

    @property
    def lattice(self) -> BoundedLattice:
        return enumerate_ideals(self.spec)

    def coord_info(self, index: int) -> tuple:
        """(point, block, row, col) of a flat coordinate of B."""
        d = self.spec.total_dim
        x, rem = divmod(index, d)
        b, p, q = self.spec.coord_info(rem)
        return x, b, p, q

    @property
    def unit_products(self) -> tuple:
        """out[i] = ((j, k), ...) for each nonzero e_i * e_j = e_k in B.

        The product of units at different points is zero, so this is the table of
        A copied to every point.
        """
        if not hasattr(self, "_products"):
            d = self.spec.total_dim
            self._products = tuple(
                tuple((x * d + j, x * d + k) for j, k in row)
                for x in self.space.points()
                for row in unit_products(self.spec)
            )
        return self._products

    @property
    def commutator_table(self) -> tuple:
        """comm[i][b] = sparse coordinates of [e_i, e_b] for basis pairs."""
        if not hasattr(self, "_comm_table"):
            self._comm_table = unit_commutators(self.unit_products)
        return self._comm_table

    @property
    def centre_subspace(self) -> Subspace:
        """Central functions: pointwise multiples of the block identities."""
        if not hasattr(self, "_centre"):
            self._centre = pointwise_subspace(self, [centre(self.spec)] * self.space.point_count)
        return self._centre

    def ideal_subspace(self, ideal: PointwiseIdeal) -> Subspace:
        """Materialize a pointwise ideal as a subspace of B's coordinate space."""
        sub = self._ideal_subspaces.get(ideal.stalks)
        if sub is None:
            # A stalk index is a block mask.
            parts = [block_ideal_subspace(self.spec, s) for s in ideal.stalks]
            sub = self._ideal_subspaces[ideal.stalks] = pointwise_subspace(self, parts)
        return sub


@lru_cache(maxsize=None)
def function_algebra(spec: AlgebraSpec, points: int) -> FunctionAlgebra:
    """Shared FunctionAlgebra instances so caches are reused."""
    return FunctionAlgebra(spec, SpaceModel(points))


class FunctionElement(Frozen):
    """Member of A^X: one Element per point."""

    __slots__ = ("spec", "space", "values")

    def __init__(self, spec: AlgebraSpec, space: SpaceModel, values):
        values = tuple(values)
        if len(values) != space.point_count:
            raise ValueError("one value per point is required")
        for v in values:
            if v.spec != spec:
                raise ValueError("value belongs to a different algebra")
        setfield(self, "spec", spec)
        setfield(self, "space", space)
        setfield(self, "values", values)

    def _check(self, other: "FunctionElement"):
        if self.spec != other.spec or self.space != other.space:
            raise ValueError("elements belong to different function algebras")

    def __add__(self, other):
        self._check(other)
        return FunctionElement(
            self.spec, self.space, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other):
        self._check(other)
        return FunctionElement(
            self.spec, self.space, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __mul__(self, other):
        self._check(other)
        return FunctionElement(
            self.spec, self.space, tuple(a * b for a, b in zip(self.values, other.values))
        )

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
    count = lat.size ** alg.space.point_count
    if count > MAX_IDEALS:
        raise LimitExceeded(f"{count} stalk assignments exceed the bound {MAX_IDEALS}")
    out = []
    for stalks in itertools.product(range(lat.size), repeat=alg.space.point_count):
        ideal = PointwiseIdeal(lat, alg.space, stalks)
        if verify and not is_invariant(alg.ideal_subspace(ideal), alg.unit_products):
            raise AssertionError(f"stalks {ideal.stalks} give a non-invariant subspace")
        out.append(ideal)
    return out


def pointwise_subspace(alg: FunctionAlgebra, parts) -> Subspace:
    """The subspace of B whose value at point x lies in parts[x], a subspace of A."""
    d = alg.spec.total_dim
    if len(parts) != alg.space.point_count or any(p.ambient_dim != d for p in parts):
        raise ValueError("one subspace of A per point is required")
    rows = []
    for x, part in enumerate(parts):
        for row in part.basis:
            big = [0] * alg.dim
            big[x * d : (x + 1) * d] = row
            rows.append(big)
    return rref(rows, alg.dim)


def product_subspace(alg: FunctionAlgebra, y_mask: int, c: Subspace) -> Subspace:
    """The functions vanishing on Y with values in C elsewhere.

    This is the pointwise image of the product J(Y) x C under the canonical
    identification of tensors f (x) a with the function x -> f(x) a.
    """
    if c.ambient_dim != alg.spec.total_dim:
        raise ValueError("subspace must live in the coordinate space of A")
    zero = Subspace.zero(alg.spec.total_dim)
    return pointwise_subspace(alg, [zero if y_mask >> x & 1 else c for x in alg.space.points()])


def ideal_from_Y_and_I(alg: FunctionAlgebra, y_mask: int, t: int) -> tuple:
    """(ideal, matches): the ideal { f : f(Y) inside I_t } and its two-term check.

    Stalks are I_t on Y and the whole algebra off Y; matches records whether
    the ideal's subspace equals product_subspace(empty, I_t) +
    product_subspace(Y, A), an exact sum of subspaces of B.
    """
    lat = alg.lattice
    if not 0 <= t < lat.size:
        raise ValueError(f"ideal index {t} out of range")
    stalks = tuple(t if y_mask >> x & 1 else lat.top for x in alg.space.points())
    ideal = PointwiseIdeal(lat, alg.space, stalks)
    full = Subspace.full(alg.spec.total_dim)
    summed = product_subspace(alg, 0, block_ideal_subspace(alg.spec, t)) + product_subspace(
        alg, y_mask, full
    )
    return ideal, summed == alg.ideal_subspace(ideal)
