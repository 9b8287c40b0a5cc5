"""Finite bounded lattices, compatible closed-set families and gamma sets.

The point space X is finite and discrete (every finite Hausdorff space is),
so "closed subset of X" means "any subset", stored as a bitmask over the
points 0..|X|-1.  A family assigns one subset to every lattice index; it is
compatible when every meet relation among indices is mirrored by the
intersection of the assigned subsets.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .value import Value, setfield


class LimitExceeded(ValueError):
    """An exhaustive enumeration was asked to exceed its configured bound."""


def _is_index(v, n: int) -> bool:
    """An int in [0, n); true and false are not indices."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


class BoundedLattice(Value):
    """Finite lattice given by explicit meet and join tables.

    `bottom` and `top` are the indices of the least and greatest elements.
    The derived order is i <= j iff meet(i, j) == i.
    """

    __slots__ = ("size", "meet", "join", "bottom", "top")

    def __init__(self, size: int, meet, join, bottom: int, top: int):
        meet = tuple(tuple(r) for r in meet)
        join = tuple(tuple(r) for r in join)
        n = size
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"lattice size {n!r} must be a positive integer")
        for name, table in (("meet", meet), ("join", join)):
            if len(table) != n:
                raise ValueError(f"{name} table must have {n} rows")
            for row in table:
                if len(row) != n:
                    raise ValueError(f"{name} table rows must have {n} entries")
                for v in row:
                    if not _is_index(v, n):
                        raise ValueError(f"{name} table entry {v!r} out of range")
        for name, idx in (("bottom", bottom), ("top", top)):
            if not _is_index(idx, n):
                raise ValueError(f"{name} index {idx!r} out of range")
        setfield(self, "size", size)
        setfield(self, "meet", meet)
        setfield(self, "join", join)
        setfield(self, "bottom", bottom)
        setfield(self, "top", top)

    def _key(self) -> tuple:
        return self.size, self.meet, self.join, self.bottom, self.top

    def leq(self, i: int, j: int) -> bool:
        return self.meet[i][j] == i

    def meet_all(self, indices: Iterable[int]) -> int:
        acc = self.top
        for i in indices:
            acc = self.meet[acc][i]
        return acc

    def join_all(self, indices: Iterable[int]) -> int:
        acc = self.bottom
        for i in indices:
            acc = self.join[acc][i]
        return acc

    def coatoms(self) -> tuple:
        """Indices covered by top: maximal among the non-top elements."""
        below_top = [i for i in range(self.size) if i != self.top]
        out = []
        for i in below_top:
            if any(j != i and self.leq(i, j) for j in below_top):
                continue
            out.append(i)
        return tuple(out)


def chain_lattice(m: int) -> BoundedLattice:
    """Total order 0 < 1 < ... < m-1."""
    if m < 1:
        raise ValueError("chain length must be positive")
    meet = tuple(tuple(min(i, j) for j in range(m)) for i in range(m))
    join = tuple(tuple(max(i, j) for j in range(m)) for i in range(m))
    return BoundedLattice(m, meet, join, 0, m - 1)


def boolean_lattice(k: int) -> BoundedLattice:
    """Subsets of a k-set, indexed by bitmask."""
    n = 1 << k
    meet = tuple(tuple(i & j for j in range(n)) for i in range(n))
    join = tuple(tuple(i | j for j in range(n)) for i in range(n))
    return BoundedLattice(n, meet, join, 0, n - 1)


def validate_lattice(lat: BoundedLattice) -> str | None:
    """Check every lattice law; return None or the first violation with witnesses."""
    n = lat.size
    meet, join = lat.meet, lat.join
    for i in range(n):
        if meet[i][i] != i:
            return f"meet idempotence violated at ({i},{i}): got {meet[i][i]}"
        if join[i][i] != i:
            return f"join idempotence violated at ({i},{i}): got {join[i][i]}"
    for i in range(n):
        for j in range(n):
            if meet[i][j] != meet[j][i]:
                return f"meet commutativity violated at ({i},{j})"
            if join[i][j] != join[j][i]:
                return f"join commutativity violated at ({i},{j})"
    for i in range(n):
        for j in range(n):
            if meet[i][join[i][j]] != i:
                return f"absorption meet(i, join(i,j)) violated at ({i},{j})"
            if join[i][meet[i][j]] != i:
                return f"absorption join(i, meet(i,j)) violated at ({i},{j})"
    for i in range(n):
        if meet[i][lat.top] != i:
            return f"top is not a unit for meet at ({i},{lat.top})"
        if join[i][lat.bottom] != i:
            return f"bottom is not a unit for join at ({i},{lat.bottom})"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if meet[meet[i][j]][k] != meet[i][meet[j][k]]:
                    return f"meet associativity violated at ({i},{j},{k})"
                if join[join[i][j]][k] != join[i][join[j][k]]:
                    return f"join associativity violated at ({i},{j},{k})"
    return None


class SpaceModel(Value):
    """Finite discrete point space; subsets of X are bitmasks over the points."""

    __slots__ = ("point_count",)

    def __init__(self, point_count: int):
        if isinstance(point_count, bool) or not isinstance(point_count, int) or point_count < 0:
            raise ValueError(f"point count {point_count!r} must be a nonnegative integer")
        setfield(self, "point_count", point_count)

    def _key(self) -> tuple:
        return (self.point_count,)

    @property
    def full_mask(self) -> int:
        return (1 << self.point_count) - 1

    def points(self) -> range:
        return range(self.point_count)


def mask_to_points(mask: int) -> tuple:
    out = []
    x = 0
    while mask:
        if mask & 1:
            out.append(x)
        mask >>= 1
        x += 1
    return tuple(out)


def points_to_mask(points: Iterable[int], point_count: int) -> int:
    mask = 0
    for p in points:
        if isinstance(p, bool) or not isinstance(p, int) or not 0 <= p < point_count:
            raise ValueError(f"point {p!r} out of range [0, {point_count})")
        mask |= 1 << p
    return mask


class ClosedFamily(Value):
    """Assignment of a subset of X to every lattice index."""

    __slots__ = ("lattice", "space", "sets")

    def __init__(self, lattice: BoundedLattice, space: SpaceModel, sets):
        sets = tuple(sets)
        if len(sets) != lattice.size:
            raise ValueError("family must assign one subset per lattice index")
        masks = space.full_mask + 1  # a mask of X is an index in [0, 2^|X|)
        for s in sets:
            if not _is_index(s, masks):
                raise ValueError(f"subset mask {s!r} out of range")
        setfield(self, "lattice", lattice)
        setfield(self, "space", space)
        setfield(self, "sets", sets)

    def _key(self) -> tuple:
        return self.lattice, self.space, self.sets


def _pairwise_compatible(lat: BoundedLattice, sets: tuple) -> bool:
    meet = lat.meet
    n = lat.size
    for i in range(n):
        si = sets[i]
        for j in range(i, n):
            if si & sets[j] != sets[meet[i][j]]:
                return False
    return True


def _exhaustive_compatible(lat: BoundedLattice, sets: tuple) -> bool:
    """Check every nonempty subset gamma of indices, not just pairs."""
    n = lat.size
    meet = lat.meet
    full_space = None
    meet_of = [0] * (1 << n)
    inter_of = [0] * (1 << n)
    for gamma in range(1, 1 << n):
        low = (gamma & -gamma).bit_length() - 1
        rest = gamma & (gamma - 1)
        if rest:
            meet_of[gamma] = meet[meet_of[rest]][low]
            inter_of[gamma] = inter_of[rest] & sets[low]
        else:
            meet_of[gamma] = low
            inter_of[gamma] = sets[low]
        if inter_of[gamma] != sets[meet_of[gamma]]:
            return False
    return True


def is_compatible(family: ClosedFamily, exhaustive: bool = False) -> bool:
    """Compatibility of the family with the lattice's meet structure.

    The fast mode checks all pairs; since the index family is the whole
    (meet-closed) lattice, arbitrary meets factor through pairwise meets.
    The exhaustive mode re-checks every subset of indices directly.
    """
    lat, sets = family.lattice, family.sets
    if sets[lat.top] != family.space.full_mask:
        raise ValueError("family must assign the full point set to the top index")
    if exhaustive:
        return _exhaustive_compatible(lat, sets)
    return _pairwise_compatible(lat, sets)


def compat_oracles_agree(lat: BoundedLattice, space: SpaceModel) -> bool:
    """True iff the pairwise and exhaustive compatibility checks agree on
    every assignment of a subset of X to each lattice index.  They can
    differ only on a meet table that is not commutative.
    """
    return all(
        _pairwise_compatible(lat, sets) == _exhaustive_compatible(lat, sets)
        for sets in itertools.product(range(space.full_mask + 1), repeat=lat.size)
    )


def compute_gamma(lat: BoundedLattice, j: int) -> frozenset:
    """Indices i whose element does not lie above j: { i : not (j <= i) }."""
    return frozenset(i for i in range(lat.size) if not lat.leq(j, i))


def union_over_gamma(family: ClosedFamily, j: int) -> int:
    mask = 0
    for k in compute_gamma(family.lattice, j):
        mask |= family.sets[k]
    return mask


def lattice_from_dict(doc: dict) -> BoundedLattice:
    """Build a lattice from the JSON problem-file layout."""
    if not isinstance(doc, dict):
        raise ValueError("lattice must be a JSON object")
    try:
        return BoundedLattice(
            size=doc["size"],
            meet=doc["meet"],
            join=doc["join"],
            bottom=doc["bottom"],
            top=doc["top"],
        )
    except KeyError as exc:
        raise ValueError(f"lattice object is missing member {exc.args[0]!r}") from None


def family_from_lists(lat: BoundedLattice, space: SpaceModel, lists) -> ClosedFamily:
    """Build a family from per-index sorted point lists."""
    if len(lists) != lat.size:
        raise ValueError("family must list one subset per lattice index")
    sets = tuple(points_to_mask(pts, space.point_count) for pts in lists)
    return ClosedFamily(lat, space, sets)


def enumerate_compatible_families(
    lat: BoundedLattice, space: SpaceModel, bound: int = 16
) -> list:
    """All compatible families with S_top = X, lexicographic in the mask tuple.

    Backtracks index by index; a pair (i, j) is checked as soon as i, j and
    meet(i, j) are all assigned, which prunes incompatible prefixes early.
    """
    n = lat.size
    if n * space.point_count > bound:
        raise LimitExceeded(
            f"lattice size * points = {n * space.point_count} exceeds bound {bound}"
        )
    triggers = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m = lat.meet[i][j]
            triggers[max(i, j, m)].append((i, j, m))
    full = space.full_mask
    all_masks = range(full + 1)
    sets = [0] * n
    out = []

    def assign(pos: int):
        if pos == n:
            out.append(ClosedFamily(lat, space, tuple(sets)))
            return
        candidates = (full,) if pos == lat.top else all_masks
        for mask in candidates:
            sets[pos] = mask
            if all(sets[i] & sets[j] == sets[m] for i, j, m in triggers[pos]):
                assign(pos + 1)

    assign(0)
    return out
