"""Finite-dimensional block matrix algebras and their ideal lattices.

An algebra is a direct sum of full matrix blocks M_{n_1} + ... + M_{n_k}.
Its two-sided ideals are exactly the block sums, represented as bitmasks
over the blocks; the enumeration never trusts that classification blindly,
every returned subspace is re-checked for two-sided invariance.

Every product, commutator and invariance check in the package comes from
`unit_products`, the table of `unit_product` in A, read at each point of a
row of A^X (copies of A side by side); dense `Element`s are the tests' reference.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import BoundedLattice, LimitExceeded, boolean_lattice
from .linalg import Subspace, rref, vector
from .value import Value


class AlgebraSpec(Value):
    """Block structure [n_1, ..., n_k] of a direct sum of matrix algebras."""

    __slots__ = ("block_dims",)

    def __init__(self, block_dims):
        block_dims = tuple(block_dims)
        if not block_dims:
            raise ValueError("at least one block is required")
        for n in block_dims:
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError(f"block dimension {n!r} must be a positive integer")
        self._fill(block_dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        return sum(n * n for n in self.block_dims)

    def block_offset(self, b: int) -> int:
        return sum(n * n for n in self.block_dims[:b])

    def coord(self, b: int, p: int, q: int) -> int:
        return self.block_offset(b) + p * self.block_dims[b] + q

    def coord_info(self, index: int) -> tuple:
        """Inverse of coord: (block, row, col) of a flat coordinate."""
        for b, n in enumerate(self.block_dims):
            if index < n * n:
                return b, index // n, index % n
            index -= n * n
        raise IndexError("coordinate out of range")

    def unit_coords(self):
        """All (block, row, col) triples in flat coordinate order."""
        for b, n in enumerate(self.block_dims):
            for p in range(n):
                for q in range(n):
                    yield b, p, q


def unit_product(u: tuple, v: tuple):
    """Product of matrix units e(b,p,q) * e(b',r,s): None when zero."""
    b1, p, q = u
    b2, r, s = v
    if b1 != b2 or q != r:
        return None
    return (b1, p, s)


@lru_cache(maxsize=None)
def unit_products(spec: AlgebraSpec) -> tuple:
    """out[i] = ((j, k), ...) for each nonzero product e_i * e_j = e_k of basis units."""
    units = list(spec.unit_coords())
    index = {u: i for i, u in enumerate(units)}
    return tuple(
        tuple((j, index[w]) for j, v in enumerate(units) if (w := unit_product(u, v)) is not None)
        for u in units
    )


@lru_cache(maxsize=None)
def unit_commutators(spec: AlgebraSpec) -> tuple:
    """comm[i] = ((j, terms), ...) over the j, ascending, with [e_i, e_j] != 0;
    terms are its sparse coordinates ((k, c), ...), ascending in k.

    e_i * e_j = e_k adds +e_k to [e_i, e_j] and -e_k to [e_j, e_i]; the two
    terms cancel only for i == j.
    """
    products = unit_products(spec)
    n = len(products)
    table = [[{} for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(products):
        for j, k in row:
            table[i][j][k] = table[i][j].get(k, 0) + 1
            table[j][i][k] = table[j][i].get(k, 0) - 1
    sparse = [
        [(j, tuple((k, c) for k, c in sorted(terms.items()) if c)) for j, terms in enumerate(row)]
        for row in table
    ]
    return tuple(tuple((j, terms) for j, terms in row if terms) for row in sparse)


def unit_translates(row, products) -> list:
    """The nonzero rows e_a * v and v * e_a over all basis units e_a of A^X.

    v is read as copies of A side by side, one per point, each translated by
    its own point's units through A's table `products`.  A unit maps distinct
    units to distinct units, so each translate only moves coefficients of v.
    """
    width, d = len(row), len(products)
    out = []
    for offset in range(0, width, d):
        coeff = {i: f for i, f in enumerate(row[offset : offset + d]) if f}
        if not coeff:
            continue
        translates: dict = {}
        for a, pairs in enumerate(products):
            for j, k in pairs:
                # e_a * e_j = e_k carries v_j into e_a * v and v_a into v * e_j
                if j in coeff:
                    translates.setdefault(("left", a), [0] * width)[offset + k] = coeff[j]
                if a in coeff:
                    translates.setdefault(("right", j), [0] * width)[offset + k] = coeff[a]
        out += translates.values()
    return out


def is_invariant(sub: Subspace, products) -> bool:
    """True iff e_a * v and v * e_a stay in sub for every basis row v and unit e_a."""
    test = sub.membership()
    return all(test(t) for row in sub.basis for t in unit_translates(row, products))


class Element(Value):
    """Member of a block algebra: one square matrix of canonical values per block."""

    __slots__ = ("spec", "blocks")

    def __init__(self, spec: AlgebraSpec, blocks):
        blocks = tuple(tuple(tuple(row) for row in blk) for blk in blocks)
        dims = spec.block_dims
        if len(blocks) != len(dims):
            raise ValueError("block count differs from algebra layout")
        for blk, n in zip(blocks, dims):
            if len(blk) != n or any(len(row) != n for row in blk):
                raise ValueError("block shape differs from algebra layout")
        self._fill(spec, blocks)

    @staticmethod
    def zero(spec: AlgebraSpec) -> "Element":
        return Element(spec, tuple(((0,) * n,) * n for n in spec.block_dims))

    @staticmethod
    def identity(spec: AlgebraSpec) -> "Element":
        blocks = []
        for n in spec.block_dims:
            blocks.append(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
        return Element(spec, tuple(blocks))

    @staticmethod
    def matrix_unit(spec: AlgebraSpec, b: int, p: int, q: int) -> "Element":
        blocks = []
        for bi, n in enumerate(spec.block_dims):
            blocks.append(
                tuple(
                    tuple(int(bi == b and i == p and j == q) for j in range(n))
                    for i in range(n)
                )
            )
        return Element(spec, tuple(blocks))

    @staticmethod
    def from_vector(spec: AlgebraSpec, vec) -> "Element":
        if len(vec) != spec.total_dim:
            raise ValueError("vector length differs from algebra dimension")
        blocks = []
        pos = 0
        for n in spec.block_dims:
            blk = []
            for i in range(n):
                blk.append(vector(vec[pos : pos + n]))
                pos += n
            blocks.append(tuple(blk))
        return Element(spec, tuple(blocks))

    def to_vector(self) -> tuple:
        out = []
        for blk in self.blocks:
            for row in blk:
                out.extend(row)
        return tuple(out)

    def _check_spec(self, other: "Element"):
        if self.spec != other.spec:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check_spec(other)
        return Element(
            self.spec,
            tuple(
                tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(b1, b2))
                for b1, b2 in zip(self.blocks, other.blocks)
            ),
        )

    def __sub__(self, other: "Element") -> "Element":
        self._check_spec(other)
        return Element(
            self.spec,
            tuple(
                tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(b1, b2))
                for b1, b2 in zip(self.blocks, other.blocks)
            ),
        )

    def scale(self, c) -> "Element":
        return Element(
            self.spec,
            tuple(tuple(tuple(c * a for a in row) for row in blk) for blk in self.blocks),
        )

    def __mul__(self, other: "Element") -> "Element":
        self._check_spec(other)
        blocks = []
        for blk_x, blk_y, n in zip(self.blocks, other.blocks, self.spec.block_dims):
            out = [[0] * n for _ in range(n)]
            for i in range(n):
                row = blk_x[i]
                for k in range(n):
                    f = row[k]
                    if not f:
                        continue
                    yrow = blk_y[k]
                    orow = out[i]
                    for j in range(n):
                        g = yrow[j]
                        if g:
                            orow[j] = orow[j] + f * g
            blocks.append(tuple(tuple(r) for r in out))
        return Element(self.spec, tuple(blocks))


def centre(spec: AlgebraSpec) -> Subspace:
    """Span of the block identities; one dimension per block."""
    d = spec.total_dim
    rows = []
    for b, n in enumerate(spec.block_dims):
        row = [0] * d
        for p in range(n):
            row[spec.coord(b, p, p)] = 1
        rows.append(row)
    return rref(rows, d)


@lru_cache(maxsize=None)
def block_ideal_subspace(spec: AlgebraSpec, mask: int) -> Subspace:
    """The two-sided ideal of A that is the sum of the blocks in the bitmask."""
    if not 0 <= mask < 1 << spec.num_blocks:
        raise ValueError("block mask out of range")
    d = spec.total_dim
    rows = []
    for b, p, q in spec.unit_coords():
        if mask >> b & 1:
            row = [0] * d
            row[spec.coord(b, p, q)] = 1
            rows.append(row)
    return rref(rows, d)


# k blocks give 2^k ideals, each one checked for invariance.
MAX_BLOCKS = 6


@lru_cache(maxsize=None)
def enumerate_ideals(spec: AlgebraSpec) -> BoundedLattice:
    """The ideal lattice of A: index `mask` is block_ideal_subspace(spec, mask),
    so meet/join = mask AND/OR.

    Every ideal is checked to be invariant under two-sided multiplication
    by all basis elements.
    """
    k = spec.num_blocks
    if k > MAX_BLOCKS:
        raise LimitExceeded(f"{k} blocks exceeds the configured bound {MAX_BLOCKS}")
    products = unit_products(spec)
    for mask in range(1 << k):
        if not is_invariant(block_ideal_subspace(spec, mask), products):
            raise AssertionError(f"ideal mask {mask:b} not two-sided invariant")
    return boolean_lattice(k)
