"""Finite sums of product ideals.

Every ideal theta(S) of A^X decomposes as the sum over non-bottom lattice
indices j of the product ideals "vanish on the union of S_k over gamma_j,
valued in I_j".  decompose builds the terms, evaluate folds them back into
a pointwise ideal, and verify_theorem checks the round trip exactly.
"""

from __future__ import annotations

from .function_algebra import PointwiseIdeal, _theta, recover_S
from .lattice import (
    BoundedLattice,
    ClosedFamily,
    _is_index,
    check_points,
    is_compatible,
    union_over_gamma,
)
from .value import Value


class Decomposition(Value):
    """Terms (Y_j, j) for every non-bottom index j, ascending in j."""

    __slots__ = ("lattice", "points", "terms")

    def __init__(self, lattice: BoundedLattice, points: int, terms):
        masks = 1 << check_points(points)
        terms = tuple(tuple(t) for t in terms)
        for y, j in terms:
            if not _is_index(j, lattice.size) or j == lattice.bottom:
                raise ValueError(f"term index {j} must be a non-bottom lattice index")
            if not _is_index(y, masks):
                raise ValueError(f"term mask {y} out of range")
        self._fill(lattice, points, terms)


def decompose(family: ClosedFamily) -> Decomposition:
    """Terms (union over gamma_j of S_k, j) for every non-bottom j."""
    if not is_compatible(family):
        raise ValueError("family is not compatible with the lattice")
    return _decompose(family)


def _decompose(family: ClosedFamily) -> Decomposition:
    """decompose of a family the caller has already found compatible."""
    lat = family.lattice
    terms = tuple(
        (union_over_gamma(family, j), j) for j in range(lat.size) if j != lat.bottom
    )
    return Decomposition(lat, family.points, terms)


def evaluate(dec: Decomposition) -> PointwiseIdeal:
    """Pointwise ideal of the term sum: stalk(x) joins I_j over terms off Y_j."""
    lat = dec.lattice
    stalks = []
    for x in range(dec.points):
        bit = 1 << x
        stalks.append(lat.join_all(j for y, j in dec.terms if not y & bit))
    return PointwiseIdeal(lat, stalks)


def union_reduction_holds(family: ClosedFamily, dec: Decomposition) -> bool:
    """The set identity behind `dec`, the family's full decomposition:

    for every non-top i, the intersection over r in alpha_i of Y_r (the union
    over gamma_r of S_k) equals S_i, where alpha_i collects the indices whose
    element does not sit below i.
    """
    lat = family.lattice
    unions = {j: y for y, j in dec.terms}
    full = (1 << family.points) - 1
    for i in range(lat.size):
        if i == lat.top:
            continue
        alpha = [r for r in range(lat.size) if not lat.leq(r, i)]
        acc = full
        for r in alpha:
            acc &= unions[r]
        if acc != family.sets[i]:
            return False
    return True


def verify_theorem(family: ClosedFamily) -> list:
    """Check the decomposition identities for one family.

    Returns (identity-name, passed) pairs in a stable order; failures are
    reported, never raised, and an incompatible family fails as one pair.
    """
    if not is_compatible(family):
        return [("family-compatible", False)]
    target = _theta(family)
    dec = _decompose(family)
    evaluated = evaluate(dec)
    return [
        ("evaluate-equals-theta", evaluated == target),
        ("recover-roundtrip", recover_S(evaluated) == family),
        ("union-reduction", union_reduction_holds(family, dec)),
    ]
