"""Finite sums of product ideals.

Every ideal theta(S) of A^X decomposes as the sum over non-bottom lattice
indices j of the product ideals "vanish on the union of S_k over gamma_j,
valued in I_j".  decompose builds the terms, evaluate folds them back into
a pointwise ideal, and verify_theorem checks the round trip exactly.
"""

from __future__ import annotations

from .function_algebra import PointwiseIdeal, recover_S, theta
from .lattice import (
    BoundedLattice,
    ClosedFamily,
    SpaceModel,
    _is_index,
    is_compatible,
    union_over_gamma,
)
from .value import Frozen, setfield


class Decomposition(Frozen):
    """Terms (Y_j, j) for every non-bottom index j, ascending in j."""

    __slots__ = ("lattice", "space", "terms")

    def __init__(self, lattice: BoundedLattice, space: SpaceModel, terms):
        terms = tuple(tuple(t) for t in terms)
        masks = space.full_mask + 1
        for y, j in terms:
            if not _is_index(j, lattice.size) or j == lattice.bottom:
                raise ValueError(f"term index {j} must be a non-bottom lattice index")
            if not _is_index(y, masks):
                raise ValueError(f"term mask {y} out of range")
        setfield(self, "lattice", lattice)
        setfield(self, "space", space)
        setfield(self, "terms", terms)


def decompose(family: ClosedFamily) -> Decomposition:
    """Terms (union over gamma_j of S_k, j) for every non-bottom j."""
    if not is_compatible(family):
        raise ValueError("family is not compatible with the lattice")
    lat = family.lattice
    terms = tuple(
        (union_over_gamma(family, j), j) for j in range(lat.size) if j != lat.bottom
    )
    return Decomposition(lat, family.space, terms)


def evaluate(dec: Decomposition) -> PointwiseIdeal:
    """Pointwise ideal of the term sum: stalk(x) joins I_j over terms off Y_j."""
    lat = dec.lattice
    stalks = []
    for x in dec.space.points():
        bit = 1 << x
        stalks.append(lat.join_all(j for y, j in dec.terms if not y & bit))
    return PointwiseIdeal(lat, dec.space, tuple(stalks))


def union_reduction_holds(family: ClosedFamily) -> bool:
    """The set identity behind the decomposition:

    for every non-top i, the intersection over r in alpha_i of
    (union over gamma_r of S_k) equals S_i, where alpha_i collects the
    indices whose element does not sit below i.
    """
    lat = family.lattice
    unions = {
        j: union_over_gamma(family, j) for j in range(lat.size) if j != lat.bottom
    }
    full = family.space.full_mask
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
    """Check the decomposition identities for one compatible family.

    Returns (identity-name, passed) pairs in a stable order; failures are
    reported, never raised.
    """
    target = theta(family)
    dec = decompose(family)
    evaluated = evaluate(dec)
    return [
        ("evaluate-equals-theta", evaluated == target),
        ("recover-roundtrip", recover_S(evaluated) == family),
        ("union-reduction", union_reduction_holds(family)),
    ]
