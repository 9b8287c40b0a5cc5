"""Bundled lattice and algebra instances.

bh2 is the nine-element lattice of the two-component operator-algebra
example (componentwise order on pairs drawn from a three-step chain),
shipped as a data file and used for the golden gamma table.  Chain and
block fixtures are generated; a chain of length three or more has no
finite-dimensional block realization, so those carry a lattice only.
"""

from __future__ import annotations

import json
import os
import re

from .fdalgebra import AlgebraSpec, enumerate_ideals
from .lattice import (
    BoundedLattice,
    SpaceModel,
    chain_lattice,
    family_from_lists,
    lattice_from_dict,
)
from .value import Frozen, setfield


class Fixture(Frozen):
    """A named lattice, optionally with a concrete algebra and a family."""

    __slots__ = ("name", "lattice", "spec", "family")

    def __init__(self, name: str, lattice: BoundedLattice, spec=None, family=None):
        setfield(self, "name", name)
        setfield(self, "lattice", lattice)
        setfield(self, "spec", spec)
        setfield(self, "family", family)


def bh2_fixture() -> Fixture:
    """The 9-element two-chain-squared lattice with its nested family."""
    # read next to this module: importlib.resources would add to every CLI start-up
    with open(os.path.join(os.path.dirname(__file__), "data", "bh2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    lat = lattice_from_dict(doc["lattice"])
    space = SpaceModel(doc["points"])
    family = family_from_lists(lat, space, doc["family"])
    return Fixture(name="bh2", lattice=lat, family=family)


def chain_fixture(m: int) -> Fixture:
    """Total order of m ideals; carries the one concrete realization (m = 2)."""
    if m < 2:
        raise ValueError("chain fixtures need at least two elements")
    spec = AlgebraSpec((2,)) if m == 2 else None
    return Fixture(name=f"chain{m}", lattice=chain_lattice(m), spec=spec)


def block_fixture(dims) -> Fixture:
    """Boolean ideal lattice of the block algebra with the given dimensions."""
    spec = AlgebraSpec(tuple(dims))
    lat = enumerate_ideals(spec)
    name = "block_" + "_".join(str(n) for n in spec.block_dims)
    return Fixture(name=name, lattice=lat, spec=spec)


_BLOCK_NAMES = ("block_2", "block_3", "block_1_1", "block_1_2", "block_1_1_1")
_CHAIN_LENGTHS = range(2, 9)


def bundled_fixture_names() -> list:
    return ["bh2"] + [f"chain{m}" for m in _CHAIN_LENGTHS] + list(_BLOCK_NAMES)


def load_fixture(name: str) -> Fixture:
    if name == "bh2":
        return bh2_fixture()
    m = re.fullmatch(r"chain(\d+)", name)
    if m:
        length = int(m.group(1))
        if length not in _CHAIN_LENGTHS:
            lo, hi = _CHAIN_LENGTHS[0], _CHAIN_LENGTHS[-1]
            raise ValueError(f"chain length {length} outside bundled range [{lo}, {hi}]")
        return chain_fixture(length)
    m = re.fullmatch(r"block((?:_\d+)+)", name)
    if m:
        dims = tuple(int(p) for p in m.group(1).strip("_").split("_"))
        return block_fixture(dims)
    raise ValueError(f"unknown fixture {name!r}")
