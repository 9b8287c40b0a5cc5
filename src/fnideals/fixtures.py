"""Bundled problem documents.

A fixture is a problem document shipped with the package; `--fixture NAME`
lays the problem file's members over it and the CLI then reads it as it
reads any problem file, so every limit is checked before an ideal lattice
is enumerated.

bh2 is the nine-element lattice of the two-component operator-algebra
example (componentwise order on pairs drawn from a three-step chain),
shipped as data/bh2.json with its point count and nested family, and used
for the golden gamma table.  chain2 and block_n1_n2... are block algebras
(`blocks`); chain2 is M_2, whose ideal lattice is the 2-chain.  A chain of
length three or more has no finite-dimensional block realization, so those
carry a `lattice` only.
"""

from __future__ import annotations

import json
import os
import re

from .fdalgebra import AlgebraSpec

_BLOCK_NAMES = ("block_2", "block_3", "block_1_1", "block_1_2", "block_1_1_1")
_CHAIN_LENGTHS = range(2, 9)


def bundled_fixture_names() -> list:
    return ["bh2"] + [f"chain{m}" for m in _CHAIN_LENGTHS] + list(_BLOCK_NAMES)


def load_fixture(name: str) -> tuple:
    """(canonical name, problem document) of a bundled fixture."""
    if name == "bh2":
        # read next to this module: importlib.resources would add to every CLI start-up
        path = os.path.join(os.path.dirname(__file__), "data", "bh2.json")
        with open(path, encoding="utf-8") as fh:
            return "bh2", json.load(fh)
    m = re.fullmatch(r"chain(\d+)", name)
    if m:
        length = int(m.group(1))
        if length not in _CHAIN_LENGTHS:
            lo, hi = _CHAIN_LENGTHS[0], _CHAIN_LENGTHS[-1]
            raise ValueError(f"chain length {length} outside bundled range [{lo}, {hi}]")
        if length == 2:
            return "chain2", {"blocks": [2]}
        order = range(length)
        return f"chain{length}", {"lattice": {
            "size": length,
            "meet": [[min(i, j) for j in order] for i in order],
            "join": [[max(i, j) for j in order] for i in order],
            "bottom": 0,
            "top": length - 1,
        }}
    m = re.fullmatch(r"block((?:_\d+)+)", name)
    if m:
        dims = AlgebraSpec(int(p) for p in m.group(1).strip("_").split("_")).block_dims
        return "block_" + "_".join(str(n) for n in dims), {"blocks": list(dims)}
    raise ValueError(f"unknown fixture {name!r}")
