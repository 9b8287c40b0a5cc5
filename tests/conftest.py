"""Shared builders for the test suite."""

from __future__ import annotations

import pytest

from fnideals import lattice, lie
from fnideals.lattice import BoundedLattice, ClosedFamily
from fnideals.linalg import rref


def drop_last_normalizer_row(normalizer):
    """Seeded fault: normalizer's N(J) without its last basis row."""
    return lambda alg, ideal: rref(normalizer(alg, ideal).basis[:-1], alg.dim)


@pytest.fixture
def corrupt_normalizer(monkeypatch):
    """Seeded fault: lie_normalizer drops the last basis row of N(J)."""
    monkeypatch.setattr(lie, "lie_normalizer", drop_last_normalizer_row(lie.lie_normalizer))


@pytest.fixture
def drop_meet_trigger(monkeypatch):
    """Seeded fault: enumerate_compatible_families never checks the pair (1, 2)."""
    triggers = lattice._meet_triggers

    def corrupted(lat):
        return [[t for t in at_p if t[:2] != (1, 2)] for at_p in triggers(lat)]

    monkeypatch.setattr(lattice, "_meet_triggers", corrupted)


def diamond_lattice() -> BoundedLattice:
    """M3: bottom, three incomparable atoms, top."""
    n = 5
    bot, top = 0, 4
    atoms = (1, 2, 3)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                meet[i][j] = join[i][j] = i
            elif i == bot or j == bot:
                meet[i][j], join[i][j] = bot, max(i, j) if bot in (i, j) else top
            elif i == top or j == top:
                meet[i][j], join[i][j] = min(i, j), top
            else:
                meet[i][j], join[i][j] = bot, top
    for i in range(n):
        join[bot][i] = join[i][bot] = i
        meet[top][i] = meet[i][top] = i
    return BoundedLattice(n, meet, join, bot, top)


def pentagon_lattice() -> BoundedLattice:
    """N5: bottom < a < c < top and bottom < b < top with b incomparable to a, c."""
    bot, a, b, c, top = 0, 1, 2, 3, 4
    n = 5
    order = {
        (bot, bot), (bot, a), (bot, b), (bot, c), (bot, top),
        (a, a), (a, c), (a, top),
        (b, b), (b, top),
        (c, c), (c, top),
        (top, top),
    }

    def leq(i, j):
        return (i, j) in order

    def meet_of(i, j):
        candidates = [k for k in range(n) if leq(k, i) and leq(k, j)]
        return max(candidates, key=lambda k: sum(leq(m, k) for m in candidates))

    def join_of(i, j):
        candidates = [k for k in range(n) if leq(i, k) and leq(j, k)]
        return max(candidates, key=lambda k: sum(leq(k, m) for m in candidates))

    meet = [[meet_of(i, j) for j in range(n)] for i in range(n)]
    join = [[join_of(i, j) for j in range(n)] for i in range(n)]
    return BoundedLattice(n, meet, join, bot, top)


# Stalk levels (bottom, I2, I3, I4, I6) of five points on bh2: their level
# family has all nine sets distinct and nonempty.
BH2_NESTED_LEVELS = (0, 1, 2, 3, 5)


def level_family(lat: BoundedLattice, levels) -> ClosedFamily:
    """Compatible family from a per-point stalk level: S_i = {x : level(x) <= i}."""
    sets = []
    for i in range(lat.size):
        mask = 0
        for x, lev in enumerate(levels):
            if lat.leq(lev, i):
                mask |= 1 << x
        sets.append(mask)
    return ClosedFamily(lat, len(levels), sets)
