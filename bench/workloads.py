"""The benchmark's three workloads, as lists of CLI invocations.

Every invocation is a `Case`: an id that keys its golden, the argv after
`python -m fnideals.cli`, and an optional problem document that the runner
writes to a file and passes as the positional `problem` argument.

The query-stream inputs come from a fixed pool (`queries.json`, written by
`record.py` from `make_pool()`), so that every input any seed can select has
a golden recorded at the commit that defined the benchmark.  The run seed
only chooses which pool variants run and in what order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
QUERIES_FILE = BENCH_DIR / "queries.json"

WORKLOADS = ("verify-suite", "family-sweep", "query-stream")

# verify-all problems; [3] x 2 is the single-block path that runs the
# normalizer-decomposition check, the other two skip it.
SUITE_ALGEBRAS = (((1, 2), 3), ((2, 2), 2), ((3,), 2))

QUERY_ALGEBRAS = (((2,), 4), ((3,), 3), ((1, 2), 3), ((1, 2), 4), ((2, 2), 3), ((1, 1, 1), 3))

# kind -> (invocations per pass and algebra, pool variants per algebra)
QUERY_KINDS = {
    "sandwich-lie": (1, 6),
    "sandwich-span": (1, 6),
    "normalizer": (1, 6),
    "ideal-from-y": (1, 6),
    "recover": (1, 6),
    "theta": (1, 6),
    "decompose": (1, 6),
    "cqp": (1, 1),
    "weak-central": (1, 1),
    "gamma": (1, 1),
}

POOL_SEED = 1904


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple
    doc: dict | None = None


def algebra_name(blocks, points) -> str:
    return "blocks_" + "_".join(str(n) for n in blocks) + f"x{points}"


def setup_case() -> Case:
    return Case("setup/fixtures", ("fixtures",))


def suite_cases(seed: int) -> list:
    # verify-all prints counts, never the random subspaces themselves, so its
    # report (and golden) is the same for every --seed.
    return [
        Case(
            f"verify-suite/{algebra_name(blocks, points)}",
            ("verify-all", "--seed", str(seed)),
            {"blocks": list(blocks), "points": points},
        )
        for blocks, points in SUITE_ALGEBRAS
    ]


def boolean_lattice_doc(k: int) -> dict:
    n = 1 << k
    return {
        "size": n,
        "meet": [[i & j for j in range(n)] for i in range(n)],
        "join": [[i | j for j in range(n)] for i in range(n)],
        "bottom": 0,
        "top": n - 1,
    }


def sweep_cases() -> list:
    # Lattices are given abstractly (fixtures or a lattice member, never a
    # blocks member) so that no invocation builds an algebra or enters linalg.
    return [
        Case("family-sweep/fin-sum_bh2x4", ("verify-fin-sum", "--fixture", "bh2", "--bound", "36"), {"points": 4}),
        Case("family-sweep/fin-sum_chain8x4", ("verify-fin-sum", "--fixture", "chain8", "--bound", "32"), {"points": 4}),
        Case(
            "family-sweep/fin-sum_boolean3x4",
            ("verify-fin-sum", "--bound", "32"),
            {"lattice": boolean_lattice_doc(3), "points": 4},
        ),
        Case("family-sweep/verify-all_bh2x4", ("verify-all", "--fixture", "bh2", "--bound", "36"), {"points": 4}),
    ]


def _unit_rows(blocks, points, stalks) -> list:
    """Matrix-unit rows spanning the pointwise ideal with the given block masks.

    Coordinates follow the CLI's layout: point-major, blocks in order, each
    block row-major.
    """
    d = sum(n * n for n in blocks)
    rows = []
    for x, mask in enumerate(stalks):
        offset = x * d
        for b, n in enumerate(blocks):
            if mask >> b & 1:
                for c in range(n * n):
                    row = [0] * (d * points)
                    row[offset + c] = 1
                    rows.append(row)
            offset += n * n
    return rows


def _central_row(blocks, points, x, b, scale) -> list:
    d = sum(n * n for n in blocks)
    row = [0] * (d * points)
    offset = x * d + sum(n * n for n in blocks[:b])
    n = blocks[b]
    for p in range(n):
        row[offset + p * n + p] = scale
    return row


def _query_doc(kind: str, blocks, points, rng) -> tuple:
    """(argv, doc) of one query; lattice indices are block masks."""
    base = {"blocks": list(blocks), "points": points}
    top = (1 << len(blocks)) - 1
    dim = sum(n * n for n in blocks) * points

    def stalks():
        return [rng.randint(0, top) for _ in range(points)]

    if kind == "sandwich-lie":
        # An ideal plus central functions is a Lie ideal with the ideal as
        # witness; central rows are mixed with ideal rows so rref has work.
        rows = _unit_rows(blocks, points, stalks())
        for _ in range(rng.randint(1, 2)):
            row = _central_row(
                blocks, points, rng.randrange(points), rng.randrange(len(blocks)), rng.choice((1, -1, 2))
            )
            for src in rng.sample(rows, min(2, len(rows))):
                row = [a + b for a, b in zip(row, src)]
            rows.append(row)
        return ("sandwich",), dict(base, subspace=rows)
    if kind == "sandwich-span":
        rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, 3))]
        return ("sandwich",), dict(base, subspace=rows)
    if kind in ("normalizer", "recover"):
        return (kind,), dict(base, ideal=stalks())
    if kind == "ideal-from-y":
        y = sorted(rng.sample(range(points), rng.randint(0, points)))
        return (kind,), dict(base, Y=y, ideal_index=rng.randint(0, top))
    if kind in ("theta", "decompose"):
        s = stalks()
        family = [[x for x in range(points) if s[x] | i == i] for i in range(top + 1)]
        argv = ("decompose", "--minimal") if kind == "decompose" and rng.random() < 0.5 else (kind,)
        return argv, dict(base, family=family)
    return (kind,), base


def make_pool() -> list:
    """All query-stream inputs, as JSON-ready dicts (what queries.json holds)."""
    rng = random.Random(POOL_SEED)
    pool = []
    for blocks, points in QUERY_ALGEBRAS:
        for kind, (_, variants) in QUERY_KINDS.items():
            for v in range(variants):
                argv, doc = _query_doc(kind, blocks, points, rng)
                group = f"{kind}/{algebra_name(blocks, points)}"
                pool.append({"id": f"query-stream/{group}/{v}", "group": group, "argv": list(argv), "doc": doc})
    return pool


def load_pool() -> list:
    return json.loads(QUERIES_FILE.read_text())


def stream_cases(seed: int, pool: list) -> list:
    """One pass of the query stream: per group, a seeded choice of variants,
    then the whole pass in seeded order."""
    rng = random.Random(seed)
    groups: dict = {}
    for q in pool:
        groups.setdefault(q["group"], []).append(q)
    chosen = []
    for group, queries in groups.items():
        per_pass = QUERY_KINDS[group.split("/")[0]][0]
        chosen.extend(rng.sample(queries, per_pass))
    rng.shuffle(chosen)
    return [Case(q["id"], tuple(q["argv"]), q["doc"]) for q in chosen]


def workload_cases(name: str, seed: int, pool: list) -> list:
    if name == "verify-suite":
        return suite_cases(seed)
    if name == "family-sweep":
        return sweep_cases()
    if name == "query-stream":
        return stream_cases(seed, pool)
    raise ValueError(f"unknown workload {name!r}")
