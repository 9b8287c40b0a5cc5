"""The CLI's input boundary and its byte-identical output on recorded cases."""

import hashlib
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from fnideals import cli, decomposition, fdalgebra
from fnideals.cli import _parse_scalar, main
from fnideals.fdalgebra import AlgebraSpec, enumerate_ideals
from fnideals.function_algebra import PointwiseIdeal, enumerate_all_ideals
from fnideals.lattice import chain_lattice
from fnideals.lie import commutator_ideal_span, lie_normalizer
from oracles import dense_brackets, gaussian_text, lattice_to_dict

# The package re-exports a function of the same name over the module.
function_algebra = importlib.import_module("fnideals.function_algebra")

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SRC_DIR = BENCH_DIR.parent / "src"


def run_cli(tmp_path, capsys, argv, doc):
    """main(argv) with doc written to a problem file, as the shell runs it."""
    argv = list(argv)
    if doc is not None:
        path = tmp_path / "problem.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(json.dumps(doc))
        argv.insert(1, str(path))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# input boundary: exit 2 and one error line, never a traceback or a hang
# ---------------------------------------------------------------------------

BOOLEAN_2 = {
    "size": 4,
    "meet": [[i & j for j in range(4)] for i in range(4)],
    "join": [[i | j for j in range(4)] for i in range(4)],
    "bottom": 0,
    "top": 3,
}


# the same lattice listed as [bottom, top, {block 0}, {block 1}]
BOOLEAN_2_RELABELED = {
    "size": 4,
    "meet": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 0], [0, 3, 0, 3]],
    "join": [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 2, 1], [3, 1, 1, 3]],
    "bottom": 0,
    "top": 1,
}


def _one_entry(entry):
    return {"blocks": [2], "points": 1, "subspace": [[entry, 0, 0, 0]]}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        # limits are checked before the ideal lattice is enumerated
        (("validate",), {"blocks": [1000000]},
         "algebra dimension 1000000000000 exceeds the per-point limit 32"),
        (("verify-all",), {"blocks": [2], "points": True},
         "points must be a nonnegative integer, got True"),
        (("validate",), {"lattice": 5}, "bad lattice member: lattice must be a JSON object"),
        (("validate",), {"lattice": dict(BOOLEAN_2, meet=5)},
         "bad lattice member: 'int' object is not iterable"),
        (("sandwich",), {"blocks": [2], "points": 1, "subspace": [5]},
         "subspace must be a list of rows"),
        (("ideal-from-y",), {"blocks": [1, 1], "points": 2, "Y": [True], "ideal_index": 1},
         "bad Y member: point True out of range [0, 2)"),
        (("normalizer",), {"blocks": [1, 1], "points": 1, "ideal": [True]},
         "stalk index True out of range"),
        # the top index must carry the whole point set
        (("verify-all",), {"blocks": [1, 1], "points": 2, "family": [[], [0], [1], [0]]},
         "family must assign the full point set to the top index"),
        (("sandwich",), _one_entry("x i"),
         "cannot parse scalar 'x i': Invalid literal for Fraction: 'x'"),
        (("sandwich",), _one_entry("1/0 i"), "cannot parse scalar '1/0 i': Fraction(1, 0)"),
        (("sandwich",), _one_entry(""), "cannot parse scalar '': empty scalar"),
        # an exponent would make Fraction build 10^k
        (("sandwich",), _one_entry("1e5000"), "cannot parse scalar '1e5000': exponents are not accepted"),
        (("sandwich",), _one_entry("2e-5 i"), "cannot parse scalar '2e-5 i': exponents are not accepted"),
        # a short row is refused after realification with the same text
        (("sandwich",), {"blocks": [2], "points": 1, "subspace": [[0, "i", 0]]},
         "row length differs from ambient dimension"),
        # problem files json.loads cannot take (a bytes doc is written as is)
        (("validate",), b"\xff\xfe{}", "problem file is not UTF-8: invalid byte at offset 0"),
        (("validate",), b"1" * 5000, "malformed JSON: a number has too many digits"),
        (("validate",), b"[" * 100000, "malformed JSON: nested too deeply"),
        # with blocks, a lattice member must be the block lattice itself
        (("normalizer",),
         {"blocks": [1, 2], "points": 2, "lattice": BOOLEAN_2_RELABELED, "ideal": [2, 2]},
         "lattice member must be the block lattice, indexed by block bitmask"),
        # JSON true and false are not lattice sizes or indices
        (("gamma",), {"lattice": dict(BOOLEAN_2, bottom=False, top=True)},
         "bad lattice member: bottom index False out of range"),
        (("gamma",), {"lattice": dict(BOOLEAN_2, top=True)},
         "bad lattice member: top index True out of range"),
        (("gamma",), {"lattice": dict(BOOLEAN_2, size=True, meet=[[0]], join=[[0]], top=0)},
         "bad lattice member: lattice size True must be a positive integer"),
        (("gamma",), {"lattice": dict(BOOLEAN_2, meet=[[False] * 4] * 4)},
         "bad lattice member: meet table entry False out of range"),
        # a fixture is a problem document; the file may not replace its lattice
        (("gamma", "--fixture", "bh2"), {"lattice": BOOLEAN_2},
         "the problem file and --fixture both provide a lattice"),
        (("gamma", "--fixture", "block_1_2"), {"blocks": [2]},
         "the problem file and --fixture both provide a lattice"),
        (("gamma", "--fixture", "nonesuch"), None, "unknown fixture 'nonesuch'"),
        (("gamma", "--fixture", "chain9"), None, "chain length 9 outside bundled range [2, 8]"),
        (("gamma", "--fixture", "block_0"), None, "block dimension 0 must be a positive integer"),
        # limits, a block fixture's among them
        (("gamma",), {"lattice": lattice_to_dict(chain_lattice(13))}, "lattice size 13 exceeds the limit 12"),
        (("gamma",), {"blocks": [1, 1, 1, 1]}, "ideal lattice size 16 exceeds the limit 12"),
        (("gamma", "--fixture", "block_1_1_1_1_1_1_1"), None, "ideal lattice size 128 exceeds the limit 12"),
        (("gamma",), {"blocks": [1] * 20000}, "ideal lattice size over 2^64 exceeds the limit 12"),
        (("gamma",), {"blocks": [10 ** 4000]}, "algebra dimension over 2^64 exceeds the per-point limit 32"),
        (("gamma", "--fixture", "block_30"), None, "algebra dimension 900 exceeds the per-point limit 32"),
        (("gamma",), {"blocks": [1], "points": 5}, "points = 5 exceeds the limit 4"),
        (("gamma", "--fixture", "bh2"), {"points": 5}, "points = 5 exceeds the limit 4"),
        (("gamma",), {"blocks": [0]}, "bad blocks member: block dimension 0 must be a positive integer"),
        # members that need a lattice, points or the right length
        (("theta",), {"points": 1, "family": [[0]]}, "family requires a lattice and points"),
        (("theta",), {"lattice": BOOLEAN_2, "points": 1, "family": [[0]]},
         "bad family member: family must list one subset per lattice index"),
        (("normalizer",), {"points": 1, "ideal": [0]}, "ideal requires a lattice and points"),
        (("normalizer",), {"blocks": [1, 1], "points": 2, "ideal": [0]},
         "ideal must list one stalk index per point"),
        (("ideal-from-y",), {"blocks": [2], "Y": [0]}, "Y requires points"),
        (("ideal-from-y",), {"blocks": [2], "points": 1, "Y": [0], "ideal_index": 2},
         "ideal_index 2 out of range"),
        (("validate",), b"[1, 2]", "problem file must contain a JSON object"),
        (("validate",), b"{", "malformed JSON at line 1 column 2: "
         "Expecting property name enclosed in double quotes"),
        (("validate", "no/such/problem.json"), None,
         "cannot read no/such/problem.json: No such file or directory"),
        # a command missing what it reads
        (("theta",), {"lattice": BOOLEAN_2}, "this command needs a family member"),
        (("cqp",), {"lattice": BOOLEAN_2, "points": 1},
         "this command needs a concrete block algebra (blocks member or fixture)"),
        (("theta", "--fixture", "bh2"), {"points": 3}, "this command needs a family member"),
        # a family whose top is not X, or that is not compatible
        (("compat",), {"lattice": BOOLEAN_2, "points": 1, "family": [[], [], [], []]},
         "family must assign the full point set to the top index"),
        (("theta",), {"lattice": BOOLEAN_2, "points": 1, "family": [[0], [], [], [0]]},
         "family is not compatible with the lattice"),
        (("decompose",), {"lattice": BOOLEAN_2, "points": 1, "family": [[0], [], [], [0]]},
         "family is not compatible with the lattice"),
        # scalars JSON can write that are not exact rationals
        (("sandwich",), _one_entry(0.5), "scalar entry 0.5 is not exact; use a rational string"),
        (("sandwich",), _one_entry(True), "scalar entry True is not a number"),
        (("sandwich",), _one_entry({}), "scalar entry {} has unsupported type"),
    ],
    ids=["huge-block", "bool-points", "lattice-not-object", "meet-not-list",
         "subspace-row-not-list", "bool-point", "bool-stalk", "family-top-not-X",
         "subspace-bad-literal", "subspace-zero-denominator", "subspace-empty-entry",
         "subspace-exponent", "subspace-exponent-in-i-part", "subspace-short-row",
         "not-utf8", "int-too-long", "nested-too-deep", "lattice-not-block-numbered",
         "bool-bottom-top", "bool-top", "bool-size", "bool-table-entry",
         "fixture-and-lattice", "fixture-and-blocks", "unknown-fixture", "chain-out-of-range",
         "zero-block-fixture", "lattice-size", "ideal-lattice-size", "ideal-lattice-size-fixture",
         "ideal-lattice-size-huge", "algebra-dimension-huge", "algebra-dimension-fixture",
         "points-limit", "points-limit-fixture", "zero-block",
         "family-without-lattice", "family-wrong-length", "ideal-without-lattice", "ideal-short",
         "Y-without-points", "ideal-index-out-of-range", "not-an-object", "malformed-json",
         "unreadable-file", "needs-family", "needs-algebra", "fixture-family-at-other-points",
         "compat-top-not-X", "theta-incompatible", "decompose-incompatible",
         "scalar-float", "scalar-bool", "scalar-object"],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, doc, message):
    code, out, err = run_cli(tmp_path, capsys, argv, doc)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_unknown_command_exits_2_with_usage(capsys):
    assert main(["nonesuch"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'nonesuch'" in err


def test_over_limit_block_fixture_fails_before_building_anything(capsys, monkeypatch):
    """Every ideal-lattice enumeration builds block_ideal_subspace; the limit
    must stop the run first."""
    def refuse(spec, mask):
        raise AssertionError("an ideal was built before the limits were checked")

    monkeypatch.setattr(fdalgebra, "block_ideal_subspace", refuse)
    assert main(["gamma", "--fixture", "block_9_9_9_9_9_9"]) == 2
    assert capsys.readouterr() == ("", "error: ideal lattice size 64 exceeds the limit 12\n")


def test_fixture_is_a_problem_document_under_the_file(tmp_path, capsys):
    """A missing or null points falls back to the fixture's count, and the
    bundled family applies only at the bundled point count."""
    alone = run_cli(tmp_path, capsys, ["theta", "--fixture", "bh2"], None)
    assert alone[0] == 0 and alone[1].count("stalk[") == 4 and alone[2] == ""
    for doc in ({}, {"points": None}, {"points": 4}):
        assert run_cli(tmp_path, capsys, ["theta", "--fixture", "bh2"], doc) == alone
    family = [[0]] * 8 + [[0, 1, 2]]
    code, out, _ = run_cli(tmp_path, capsys, ["theta", "--fixture", "bh2"], {"points": 3, "family": family})
    assert code == 0 and out.count("stalk[") == 3
    # chain fixtures default to 2 points; the printed name is canonical
    code, out, _ = run_cli(tmp_path, capsys, ["verify-fin-sum", "--fixture", "chain08"], {"points": None})
    assert code == 0 and out.splitlines()[0] == "PASS chain8 0 evaluate-equals-theta"
    assert out.splitlines()[-1] == "64/64 families PASS"  # a level in 8 per point


@pytest.mark.parametrize(
    "doc, code, out",
    [
        ({"lattice": BOOLEAN_2}, 0, "ok\n"),
        ({"lattice": dict(BOOLEAN_2, meet=[[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 2, 2], [0, 1, 2, 3]])},
         1, "FAIL meet commutativity violated at (1,2)\n"),
    ],
    ids=["lattice", "not-commutative"],
)
def test_validate_reports_the_first_violation(tmp_path, capsys, doc, code, out):
    assert run_cli(tmp_path, capsys, ["validate"], doc) == (code, out, "")


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["pairwise", "exhaustive"])
@pytest.mark.parametrize(
    "family, code, out",
    [([[], [0], [], [0]], 0, "compatible\n"), ([[0], [], [], [0]], 1, "incompatible\n")],
    ids=["compatible", "incompatible"],
)
def test_compat_in_both_modes(tmp_path, capsys, oracle, family, code, out):
    doc = {"lattice": BOOLEAN_2, "points": 1, "family": family}
    assert run_cli(tmp_path, capsys, ["compat"] + oracle, doc) == (code, out, "")


def test_integral_float_scalars_read_as_integers(tmp_path, capsys):
    rows = [[1, 0, 0, -1], [0, 1, 0, 0]]
    floats = [[float(v) for v in row] for row in rows]
    ints = run_cli(tmp_path, capsys, ["sandwich"], {"blocks": [2], "points": 1, "subspace": rows})
    assert ints[0] == 0
    assert run_cli(tmp_path, capsys, ["sandwich"], {"blocks": [2], "points": 1, "subspace": floats}) == ints


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that stops after one line, as `| head -1` does, closes the
    pipe while the 600 kB report is still being written."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "fnideals.cli", "verify-fin-sum", "--fixture", "bh2", "--bound", "36"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
    )
    assert proc.stdout.readline() == b"PASS bh2 0 evaluate-equals-theta\n"
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, b"")


def test_cli_start_up_imports_no_heavy_modules():
    """`python -S` skips the .pth hooks of site-packages, which may preload some
    of these: what is left is what `fnideals.cli` itself imports."""
    heavy = ("dataclasses", "inspect", "importlib.resources", "typing")
    code = f"import sys, fnideals.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


# sl_2 at point 0 and all of M_2 at point 1 (a Lie ideal); e_12 at point 0 alone (not one)
SL2_THEN_M2 = [[1, 0, 0, -1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]] + [
    [int(c == k) for c in range(8)] for k in range(4, 8)
]
E12_AT_0 = [[0, 1, 0, 0, 0, 0, 0, 0]]


@pytest.mark.parametrize("rows, verdict", [(SL2_THEN_M2, "true"), (E12_AT_0, "false")])
@pytest.mark.parametrize("scale", ["i", "1/2-3/2 i", "-2+i"])
def test_sandwich_on_gaussian_rows_matches_the_real_rows(tmp_path, capsys, rows, verdict, scale):
    """Rows scaled by a non-real scalar span the same subspace, so the Gaussian
    path must print the real rows' report."""
    re, im = _parse_scalar(scale)
    doc = {"blocks": [2], "points": 2, "subspace": rows}
    code, real_out, _ = run_cli(tmp_path, capsys, ["sandwich"], doc)
    assert code == 0 and f"lie-ideal: {verdict}" in real_out.splitlines()
    doc["subspace"] = [[gaussian_text(re * v, im * v) for v in row] for row in rows]
    assert any(" i" in v for row in doc["subspace"] for v in row)
    assert run_cli(tmp_path, capsys, ["sandwich"], doc) == (code, real_out, "")


# ---------------------------------------------------------------------------
# non-real sandwich input against rank tests over Q(i)
# ---------------------------------------------------------------------------

def gaussian_rank(rows, dim) -> int:
    """Rank over Q(i) of rows of (re, im) pairs, in sympy's Gaussian-rational domain."""
    if not rows:
        return 0
    entries = [[QQ_I(QQ.convert(re), QQ.convert(im)) for re, im in row] for row in rows]
    return DomainMatrix(entries, (len(rows), dim), QQ_I).rank()


def bracket_rows(alg, rows) -> list:
    """[v, e_b] for each row v of (re, im) pairs and each basis element e_b,
    from dense products of function elements; B is real, so halfwise."""
    out = []
    for v in rows:
        re_rows, im_rows = (dense_brackets(alg, half) for half in zip(*v))
        out.extend(list(zip(re, im)) for re, im in zip(re_rows, im_rows))
    return out


def oracle_sandwich_report(alg, rows) -> tuple:
    """(exit, stdout) of `sandwich` on L = span(rows) over Q(i): L is a Lie ideal
    iff rank(L + [L, B]) = rank L; the witness is the first ideal J in stalk
    order with span[J, B] <= L and [L, B] <= J."""
    dim = alg.dim
    rank_l = gaussian_rank(rows, dim)
    l_brackets = bracket_rows(alg, rows)
    lie = gaussian_rank(rows + l_brackets, dim) == rank_l
    witness = None
    for ideal in enumerate_all_ideals(alg, verify=False):
        ideal_rows = []
        for i in range(dim):
            x, b, _, _ = alg.coord_info(i)
            if ideal.stalks[x] >> b & 1:
                ideal_rows.append([(int(c == i), 0) for c in range(dim)])
        rank_j = gaussian_rank(ideal_rows, dim)
        if (gaussian_rank(rows + bracket_rows(alg, ideal_rows), dim) == rank_l
                and gaussian_rank(ideal_rows + l_brackets, dim) == rank_j):
            witness = ideal
            break
    consistent = lie == (witness is not None)
    shown = "none" if witness is None else "(" + ",".join(str(s + 1) for s in witness.stalks) + ")"
    out = (f"lie-ideal: {'true' if lie else 'false'}\nwitness: {shown}\n"
           f"{'PASS' if consistent else 'FAIL'} sandwich-consistency\n")
    return (0 if consistent else 1), out


def gaussian_combination(rng, basis, dim) -> list:
    """A random combination of real rows with coefficients in {-2..2} + {-1..1} i."""
    row = [(0, 0)] * dim
    for u in basis:
        a, b = rng.randint(-2, 2), rng.randint(-1, 1)
        row = [(re + a * x, im + b * x) for (re, im), x in zip(row, u)]
    return row


def random_sandwich_rows(alg, rng, ideals) -> list:
    """Rows between the bounds of a random ideal J (span[J, B], each row scaled
    by a nonzero Gaussian, plus Gaussian combinations of N(J)), or free rows."""
    dim = alg.dim
    if rng.random() < 0.6:
        ideal = rng.choice(ideals)
        rows = []
        for u in commutator_ideal_span(alg, ideal).basis:
            a, b = rng.choice([(1, 1), (0, 1), (2, -1), (-1, 0)])
            rows.append([(a * x, b * x) for x in u])
        upper = lie_normalizer(alg, ideal).basis
        rows += [gaussian_combination(rng, upper, dim) for _ in range(rng.randint(1, 2))]
        return rows
    return [
        [(rng.randint(-1, 1), rng.randint(-1, 1)) if rng.random() < 0.4 else (0, 0) for _ in range(dim)]
        for _ in range(rng.randint(1, 3))
    ]


@pytest.mark.parametrize("blocks, points", [([2], 1), ([1, 2], 1), ([2], 2), ([1, 1], 2)])
def test_sandwich_on_non_real_rows_matches_rank_tests_over_gaussian_rationals(
    tmp_path, capsys, blocks, points
):
    alg = function_algebra.function_algebra(AlgebraSpec(tuple(blocks)), points)
    ideals = enumerate_all_ideals(alg, verify=False)
    rng = random.Random(1904 + len(blocks) * 10 + points)
    verdicts = set()
    for _ in range(16):
        rows = random_sandwich_rows(alg, rng, ideals)
        doc = {"blocks": blocks, "points": points,
               "subspace": [[gaussian_text(re, im) for re, im in row] for row in rows]}
        code, out, err = run_cli(tmp_path, capsys, ["sandwich"], doc)
        assert (code, out, err) == (*oracle_sandwich_report(alg, rows), ""), doc
        verdicts.add(out.splitlines()[0])
    # every subspace of a commutative B is a Lie ideal
    assert verdicts == {"lie-ideal: true"} | ({"lie-ideal: false"} if max(blocks) > 1 else set())


CENTRE_0_PLUS_I_CENTRE_1 = [[1, 0, 0, 1, "i", 0, 0, "i"]]
BB_ON_2X2 = [
    [0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0], [1, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 0, 0, -1],
]


@pytest.mark.parametrize(
    "doc, verdict, witness",
    [
        # span{(1, i)} of the centre plus [B, B]: a Lie ideal no real rows span
        ({"blocks": [2], "points": 2, "subspace": CENTRE_0_PLUS_I_CENTRE_1 + BB_ON_2X2},
         "true", "(2,2)"),
        # e12 at point 0 plus i e12 at point 1
        ({"blocks": [2], "points": 2, "subspace": [[0, 1, 0, 0, 0, "i", 0, 0]]}, "false", "none"),
        # B = A^X is the zero algebra
        ({"blocks": [2], "points": 0, "subspace": []}, "true", "()"),
        ({"blocks": [2], "points": 0, "subspace": [[]]}, "true", "()"),
    ],
    ids=["centre-line-plus-commutators", "e12-plus-i-e12", "zero-points", "zero-points-empty-row"],
)
def test_sandwich_fixed_non_real_and_empty_cases(tmp_path, capsys, doc, verdict, witness):
    code, out, err = run_cli(tmp_path, capsys, ["sandwich"], doc)
    assert (code, err) == (0, "")
    assert out == f"lie-ideal: {verdict}\nwitness: {witness}\nPASS sandwich-consistency\n"


# stalks (1, 3) as a family, and e12 of the M_2 block at point 0
BLOCKS_1_2_X2 = {
    "blocks": [1, 2], "points": 2, "family": [[], [0], [], [0, 1]], "ideal": [1, 3],
    "Y": [0], "ideal_index": 2, "subspace": [[0, 0, 1, 0, 0, 0, 0, 0, 0, 0]],
}


@pytest.mark.parametrize(
    "command",
    ["theta", "recover", "decompose", "ideal-from-y", "normalizer", "sandwich", "cqp", "verify-all"],
)
def test_block_lattice_member_changes_no_output(tmp_path, capsys, command):
    alone = run_cli(tmp_path, capsys, [command], BLOCKS_1_2_X2)
    assert alone[0] == 0 and alone[1] and alone[2] == ""
    lattice = lattice_to_dict(enumerate_ideals(AlgebraSpec((1, 2))))
    assert run_cli(tmp_path, capsys, [command], dict(BLOCKS_1_2_X2, lattice=lattice)) == alone


def test_verify_all_bound_skips_bijection_count(tmp_path, capsys):
    argv = ["verify-all", "--bound", "1"]
    code, out, _ = run_cli(tmp_path, capsys, argv, {"blocks": [1, 1], "points": 2})
    lines = out.splitlines()
    assert code == 0
    assert "SKIP bijection-count (enumeration bound)" in lines
    assert not any(line.startswith("PASS bijection-count") for line in lines)


def test_verify_all_reports_a_vacuous_outside_check_and_passes(tmp_path, capsys):
    """[1,1,1] is commutative, so every interval is [0, B]: no subspace lies
    outside every bound, and the line says so instead of a bare PASS."""
    code, out, _ = run_cli(tmp_path, capsys, ["verify-all"], {"blocks": [1, 1, 1], "points": 2})
    lines = out.splitlines()
    assert code == 0
    assert "VACUOUS sandwich-outside-bounds (every subspace lies in [0, B])" in lines
    assert "PASS sandwich-between-bounds (1280 subspaces, 0 discrepancies)" in lines
    assert lines[-1] == "verify-all: PASS"


def test_options_may_come_before_or_after_the_problem_file(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"blocks": [1, 2], "points": 2}))
    runs = []
    for argv in (["cqp", str(path), "--seed", "1"], ["cqp", "--seed", "1", str(path)]):
        runs.append((main(argv), *capsys.readouterr()))
    assert runs[0][0] == 0 and "cqp: true" in runs[0][1].splitlines()
    assert runs[1] == runs[0]


def test_normalizer_reports_precondition_on_two_blocks(tmp_path, capsys):
    doc = {"blocks": [1, 1], "points": 1, "ideal": [0]}
    code, out, _ = run_cli(tmp_path, capsys, ["normalizer"], doc)
    assert code == 0
    assert out == (
        "dim N(J) = 2\n"
        "PRECONDITION normalizer-decomposition (algebra has 2 blocks; a unique maximal ideal needs 1)\n"
    )


# ---------------------------------------------------------------------------
# negative controls: a corrupted normalizer FAILs both normalizer identities
# ---------------------------------------------------------------------------

def test_verify_all_fails_on_corrupted_normalizer(tmp_path, capsys, corrupt_normalizer):
    code, out, _ = run_cli(tmp_path, capsys, ["verify-all"], {"blocks": [2], "points": 1})
    lines = out.splitlines()
    assert code == 1
    assert "FAIL normalizer-decomposition" in lines
    assert "FAIL cqp" in lines
    assert lines[-1] == "verify-all: FAIL"


def test_normalizer_fails_on_corrupted_normalizer(tmp_path, capsys, corrupt_normalizer):
    doc = {"blocks": [2], "points": 1, "ideal": [0]}
    code, out, _ = run_cli(tmp_path, capsys, ["normalizer"], doc)
    assert code == 1
    assert out.splitlines()[-1].startswith("FAIL normalizer-decomposition"), out


# ---------------------------------------------------------------------------
# negative controls: seeded faults FAIL the lattice-side lines
# ---------------------------------------------------------------------------

def test_ideal_from_y_fails_on_product_dropping_the_last_point(tmp_path, capsys, monkeypatch):
    product = function_algebra.product_subspace

    def corrupted(alg, y_mask, c):
        return product(alg, y_mask | 1 << (alg.points - 1), c)

    monkeypatch.setattr(function_algebra, "product_subspace", corrupted)
    doc = {"blocks": [2], "points": 2, "Y": [0], "ideal_index": 0}
    code, out, _ = run_cli(tmp_path, capsys, ["ideal-from-y"], doc)
    assert code == 1
    assert out.splitlines()[-1] == "FAIL product-sum-equality"
    code, out, _ = run_cli(tmp_path, capsys, ["verify-all"], {"blocks": [2], "points": 1})
    assert code == 1
    assert "FAIL ideal-from-y-sweep" in out.splitlines()


def _top_at_last_point(ideal):
    """The pointwise ideal with its stalk at the last point moved to the top."""
    stalks = ideal.stalks[:-1] + (ideal.lattice.top,)
    return PointwiseIdeal(ideal.lattice, stalks)


@pytest.mark.parametrize(
    "name, fault, failed",
    [
        ("evaluate", lambda f: lambda dec: _top_at_last_point(f(dec)), ["fin-sum"]),
        (
            # the unchecked builder behind theta, which verify_theorem calls
            "_theta",
            lambda f: lambda family: _top_at_last_point(f(family)),
            ["fin-sum", "bijection-count", "theta-recover-roundtrip"],
        ),
        (
            "recover_S",
            lambda f: lambda ideal: f(_top_at_last_point(ideal)),
            ["fin-sum", "bijection-count", "theta-recover-roundtrip"],
        ),
    ],
)
def test_verify_all_fails_on_lattice_side_faults(tmp_path, capsys, monkeypatch, name, fault, failed):
    original = getattr(decomposition, name)
    for module in (function_algebra, decomposition, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, fault(original))
    doc = {"blocks": [1, 1], "points": 2, "family": [[0, 1], [0, 1], [0, 1], [0, 1]]}
    code, out, _ = run_cli(tmp_path, capsys, ["verify-all"], doc)
    lines = out.splitlines()
    assert code == 1
    for check in failed:
        assert any(line.startswith(f"FAIL {check}") for line in lines), (check, out)



def test_incompatible_enumerated_family_fails_without_a_traceback(tmp_path, capsys, drop_meet_trigger):
    doc = {"lattice": BOOLEAN_2, "points": 1}
    code, out, err = run_cli(tmp_path, capsys, ["verify-all"], doc)
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "FAIL fin-sum (5 families)",
        "FAIL compat-oracle-agreement",
        "verify-all: FAIL",
    ]
    code, out, err = run_cli(tmp_path, capsys, ["verify-fin-sum"], doc)
    assert (code, err) == (1, "")
    assert "FAIL problem 3 family-compatible" in out.splitlines()
    assert out.splitlines()[-1] == "4/5 families PASS"


# ---------------------------------------------------------------------------
# output is byte-identical to the benchmark's recorded goldens
# ---------------------------------------------------------------------------

def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up by name
    spec.loader.exec_module(module)
    return module


def _golden_cases():
    queries = json.loads((BENCH_DIR / "queries.json").read_text())
    # Variant /0 of each query group, and every variant of the sandwich,
    # normalizer, ideal-from-y, recover, theta and decompose groups.
    every_variant = (
        "sandwich-lie/", "sandwich-span/", "normalizer/",
        "ideal-from-y/", "recover/", "theta/", "decompose/",
    )
    cases = [
        (q["id"], q["argv"], q["doc"])
        for q in queries
        if q["id"].endswith("/0") or q["group"].startswith(every_variant)
    ]
    # Every other recorded case: verify-all on the single- and multi-block
    # paths, fixture and lattice-member family sweeps, and the fixture list.
    workloads = _bench_workloads()
    others = workloads.suite_cases(0) + workloads.sweep_cases() + [workloads.setup_case()]
    cases += [(case.id, case.argv, case.doc) for case in others]
    return [pytest.param(*case, id=case[0]) for case in cases]


GOLDENS = json.loads((BENCH_DIR / "goldens.json").read_text())


@pytest.mark.parametrize("case_id, argv, doc", _golden_cases())
def test_output_matches_recorded_golden(tmp_path, capsys, case_id, argv, doc):
    code, out, _ = run_cli(tmp_path, capsys, argv, doc)
    stdout = out.encode()
    assert {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)} == GOLDENS[case_id]
