"""The CLI's input boundary and its byte-identical output on recorded cases."""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from fnideals import cli, decomposition, fdalgebra, lie
from fnideals.cli import _parse_scalar, main
from fnideals.fdalgebra import AlgebraSpec, enumerate_ideals
from fnideals.function_algebra import PointwiseIdeal, enumerate_all_ideals
from fnideals.lie import commutator_ideal_span, lie_normalizer
from fnideals.linalg import Subspace, rref
from conftest import drop_last_normalizer_row
from oracles import (
    argparse_parse,
    chain_lattice,
    dense_brackets,
    flat_coords,
    gaussian_text,
    lattice_to_dict,
)

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
# meet(1, 2) = 0 but meet(2, 1) = 1
NOT_COMMUTATIVE = dict(BOOLEAN_2, meet=[[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 2, 2], [0, 1, 2, 3]])


# the same lattice listed as [bottom, top, {block 0}, {block 1}]
BOOLEAN_2_RELABELED = {
    "size": 4,
    "meet": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 0], [0, 3, 0, 3]],
    "join": [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 2, 1], [3, 1, 1, 3]],
    "bottom": 0,
    "top": 1,
}


# an over-limit size with one-row tables: the limit is read before the tables
SIZE_13 = {"size": 13, "meet": [[0]], "join": [[0]], "bottom": 0, "top": 0}


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
         "bad lattice member: meet table must be a JSON list of lists"),
        (("validate",), {"lattice": dict(BOOLEAN_2, meet="ab")},
         "bad lattice member: meet table must be a JSON list of lists"),
        (("validate",), {"lattice": dict(BOOLEAN_2, join=dict(enumerate(BOOLEAN_2["join"])))},
         "bad lattice member: join table must be a JSON list of lists"),
        (("validate",), {"lattice": dict(BOOLEAN_2, meet=[[0, 0, 0, 0], "0101", [0, 0, 2, 2], [0, 1, 2, 3]])},
         "bad lattice member: meet table must be a JSON list of lists"),
        (("sandwich",), {"blocks": [2], "points": 1, "subspace": [5]},
         "bad subspace member: each subspace row must be a JSON list"),
        (("ideal-from-y",), {"blocks": [1, 1], "points": 2, "Y": [True], "ideal_index": 1},
         "bad Y member: point True out of range [0, 2)"),
        (("normalizer",), {"blocks": [1, 1], "points": 1, "ideal": [True]},
         "bad ideal member: stalk index True out of range"),
        # the top index must carry the whole point set, for every command
        (("verify-all",), {"blocks": [1, 1], "points": 2, "family": [[], [0], [1], [0]]},
         "bad family member: family must assign the full point set to the top index"),
        (("gamma",), {"blocks": [1, 1], "points": 2, "family": [[], [0], [1], [0]]},
         "bad family member: family must assign the full point set to the top index"),
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
         "bad ideal member: ideal must list one stalk index per point"),
        (("ideal-from-y",), {"blocks": [2], "Y": [0]}, "Y requires points"),
        (("ideal-from-y",), {"blocks": [2], "points": 1, "Y": [0], "ideal_index": 2},
         "bad ideal_index member: ideal_index 2 out of range"),
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
         "bad family member: family must assign the full point set to the top index"),
        (("theta",), {"lattice": BOOLEAN_2, "points": 1, "family": [[0], [], [], [0]]},
         "family is not compatible with the lattice"),
        (("decompose",), {"lattice": BOOLEAN_2, "points": 1, "family": [[0], [], [], [0]]},
         "family is not compatible with the lattice"),
        # scalars JSON can write that are not exact rationals
        (("sandwich",), _one_entry(0.5), "scalar entry 0.5 is not exact; use a rational string"),
        (("sandwich",), _one_entry(True), "scalar entry True is not a number"),
        (("sandwich",), _one_entry({}), "scalar entry {} has unsupported type"),
        # blocks, Y, family and each family entry must be JSON lists, not read
        # character by character or key by key
        (("gamma",), {"blocks": 5}, "bad blocks member: blocks must be a JSON list"),
        (("gamma",), {"blocks": "12"}, "bad blocks member: blocks must be a JSON list"),
        (("ideal-from-y",), {"blocks": [1, 1], "points": 2, "Y": None, "ideal_index": 1},
         "bad Y member: Y must be a JSON list"),
        (("ideal-from-y",), {"blocks": [1, 1], "points": 2, "Y": "0", "ideal_index": 1},
         "bad Y member: Y must be a JSON list"),
        (("ideal-from-y",), {"blocks": [1, 1], "points": 2, "Y": {"0": 1}, "ideal_index": 1},
         "bad Y member: Y must be a JSON list"),
        (("theta",), {"lattice": BOOLEAN_2, "points": 2, "family": "ab"},
         "bad family member: family must be a JSON list"),
        (("theta",), {"lattice": BOOLEAN_2, "points": 2, "family": [0, [0, 1]]},
         "bad family member: family entry 0 must be a JSON list"),
        (("theta",), {"lattice": BOOLEAN_2, "points": 2, "family": [[0], "1", [], [0, 1]]},
         "bad family member: family entry 1 must be a JSON list"),
        (("sandwich",), {"blocks": [2], "points": 1, "subspace": "x"},
         "bad subspace member: subspace must be a JSON list"),
        # the lattice limit is checked before the tables are read
        (("gamma",), {"lattice": SIZE_13}, "lattice size 13 exceeds the limit 12"),
        (("gamma",), {"lattice": dict(SIZE_13, size=10 ** 4000)},
         "lattice size over 2^64 exceeds the limit 12"),
        (("ideal-from-y",), {"ideal_index": 0}, "ideal_index requires a lattice"),
        # two bad members: the first in the order blocks, lattice, points, the
        # limits, the block lattice, family, ideal, Y, ideal_index, subspace
        (("gamma",), {"blocks": 5, "lattice": 5}, "bad blocks member: blocks must be a JSON list"),
        (("gamma",), {"lattice": 5, "points": -1}, "bad lattice member: lattice must be a JSON object"),
        (("gamma",), {"lattice": SIZE_13, "points": True}, "points must be a nonnegative integer, got True"),
        (("normalizer",), {"blocks": [1, 1], "points": 5, "ideal": [True]}, "points = 5 exceeds the limit 4"),
        (("theta",), {"blocks": [1, 2], "points": 2, "lattice": BOOLEAN_2_RELABELED, "family": "ab"},
         "lattice member must be the block lattice, indexed by block bitmask"),
        (("theta",), {"lattice": BOOLEAN_2, "points": 1, "family": "ab", "ideal": [True]},
         "bad family member: family must be a JSON list"),
        (("normalizer",), {"blocks": [1, 1], "points": 1, "ideal": [True], "Y": 3},
         "bad ideal member: stalk index True out of range"),
        (("ideal-from-y",), {"blocks": [2], "points": 1, "Y": [True], "ideal_index": 2},
         "bad Y member: point True out of range [0, 1)"),
        (("sandwich",), {"blocks": [2], "points": 1, "Y": [True], "subspace": [5]},
         "bad Y member: point True out of range [0, 1)"),
        (("sandwich",), {"blocks": [2], "points": 1, "ideal_index": 2, "subspace": [5]},
         "bad ideal_index member: ideal_index 2 out of range"),
    ],
    ids=["huge-block", "bool-points", "lattice-not-object", "meet-not-list", "meet-string",
         "join-object", "meet-row-string",
         "subspace-row-not-list", "bool-point", "bool-stalk", "family-top-not-X", "gamma-family-top-not-X",
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
         "scalar-float", "scalar-bool", "scalar-object", "blocks-int", "blocks-string",
         "Y-null", "Y-string", "Y-object", "family-string", "family-entry-int", "family-entry-string",
         "subspace-not-list", "lattice-size-before-tables", "lattice-size-huge-before-tables",
         "ideal-index-without-lattice", "blocks-before-lattice", "lattice-before-points",
         "points-before-limits", "limits-before-ideal", "block-lattice-before-family",
         "family-before-ideal", "ideal-before-Y", "Y-before-ideal-index", "Y-before-subspace",
         "ideal-index-before-subspace"],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, doc, message):
    code, out, err = run_cli(tmp_path, capsys, argv, doc)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


FUZZ_MEMBERS = ("points", "family", "ideal", "Y", "ideal_index", "subspace")


@st.composite
def fuzz_documents(draw, bad):
    """A small problem document: A is blocks [1], [2], [1,1] or [1,2], or a
    2-3 element chain, at 0-2 points.  Each optional member is valid or
    missing, except the member `bad` (None for none), which is malformed."""
    if draw(st.booleans()):
        spec = AlgebraSpec(draw(st.sampled_from([(1,), (2,), (1, 1), (1, 2)])))
        doc, lat, dim = {"blocks": list(spec.block_dims)}, enumerate_ideals(spec), spec.total_dim
    else:
        lat = chain_lattice(draw(st.integers(2, 3)))
        doc, dim = {"lattice": lattice_to_dict(lat)}, 1
    size = lat.size
    points = draw(st.integers(0, 2))
    stalks = draw(st.lists(st.integers(0, size - 1), min_size=points, max_size=points))
    entry = st.sampled_from([0, 1, -2, "1/2", "i", "2-i"])
    valid = {
        "points": points,
        "family": [[x for x in range(points) if lat.leq(stalks[x], i)] for i in range(size)],
        "ideal": stalks,
        "Y": sorted(draw(st.sets(st.integers(0, max(points - 1, 0)), max_size=points))),
        "ideal_index": draw(st.integers(0, size - 1)),
        "subspace": draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=2)),
    }
    malformed = {
        "points": [-1, True, "2", 5, 1.5],
        "family": ["x", [[0]], [[5]] * size, [[]] * size, [[True]] * size],
        "ideal": [[size] * points, [True] * points, [[0]] * points, "0", [0] * (points + 1)],
        "Y": [[points], 3, ["0"], [True], {"a": 1}],
        "ideal_index": [size, "0", True, -1, None, 1.5],
        "subspace": ["x", [[1, 2]] * (dim != 2), [["1e5"] + [0] * (dim - 1)], [[0.5] * dim],
                     [[{}] * dim], [["1/0"] * dim]],
    }
    for name, value in valid.items():
        if draw(st.sampled_from([True, True, True, False])):
            doc[name] = value
    if bad is not None:
        doc[bad] = draw(st.sampled_from(malformed[bad]))
    return doc


@pytest.mark.parametrize("bad", (None,) + FUZZ_MEMBERS)
@given(data=st.data())
@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_command_on_generated_documents_exits_0_1_or_2(tmp_path, capsys, bad, data):
    """No traceback on any small document, with no member or one member
    malformed: each command exits 0, 1 or 2, and exit 2 prints exactly one
    error line."""
    doc = data.draw(fuzz_documents(bad))
    for command in cli._COMMANDS:
        code, out, err = run_cli(tmp_path, capsys, [command], doc)
        assert code in (0, 1, 2), (command, doc)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (command, doc, err)
        else:
            assert err == "", (command, doc, err)


# Each command on documents that add one member at a time.  A string is the
# member a refusal names (exit 2, no stdout); a pair is the exit code and the
# first 16 hex digits of the sha256 of stdout, with nothing on stderr.
PINNED_DOCS = (
    {},
    {"blocks": [1, 2]},
    {"blocks": [1, 2], "points": 2},
    {"blocks": [1, 2], "points": 2, "Y": [0]},
)
_ALGEBRA = "a concrete block algebra (blocks member or fixture)"
_IDEAL = "an ideal member (stalk list)"
_FAMILY = "a family member"
PINNED_REPORTS = {
    "validate": ["a lattice", (0, "dc51b8c96c2d745d"), (0, "dc51b8c96c2d745d"), (0, "dc51b8c96c2d745d")],
    "compat": ["a lattice", _FAMILY, _FAMILY, _FAMILY],
    "gamma": ["a lattice", (0, "cb55145bcf090561"), (0, "cb55145bcf090561"), (0, "cb55145bcf090561")],
    "theta": [_FAMILY, _FAMILY, _FAMILY, _FAMILY],
    # the lattice is named before the ideal
    "recover": ["a lattice", _IDEAL, _IDEAL, _IDEAL],
    "decompose": [_FAMILY, _FAMILY, _FAMILY, _FAMILY],
    "verify-fin-sum": ["a lattice", "a points member", (0, "78206ffb067177e2"), (0, "78206ffb067177e2")],
    # blocks, then points, then Y, then ideal_index
    "ideal-from-y": [_ALGEBRA, "a points member", "a Y member", "an ideal_index member"],
    "normalizer": [_ALGEBRA, "a points member", _IDEAL, _IDEAL],
    "sandwich": [_ALGEBRA, "a points member", "a subspace member", "a subspace member"],
    "cqp": [_ALGEBRA, "a points member", (0, "151ce0b7381d6225"), (0, "151ce0b7381d6225")],
    "weak-central": [_ALGEBRA, "a points member", (0, "a781c3cb44e19496"), (0, "a781c3cb44e19496")],
    "verify-all": ["a lattice", "a points member", (0, "529f6898fff5e88c"), (0, "529f6898fff5e88c")],
    "fixtures": [(0, "df1525993e59b63d")] * 4,
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("at", range(len(PINNED_DOCS)))
def test_each_command_prints_its_pinned_report(tmp_path, capsys, command, at):
    code, out, err = run_cli(tmp_path, capsys, [command], PINNED_DOCS[at])
    expected = PINNED_REPORTS[command][at]
    if isinstance(expected, str):
        assert (code, out, err) == (2, "", f"error: this command needs {expected}\n")
    else:
        assert (code, hashlib.sha256(out.encode()).hexdigest()[:16], err) == (*expected, "")


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
        ({"lattice": NOT_COMMUTATIVE}, 1, "FAIL meet commutativity violated at (1,2)\n"),
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


@pytest.mark.parametrize("env_extra", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
def test_closed_stdout_on_a_failed_check_exits_1_without_a_traceback(env_extra):
    """`cqp` through cli.run() with a seeded AssertionError in check_cqp and
    stdout a pipe whose reader is already gone: the FAIL line is written,
    and flushed, where a closed stdout is caught, buffered or not."""
    code = (
        "import fnideals.cli as cli\n"
        "def seeded(alg):\n"
        "    raise AssertionError('seeded cqp fault')\n"
        "cli.check_cqp = seeded\n"
        "cli.run()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), **env_extra)
    if not env_extra:
        env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, "cqp", "--fixture", "block_1_2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _process_run(tmp_path, argv, doc):
    """`python -m fnideals.cli` with doc written as run_cli writes it and
    stdout sent to a file: (exit code, stdout bytes, stderr bytes)."""
    argv = list(argv)
    if doc is not None:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        argv.insert(1, str(path))
    out_path = tmp_path / "stdout.txt"
    with open(out_path, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "fnideals.cli", *argv], stdout=out, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)), timeout=60,
        )
    return proc.returncode, out_path.read_bytes(), proc.stderr


@pytest.mark.parametrize(
    "argv, doc, code",
    [
        (["verify-all"], {"blocks": [2], "points": 2}, 0),
        (["validate"], {"lattice": NOT_COMMUTATIVE}, 1),
        (["cqp"], {"blocks": [2], "points": 9}, 2),
        (["nonesuch"], None, 2),
    ],
    ids=["pass", "fail", "bad-input", "bad-command"],
)
def test_process_prints_what_main_prints(tmp_path, capsys, argv, doc, code):
    """run() ends the process with os._exit after main(): what reaches a file
    is byte for byte what main() prints in process, with the same exit code."""
    in_process = run_cli(tmp_path, capsys, argv, doc)
    assert in_process[0] == code
    assert (in_process[1] == "") == (code == 2)
    assert _process_run(tmp_path, argv, doc) == (code, in_process[1].encode(), in_process[2].encode())


def test_run_lets_an_exception_from_main_propagate():
    code = (
        "import fnideals.cli as cli\n"
        "def seeded():\n"
        "    raise RuntimeError('seeded main fault')\n"
        "cli.main = seeded\n"
        "cli.run()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith("RuntimeError: seeded main fault\n")


# ---------------------------------------------------------------------------
# the command line: an argparse parser built apart from cli is the oracle
# ---------------------------------------------------------------------------

ARGV_PIECES = [[name] for name in sorted(cli._COMMANDS)] + [
    ["p.json"], ["--fixture", "bh2"], ["--fix"], ["--seed", "3"], ["--seed=-1"], ["--seed", "-1"],
    ["--seed", "x"], ["--bound"], ["--oracle"], ["--minimal"], ["--"], ["-x"],
    ["--bound", "7"], ["q.json"], ["--fixture", "cqp"], [""], ["--fixture"],
]


def _parsed(argv):
    """cli.parse_args's namespace as a dict, or "help" or "refused" for the
    exit argparse takes after printing; what it prints is captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.parse_args(argv))
        except SystemExit as exc:
            return "help" if exc.code == 0 else "refused"


@given(pieces=st.lists(st.sampled_from(ARGV_PIECES), max_size=6))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_parser_agrees_with_argparse(pieces):
    argv = [token for piece in pieces for token in piece]
    assert _parsed(argv) == argparse_parse(argv)[0], argv


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["cqp"], {"problem": None, "fixture": None, "seed": 0, "bound": None, "oracle": False}),
        (["--seed", "-1", "cqp", "p.json", "--fix=bh2"],
         {"problem": "p.json", "fixture": "bh2", "seed": -1}),
        (["cqp", "--seed=-2", "--bo", "7", "p.json", "--orac", "--min"],
         {"problem": "p.json", "seed": -2, "bound": 7, "oracle": True, "minimal": True}),
        (["cqp", "--", "p.json"], {"problem": "p.json"}),
    ],
    ids=["defaults", "negative-value-and-prefix", "options-between", "separator"],
)
def test_parser_reads_options_anywhere(argv, expected):
    got = _parsed(argv)
    assert got["command"] == "cqp" and {k: got[k] for k in expected} == expected
    assert got == argparse_parse(argv)[0]


USAGE = f"""\
usage: fnideals [-h] [--fixture FIXTURE] [--oracle] [--minimal] [--seed SEED]
                [--bound BOUND]
                {{{",".join(sorted(cli._COMMANDS))}}}
                [problem]
"""


@pytest.mark.parametrize(
    "argv",
    [["nonesuch"], ["cqp", "p.json", "q.json", "-x"], ["cqp", "--fixture"],
     ["cqp", "--seed", "--oracle"], ["cqp", "--seed", "x"], ["cqp", "--bou=1.5"]],
    ids=["invalid-choice", "unrecognized", "expected-one", "option-as-value", "invalid-int", "invalid-int-prefix"],
)
def test_refused_command_line_prints_usage_and_argparse_message(capsys, argv):
    """main prints the usage and one error line, as the oracle parser prints
    them on the running interpreter, whose argparse words the message."""
    parsed, out, err = argparse_parse(argv)
    assert (parsed, out) == ("refused", "")
    assert err.startswith(f"{USAGE}fnideals: error: ") and err.count("\n") == USAGE.count("\n") + 1
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_goes_to_stdout_and_exits_0(capsys, flag):
    assert main(["cqp", "--seed", "x", flag]) == 2  # an earlier token is read first
    capsys.readouterr()
    assert main([flag, "nonesuch", "--seed", "x"]) == 0
    assert capsys.readouterr() == (USAGE + """
Exhaustive finite-model checks for ideal and Lie-ideal lattices of algebra-
valued function algebras.

positional arguments:
  {compat,cqp,decompose,fixtures,gamma,ideal-from-y,normalizer,recover,sandwich,theta,validate,verify-all,verify-fin-sum,weak-central}
  problem               JSON problem file

options:
  -h, --help            show this help message and exit
  --fixture FIXTURE     bundled fixture name (see the fixtures command)
  --oracle              exhaustive compatibility mode
  --minimal             drop zero decomposition terms
  --seed SEED           seed for random-subspace suites
  --bound BOUND         family enumeration bound
""", "")


def test_cli_start_up_imports_no_heavy_modules():
    """`python -S` skips the .pth hooks of site-packages, which may preload some
    of these: what is left is what `fnideals.cli` itself imports."""
    heavy = ("dataclasses", "inspect", "importlib.resources", "typing", "argparse", "gettext",
             "fractions", "decimal")
    code = f"import sys, fnideals.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_plain_command_lines_leave_argparse_unloaded(tmp_path):
    """Each argv shape the benchmark runs is plain: main reads it without
    importing argparse or gettext.  --seed=1 is not plain: it loads argparse
    and parses as --seed 1 does."""
    docs = {
        "algebra": {"blocks": [1], "points": 1},
        "family": {"lattice": lattice_to_dict(chain_lattice(2)), "points": 1, "family": [[], [0]]},
        "points": {"points": 1},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    shapes = [
        ["fixtures"], ["verify-all", "--seed", "1", paths["algebra"]], ["cqp", paths["algebra"]],
        ["decompose", paths["family"], "--minimal"],
        ["verify-fin-sum", "--fixture", "bh2", "--bound", "36", paths["points"]],
    ]
    code = (
        "import contextlib, io, sys\n"
        "import fnideals.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {shapes!r}]\n"
        "print(codes, [m for m in ('argparse', 'gettext') if m in sys.modules])\n"
        f"joined = vars(cli.parse_args(['cqp', {paths['algebra']!r}, '--seed=1']))\n"
        "print('argparse' in sys.modules)\n"
        f"print(joined == vars(cli.parse_args(['cqp', {paths['algebra']!r}, '--seed', '1'])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0, 0, 0, 0] []\nTrue\nTrue\n", "")


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
    coords = flat_coords(alg)
    for ideal in enumerate_all_ideals(alg, verify=False):
        ideal_rows = []
        for i, (x, b, _, _) in enumerate(coords):
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


def test_verify_all_on_the_zero_algebra(tmp_path, capsys):
    """With no points B is 0, so its one ideal's interval is [0, 0]: every
    draw is that interval's only subspace, and it is also [0, B]."""
    code, out, err = run_cli(tmp_path, capsys, ["verify-all"], {"blocks": [2], "points": 0})
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "PASS lattice-laws",
        "PASS fin-sum (1 families)",
        "PASS compat-oracle-agreement",
        "PASS bijection-count (1 = 1)",
        "PASS ideal-from-y-sweep",
        "PASS normalizer-decomposition",
        "PASS sandwich-between-bounds (20 subspaces, 0 discrepancies)",
        "VACUOUS sandwich-outside-bounds (every subspace lies in [0, B])",
        "PASS cqp",
        "PASS weak-central",
        "SKIP points=0 function algebra is the zero algebra",
        "verify-all: PASS",
    ]


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


def test_verify_all_fails_a_sandwich_interval_outside_its_normalizer(tmp_path, capsys, corrupt_normalizer):
    """With a row of N(J) dropped, span[J, B] leaves N(J) for some J on
    [2] x 2, and every draw of that interval is a discrepancy."""
    code, out, err = run_cli(tmp_path, capsys, ["verify-all", "--seed", "11"], {"blocks": [2], "points": 2})
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert "FAIL sandwich-between-bounds (80 subspaces, 40 discrepancies)" in lines
    assert lines[-1] == "verify-all: FAIL"


def test_verify_all_reports_outside_scan_draws_in_bounds_on_their_own_line(tmp_path, capsys, monkeypatch):
    """With every Lie ideal test and interval decision rejected, 7 of the
    outside scan's draws on
    [2] x 2 land in some interval and fail: they FAIL a line of their own,
    not the between-bounds count, and no line reports more discrepancies
    than the subspaces it counts."""
    monkeypatch.setattr(lie, "is_lie_ideal", lambda candidate: False)
    monkeypatch.setattr(lie._Interval, "decide", lambda interval, quotient: False)
    code, out, err = run_cli(tmp_path, capsys, ["verify-all", "--seed", "11"], {"blocks": [2], "points": 2})
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines[6:9] == [
        "FAIL sandwich-between-bounds (80 subspaces, 80 discrepancies)",
        "PASS sandwich-outside-bounds (20 subspaces, 0 discrepancies)",
        "FAIL sandwich-scan-between-bounds (7 subspaces, 7 discrepancies)",
    ]
    for line in lines:
        found = re.search(r"\((\d+) subspaces, (\d+) discrepancies\)", line)
        assert found is None or int(found[2]) <= int(found[1]), line
    assert lines[-1] == "verify-all: FAIL"


def test_normalizer_fails_on_corrupted_normalizer(tmp_path, capsys, corrupt_normalizer):
    doc = {"blocks": [2], "points": 1, "ideal": [0]}
    code, out, _ = run_cli(tmp_path, capsys, ["normalizer"], doc)
    assert code == 1
    assert out.splitlines()[-1].startswith("FAIL normalizer-decomposition"), out


# ---------------------------------------------------------------------------
# negative controls: each seeded fault FAILs exactly its verify-all lines
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


def _full_normalizer_at_mask_1(parts):
    """stalk_parts with N(I) = A for the ideal of block mask 1."""
    def faulted(spec):
        table = list(parts(spec))
        table[1] = (table[1][0], Subspace.full(spec.total_dim), table[1][2])
        return tuple(table)

    return faulted


WEAK_CENTRALITY = ("weak-centrality-equals-cqp-base", "weak-centrality-equals-cqp-function-algebra")


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
        (
            "lie.lie_normalizer",
            drop_last_normalizer_row,
            ["sandwich-between-bounds", "sandwich-outside-bounds", "cqp", *WEAK_CENTRALITY],
        ),
        # check_cqp on A only (inside cqp_transfer_check), then on B only
        ("lie.check_cqp", lambda f: lambda alg: (False, []),
         ["cqp-function-algebra-implies-base", "weak-centrality-equals-cqp-base"]),
        ("cli.check_cqp", lambda f: lambda alg: (False, []),
         ["cqp", "cqp-base-implies-function-algebra", "weak-centrality-equals-cqp-function-algebra"]),
        ("lie.maximal_ideals", lambda f: lambda alg: f(alg) + f(alg)[:1],
         ["weak-central", *WEAK_CENTRALITY]),
        # A known gap: A's and B's CQP verdicts read the same stalk_parts
        # entry, so the two CQP transfer lines stay PASS.
        ("lie.stalk_parts", _full_normalizer_at_mask_1,
         ["sandwich-between-bounds", "cqp", *WEAK_CENTRALITY]),
    ],
)
def test_verify_all_fails_on_lattice_side_faults(tmp_path, capsys, monkeypatch, name, fault, failed):
    """Each seeded fault turns exactly the listed verify-all lines FAIL on
    [1,2] x 2.  A dotted name patches that module's binding alone, a bare one
    every binding of decomposition's function."""
    home, _, name = name.rpartition(".")
    owner = importlib.import_module(f"fnideals.{home or 'decomposition'}")
    original = getattr(owner, name)
    for module in (owner,) if home else (function_algebra, decomposition, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, fault(original))
    doc = {"blocks": [1, 2], "points": 2, "family": [[0, 1], [0, 1], [0, 1], [0, 1]]}
    code, out, _ = run_cli(tmp_path, capsys, ["verify-all"], doc)
    lines = out.splitlines()
    assert code == 1
    for check in failed:
        assert any(line.startswith(f"FAIL {check}") for line in lines), (check, out)
    assert {line.split()[1] for line in lines if line.startswith("FAIL ")} == set(failed), out


# ---------------------------------------------------------------------------
# negative controls: a non-invariant ideal subspace FAILs without a traceback
# ---------------------------------------------------------------------------

def _e12_of_m2(points):
    """span(e12) at every point of M2^X: not a two-sided ideal."""
    return rref([[0, 1, 0, 0] * points], 4 * points)


def test_verify_all_fails_on_a_non_invariant_pointwise_ideal(tmp_path, capsys, monkeypatch):
    original = function_algebra.FunctionAlgebra.ideal_subspace

    def corrupted(alg, ideal):
        return _e12_of_m2(alg.points) if not any(ideal.stalks) else original(alg, ideal)

    monkeypatch.setattr(function_algebra.FunctionAlgebra, "ideal_subspace", corrupted)
    code, out, err = run_cli(tmp_path, capsys, ["verify-all"], {"blocks": [2], "points": 1})
    assert (code, out, err) == (1, "FAIL stalks (0,) give a non-invariant subspace\n", "")


@pytest.fixture
def fresh_block_ideals():
    """Empty the caches of A's block ideals, lattice and bracket parts before
    and after a test."""
    caches = (fdalgebra.enumerate_ideals, fdalgebra.block_ideal_subspace, lie.stalk_parts)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


@pytest.mark.parametrize("command", ["verify-all", "gamma", "cqp"])
def test_blocks_command_fails_on_a_non_invariant_block_ideal(
    tmp_path, capsys, monkeypatch, fresh_block_ideals, command
):
    original = fdalgebra.block_ideal_subspace

    def corrupted(spec, mask):
        return _e12_of_m2(1) if mask == 0 else original(spec, mask)

    monkeypatch.setattr(fdalgebra, "block_ideal_subspace", corrupted)
    code, out, err = run_cli(tmp_path, capsys, [command], {"blocks": [2], "points": 1})
    assert (code, out, err) == (1, "FAIL ideal mask 0 not two-sided invariant\n", "")


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
