"""The CLI's input boundary and its byte-identical output on recorded cases."""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from fnideals import cli, decomposition
from fnideals.cli import main
from fnideals.function_algebra import PointwiseIdeal
from fnideals.linalg import Scalar

# The package re-exports a function of the same name over the module.
function_algebra = importlib.import_module("fnideals.function_algebra")

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def run_cli(tmp_path, capsys, argv, doc):
    """main(argv) with doc written to a problem file, as the shell runs it."""
    argv = list(argv)
    if doc is not None:
        path = tmp_path / "problem.json"
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


@pytest.mark.parametrize(
    "argv, doc",
    [
        # limits are checked before the ideal lattice is enumerated
        (("validate",), {"blocks": [1000000]}),
        (("verify-all",), {"blocks": [2], "points": True}),
        (("validate",), {"lattice": 5}),
        (("validate",), {"lattice": dict(BOOLEAN_2, meet=5)}),
        (("sandwich",), {"blocks": [2], "points": 1, "subspace": [5]}),
        (("ideal-from-y",), {"blocks": [1, 1], "points": 2, "Y": [True], "ideal_index": 1}),
        (("normalizer",), {"blocks": [1, 1], "points": 1, "ideal": [True]}),
        # the top index must carry the whole point set
        (("verify-all",), {"blocks": [1, 1], "points": 2, "family": [[], [0], [1], [0]]}),
    ],
    ids=["huge-block", "bool-points", "lattice-not-object", "meet-not-list",
         "subspace-row-not-list", "bool-point", "bool-stalk", "family-top-not-X"],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, doc):
    code, out, err = run_cli(tmp_path, capsys, argv, doc)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


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
    c = Scalar.parse(scale)
    doc = {"blocks": [2], "points": 2, "subspace": rows}
    code, real_out, _ = run_cli(tmp_path, capsys, ["sandwich"], doc)
    assert code == 0 and f"lie-ideal: {verdict}" in real_out.splitlines()
    doc["subspace"] = [[str(c * v) for v in row] for row in rows]
    assert any(" i" in v for row in doc["subspace"] for v in row)
    assert run_cli(tmp_path, capsys, ["sandwich"], doc) == (code, real_out, "")


def test_verify_all_bound_skips_bijection_count(tmp_path, capsys):
    argv = ["verify-all", "--bound", "1"]
    code, out, _ = run_cli(tmp_path, capsys, argv, {"blocks": [1, 1], "points": 2})
    lines = out.splitlines()
    assert code == 0
    assert "SKIP bijection-count (enumeration bound)" in lines
    assert not any(line.startswith("PASS bijection-count") for line in lines)


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
        return product(alg, y_mask | 1 << (alg.space.point_count - 1), c)

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
    return PointwiseIdeal(ideal.lattice, ideal.space, stalks)


@pytest.mark.parametrize(
    "name, fault, failed",
    [
        ("evaluate", lambda f: lambda dec: _top_at_last_point(f(dec)), ["fin-sum"]),
        (
            "theta",
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


# ---------------------------------------------------------------------------
# output is byte-identical to the benchmark's recorded goldens
# ---------------------------------------------------------------------------

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
    # The benchmark's verify-suite problems on the single- and multi-block paths.
    for blocks, points in (([3], 2), ([2, 2], 2)):
        case_id = "verify-suite/blocks_" + "_".join(map(str, blocks)) + f"x{points}"
        cases.append((case_id, ["verify-all", "--seed", "0"], {"blocks": blocks, "points": points}))
    return [pytest.param(*case, id=case[0]) for case in cases]


GOLDENS = json.loads((BENCH_DIR / "goldens.json").read_text())


@pytest.mark.parametrize("case_id, argv, doc", _golden_cases())
def test_output_matches_recorded_golden(tmp_path, capsys, case_id, argv, doc):
    code, out, _ = run_cli(tmp_path, capsys, argv, doc)
    stdout = out.encode()
    assert {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)} == GOLDENS[case_id]
