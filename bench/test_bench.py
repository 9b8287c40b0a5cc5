"""Tests of the benchmark's own logic: goldens, statistics, spans, inputs.

    python -m pytest bench -q
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest

import run
import tracing
import workloads


def _output(exit_code, stdout):
    return {"exit": exit_code, "sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}


def _result(case_id, exit_code, stdout, wall_s=1.0):
    return run.Result(case_id, _output(exit_code, stdout), wall_s, 1.0, 10.0)


def test_golden_checker_flags_corrupt_stdout_and_wrong_exit():
    stdout = b"PASS lattice-laws\nverify-all: PASS\n"
    goldens = {"c": _output(0, stdout)}
    assert run.matches_golden(_result("c", 0, stdout), goldens)
    corrupted = bytearray(stdout)
    corrupted[3] ^= 0x01
    assert not run.matches_golden(_result("c", 0, bytes(corrupted)), goldens)
    assert not run.matches_golden(_result("c", 0, stdout + b"\n"), goldens)
    assert not run.matches_golden(_result("c", 1, stdout), goldens)
    assert not run.matches_golden(_result("unknown", 0, stdout), goldens)


@pytest.mark.parametrize(
    "values, q, expected",
    [
        (list(range(1, 11)), 0.5, 5),
        (list(range(1, 11)), 0.9, 9),
        ([3.0, 1.0, 2.0], 0.5, 2.0),
        ([3.0, 1.0, 2.0], 0.9, 3.0),
        ([7.5], 0.9, 7.5),
        (list(range(1, 103)), 0.9, 92),
    ],
)
def test_percentile_is_nearest_rank(values, q, expected):
    assert run.percentile(values, q) == expected


def test_latency_percentiles_use_each_invocations_median():
    passes = [
        ([_result("a", 0, b"", 1.0), _result("b", 0, b"", 5.0)], None),
        ([_result("a", 0, b"", 3.0), _result("b", 0, b"", 6.0)], None),
        ([_result("a", 0, b"", 2.0), _result("b", 0, b"", 40.0)], None),
    ]
    assert sorted(run.case_medians(passes)) == [2.0, 6.0]
    assert run.end_to_end_metrics([0.1], passes)["wall_s"] == (8.0, "s")


def test_self_time_subtracts_direct_children_only():
    # a [0,10] holds b [1,4] and c [5,6]; b holds d [2,3]; a second a [20,22].
    spans = {
        "names": ["a", "b", "c", "d"],
        "name": [0, 1, 3, 2, 0],
        "start": [0.0, 1.0, 2.0, 5.0, 20.0],
        "end": [10.0, 4.0, 3.0, 6.0, 22.0],
        "parent": [-1, 0, 1, 0, -1],
        "outcome": [0, 1, 0, 0, 2],
    }
    totals = tracing.aggregate(spans)
    assert totals == {"a": [2, 8.0, 2], "b": [1, 2.0, 1], "c": [1, 1.0, 0], "d": [1, 1.0, 0]}


def test_tracer_records_nested_spans_and_outcomes():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, outcome=lambda args, result: result)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    spans = tracer.spans()
    assert [spans["names"][n] for n in spans["name"]] == ["outer", "inner"]
    assert list(spans["parent"]) == [-1, 0]
    assert list(spans["outcome"]) == [0, 4]
    assert spans["start"][0] <= spans["start"][1] <= spans["end"][1] <= spans["end"][0]


def test_traced_process_rebinds_names_imported_elsewhere(tmp_path):
    spans_path = tmp_path / "spans.pickle"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "tracing.py"), str(spans_path),
         "verify-fin-sum", "--fixture", "chain3"],
        env=env, capture_output=True, check=True,
    )
    assert proc.stdout.endswith(b"families PASS\n")
    with open(spans_path, "rb") as fh:
        totals = tracing.aggregate(pickle.load(fh))
    # cli imported these by name; only re-binding makes the calls visible.
    assert totals["cli.main"][0] == 1
    assert totals["lattice.enumerate_compatible_families"][0] == 1
    families = totals["lattice.enumerate_compatible_families"][2]
    assert families > 0 and totals["decomposition.verify_theorem"][0] == families
    assert "linalg.rref" not in totals


def test_stream_is_a_function_of_the_seed():
    pool = workloads.load_pool()
    ids = [c.id for c in workloads.stream_cases(7, pool)]
    assert ids == [c.id for c in workloads.stream_cases(7, pool)]
    assert ids != [c.id for c in workloads.stream_cases(8, pool)]
    per_pass = sum(
        count * len(workloads.QUERY_ALGEBRAS) for count, _ in workloads.QUERY_KINDS.values()
    )
    assert len(ids) == len(set(ids)) == per_pass


def test_recorded_pool_matches_generator():
    assert workloads.load_pool() == json.loads(json.dumps(workloads.make_pool()))


def test_every_case_any_seed_can_run_has_a_golden():
    goldens = json.loads(run.GOLDENS_FILE.read_text())
    pool = workloads.load_pool()
    ids = {workloads.setup_case().id} | {q["id"] for q in pool}
    for name in workloads.WORKLOADS:
        ids |= {c.id for c in workloads.workload_cases(name, 123, pool)}
    assert ids == set(goldens)
    assert all(g["exit"] == 0 for g in goldens.values())
