"""Re-record the benchmark's inputs and goldens at the current commit.

    python3 bench/record.py

Writes queries.json (the query-stream pool, from workloads.make_pool) and
goldens.json (exit code, SHA-256 and length of stdout for every invocation
any seed can run).  Run it only in a change that alters the benchmark, or
that changes CLI output on purpose; a change that claims a speed-up keeps
the goldens of its parent.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    pool = workloads.make_pool()
    workloads.QUERIES_FILE.write_text("[\n" + ",\n".join(json.dumps(q) for q in pool) + "\n]\n")
    runner = run.Runner(time.monotonic() + 3600.0)
    goldens = {}
    try:
        cases = [workloads.setup_case()]
        cases += workloads.sweep_cases()
        cases += [workloads.Case(q["id"], tuple(q["argv"]), q["doc"]) for q in pool]
        for case in cases:
            result = runner.run(case)
            goldens[case.id] = result.output
        # verify-all takes the run seed; its report must not depend on it.
        for a, b in zip(workloads.suite_cases(0), workloads.suite_cases(1)):
            ra, rb = runner.run(a), runner.run(b)
            if ra.output != rb.output:
                print(f"error: {a.id} prints different reports for seeds 0 and 1", file=sys.stderr)
                return 1
            goldens[a.id] = ra.output
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    bad = [case_id for case_id, g in goldens.items() if g["exit"] != 0]
    for case_id in bad:
        print(f"error: {case_id} exits {goldens[case_id]['exit']}; goldens not written", file=sys.stderr)
    if bad:
        return 1
    run.GOLDENS_FILE.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} goldens, {len(pool)} pool queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
