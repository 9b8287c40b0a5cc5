"""Benchmark of the fnideals CLI; see bench/README.md.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Every invocation is a fresh
`python -m fnideals.cli` process (with --trace 1, a fresh
`bench/tracing.py` process), started one at a time by this process: one
closed-loop client.  Each stdout and exit code is compared byte for byte
with goldens.json.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS_FILE = BENCH_DIR / "goldens.json"

# Set-up samples are spread over the run, at most one per interval, because
# the speed of this class of shared machine drifts over seconds; samples
# taken back to back all land in the same phase.
SETUP_INTERVAL_S = 2.0
# A run never starts an invocation after this many seconds, and no child may
# use CPU past it, so the run ends well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 160.0


@dataclass
class Result:
    case_id: str
    output: dict  # exit code, SHA-256 and length of stdout, as goldens.json holds
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def matches_golden(result: Result, goldens: dict) -> bool:
    return goldens.get(result.case_id) == result.output


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class Runner:
    """Starts CLI processes one at a time and records what each cost."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        # Children cache bytecode, as an installed CLI does, but in the work
        # directory, so every run starts from the same (empty) cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.problem_files: dict = {}
        self.spans_count = 0
        self.setup_results: list = []
        self.setup_times: list = []
        self._last_setup = -math.inf

    def problem_path(self, case: workloads.Case) -> str:
        path = self.problem_files.get(case.id)
        if path is None:
            path = WORK / "problems" / (case.id.replace("/", "__") + ".json")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(case.doc))
            self.problem_files[case.id] = path
        return str(path)

    def argv(self, case: workloads.Case) -> list:
        argv = list(case.argv)
        if case.doc is not None:
            argv.insert(1, self.problem_path(case))
        return argv

    def _limit_cpu(self):
        left = max(1, int(self.deadline - time.monotonic()))
        resource.setrlimit(resource.RLIMIT_CPU, (left, left))

    def run(self, case: workloads.Case, spans_path: Path | None = None) -> Result:
        if spans_path is None:
            cmd = [sys.executable, "-m", "fnideals.cli"] + self.argv(case)
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_path)] + self.argv(case)
        # The child writes stdout to a file, so this process sleeps in wait4
        # while the child runs: on a two-core host a parent reading a pipe
        # would compete with the child it times.
        out_path = WORK / "stdout"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.DEVNULL,
                preexec_fn=self._limit_cpu,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Hash in chunks instead of keeping stdout: a child's max-RSS starts
        # from this process's RSS at fork, so this one stays small.
        digest, size = hashlib.sha256(), 0
        with open(out_path, "rb") as fh:
            while chunk := fh.read(1 << 16):
                digest.update(chunk)
                size += len(chunk)
        out_path.unlink()
        output = {"exit": proc.returncode, "sha256": digest.hexdigest(), "bytes": size}
        return Result(case.id, output, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def run_traced(self, case: workloads.Case) -> tuple:
        self.spans_count += 1
        path = WORK / "spans" / f"{self.spans_count:05d}.pickle"
        path.parent.mkdir(parents=True, exist_ok=True)
        result = self.run(case, path)
        spans = None
        if path.exists():
            with open(path, "rb") as fh:
                spans = pickle.load(fh)
            path.unlink()
        return result, spans

    def warm_up(self):
        """One untimed `fixtures` process, which fills the bytecode cache."""
        self.setup_results.append(self.run(workloads.setup_case()))

    def sample_setup(self):
        """Time a fresh `fixtures` process if the last sample is old enough."""
        if time.monotonic() - self._last_setup >= SETUP_INTERVAL_S:
            result = self.run(workloads.setup_case())
            self.setup_results.append(result)
            self.setup_times.append(result.wall_s)
            self._last_setup = time.monotonic()


def run_passes(runner: Runner, cases: list, seconds: float, traced: bool) -> list:
    """Whole passes over `cases`, at least one.  Another pass starts while
    half a pass more would still end within `seconds`, so a run overshoots
    by at most half a pass.  Returns [(results, layer totals or None)]."""
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results, layers = [], {} if traced else None
        for case in cases:
            if time.monotonic() > runner.deadline:
                raise TimeoutError("run deadline passed")
            runner.sample_setup()
            if traced:
                result, spans = runner.run_traced(case)
                totals = tracing.aggregate(spans) if spans else {}
                for label, (calls, self_s, outcome) in totals.items():
                    entry = layers.setdefault(label, [0, 0.0, 0])
                    entry[0] += calls
                    entry[1] += self_s
                    entry[2] += outcome
            else:
                result = runner.run(case)
            results.append(result)
        passes.append((results, layers))
        now = time.monotonic()
        if now - start + (now - t0) / 2 > seconds:
            return passes


def case_medians(passes: list, field: str = "wall_s") -> list:
    """Median of `field` for each distinct invocation over the passes."""
    by_case: dict = {}
    for results, _ in passes:
        for r in results:
            by_case.setdefault(r.case_id, []).append(getattr(r, field))
    return [statistics.median(values) for values in by_case.values()]


def end_to_end_metrics(setup_times: list, passes: list) -> dict:
    # A pass at each invocation's median: a slow spell of the shared host
    # that hits different invocations in different passes is left out.
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(case_medians(passes, "wall_s")), "s"),
        "cpu_s": (sum(case_medians(passes, "cpu_s")), "s"),
        "peak_rss_mb": (max(r.max_rss_mb for rs, _ in passes for r in rs), "MB"),
    }


def latency_metrics(passes: list) -> dict:
    """Per-invocation latency percentiles.  Printed, not part of the result:
    on verify-suite and family-sweep they rest on one or two short
    invocations, and their run-to-run spread exceeds any bound allowed."""
    latencies = case_medians(passes)
    return {
        "query_p50_s": (percentile(latencies, 0.5), "s"),
        "query_p90_s": (percentile(latencies, 0.9), "s"),
    }


def per_layer_metrics(traced_passes: list, untraced: list) -> dict:
    metrics = {}
    first = traced_passes[0][1]
    for label in tracing.LABELS:
        calls, _, outcome = first.get(label, (0, 0.0, 0))
        metrics[f"{label}.calls"] = (calls, "count")
        self_s = statistics.median(layers.get(label, (0, 0.0, 0))[1] for _, layers in traced_passes)
        metrics[f"{label}.self_s"] = (self_s, "s")
        if label in tracing.OUTCOMES:
            suffix, unit, _ = tracing.OUTCOMES[label]
            value = outcome if unit == "count" else outcome / calls if calls else 0.0
            metrics[f"{label}.{suffix}"] = (value, unit)
    traced_wall = statistics.median(sum(r.wall_s for r in rs) for rs, _ in traced_passes)
    metrics["trace.overhead_s"] = (traced_wall - sum(r.wall_s for r in untraced), "s")
    return metrics


def print_layer_table(metrics: dict):
    rows = [
        (label, metrics[f"{label}.calls"][0], metrics[f"{label}.self_s"][0]) for label in tracing.LABELS
    ]
    print(f"{'layer function':58} {'calls':>10} {'self_s':>10}")
    for label, calls, self_s in sorted(rows, key=lambda r: -r[2]):
        print(f"{label:58} {calls:>10} {self_s:>10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fnideals CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fnideals" / "cli.py").is_file():
        print(f"error: no fnideals source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS_FILE.read_text())
    cases = workloads.workload_cases(args.workload, args.seed, workloads.load_pool())
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    try:
        runner.warm_up()
        if args.trace:
            passes = run_passes(runner, cases, args.seconds, traced=True)
            untraced = run_passes(runner, cases, 0, traced=False)[0][0]
            metrics = per_layer_metrics(passes, untraced)
            print_layer_table(metrics)
            checked = [r for rs, _ in passes for r in rs] + untraced
        else:
            passes = run_passes(runner, cases, args.seconds, traced=False)
            metrics = end_to_end_metrics(runner.setup_times, passes)
            checked = [r for rs, _ in passes for r in rs]
        checked += runner.setup_results
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = [r for r in checked if not matches_golden(r, goldens)]
    for r in failed[:5]:
        print(f"golden mismatch: {r.case_id} exit {r.output['exit']}")
    samples = sum(len(rs) for rs, _ in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(cases)} invocations "
          f"({samples} latency samples), {len(runner.setup_times)} set-up samples, {len(checked)} checked")
    print(f"failed_frac {len(failed) / len(checked):.6f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if not args.trace:
        for name, (value, unit) in latency_metrics(passes).items():
            print(f"{name} {value} {unit} (not in the result)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
