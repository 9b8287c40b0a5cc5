"""Span tracing of the fnideals layers, installed from outside the package.

Run as `python bench/tracing.py SPANS_FILE ARGV...` with `src` on
PYTHONPATH: it wraps the public functions in `TARGETS`, calls
`fnideals.cli.main(ARGV)`, exits with its code, and writes the spans it
kept in memory to SPANS_FILE.  A span is (name, start, end, parent,
outcome); parent is the index of the enclosing traced span or -1, and
outcome is a per-call count that some targets define (see `OUTCOMES`).
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
from array import array


class Tracer:
    """Spans of one process, in call order, kept in flat arrays."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outcome = array("q")
        self._stack = [-1]

    def wrap(self, label: str, fn, outcome=None):
        nid = len(self.names)
        self.names.append(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.outcome.append(0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if outcome is not None:
                self.outcome[idx] = outcome(args, result)
            return result

        return traced

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "outcome": self.outcome,
        }


def _seen_before():
    """Outcome 1 when the (algebra, ideal) key was already requested."""
    seen = set()

    def outcome(args, result):
        key = (id(args[0]), args[1].stalks)
        hit = key in seen
        seen.add(key)
        return int(hit)

    return outcome


# (module, qualified name) of every wrapped function.
TARGETS = (
    ("linalg", "rref"),
    ("linalg", "Subspace.contains"),
    ("linalg", "Subspace.__le__"),
    ("linalg", "intersect"),
    ("linalg", "annihilator"),
    ("lie", "sandwich_random_suite"),
    ("lie", "sandwich_witness"),
    ("lie", "is_lie_ideal"),
    ("lie", "lie_normalizer"),
    ("lie", "commutator_ideal_span"),
    ("lie", "check_cqp"),
    ("lie", "cqp_transfer_check"),
    ("function_algebra", "enumerate_all_ideals"),
    ("function_algebra", "FunctionElement.__mul__"),
    ("function_algebra", "FunctionAlgebra.commutator_table"),
    ("function_algebra", "FunctionAlgebra.ideal_subspace"),
    ("function_algebra", "theta"),
    ("function_algebra", "recover_S"),
    ("fdalgebra", "Element.__mul__"),
    ("fdalgebra", "enumerate_ideals"),
    ("lattice", "enumerate_compatible_families"),
    ("lattice", "is_compatible"),
    ("lattice", "validate_lattice"),
    ("decomposition", "verify_theorem"),
    ("decomposition", "decompose"),
    ("cli", "main"),
)

LABELS = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)

# label -> (metric suffix, unit, factory of outcome(args, result)).  A
# "ratio" metric is the outcome sum over calls, a "count" the outcome sum.
OUTCOMES = {
    "lie.sandwich_witness": ("hit_ratio", "ratio", lambda: lambda args, result: int(result is not None)),
    "function_algebra.FunctionAlgebra.ideal_subspace": ("hit_ratio", "ratio", _seen_before),
    "lattice.enumerate_compatible_families": ("families", "count", lambda: lambda args, result: len(result)),
}


def _first_access_only(tracer: Tracer, label: str, fget):
    """Property getter whose first read on each instance is a span."""
    traced = tracer.wrap(label, fget)
    built = set()

    def getter(obj):
        if id(obj) in built:
            return fget(obj)
        built.add(id(obj))
        return traced(obj)

    return getter


def install(tracer: Tracer):
    """Wrap every target and re-bind it wherever fnideals imported it by name."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "fnideals" or name.startswith("fnideals.")]
    for module_name, qualname in TARGETS:
        label = f"{module_name}.{qualname}"
        module = importlib.import_module(f"fnideals.{module_name}")
        outcome = OUTCOMES[label][2]() if label in OUTCOMES else None
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                setattr(cls, attr, property(_first_access_only(tracer, label, orig.fget)))
            else:
                setattr(cls, attr, tracer.wrap(label, orig, outcome))
            continue
        orig = getattr(module, qualname)
        wrapped = tracer.wrap(label, orig, outcome)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapped)


def aggregate(spans: dict) -> dict:
    """label -> [calls, self seconds, outcome sum] over one span set.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    name, start, end, parent, outcome = (
        spans["name"], spans["start"], spans["end"], spans["parent"], spans["outcome"]
    )
    child_time = [0.0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += end[i] - start[i]
    out: dict = {}
    names = spans["names"]
    for i, nid in enumerate(name):
        entry = out.setdefault(names[nid], [0, 0.0, 0])
        entry[0] += 1
        entry[1] += end[i] - start[i] - child_time[i]
        entry[2] += outcome[i]
    return out


def main(argv: list) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import fnideals.cli

    tracer = Tracer()
    install(tracer)
    try:
        return fnideals.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "wb") as fh:
            pickle.dump(tracer.spans(), fh, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
