"""Command-line surface: load a problem, run a suite, print a stable report.

Problems are JSON documents (see README.md for the schema); --fixture lays
the problem file over a bundled one (see fixtures.py).  All indices in JSON
are 0-based; printed reports label ideals 1-based to match the usual
I_1..I_n numbering.  Each command is a generator: it yields its report
lines and returns False when a check failed.  `_run` refuses a problem that
lacks a member the command needs (see `_COMMANDS`), prints each line as it
is yielded and sets the exit code: 0 all checks passed, 1 a checked identity
failed or stdout was closed before the report was written, 2 invalid input.
`run()` is the process entry; `main(argv)` runs one command in process.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import fixtures as fixtures_mod
from .decomposition import decompose, verify_theorem
from .fdalgebra import AlgebraSpec, enumerate_ideals
from .function_algebra import (
    PointwiseIdeal,
    enumerate_all_ideals,
    function_algebra,
    ideal_from_Y_and_I,
    recover_S,
    theta,
)
from .lattice import (
    LimitExceeded,
    compat_oracles_agree,
    compute_gamma,
    enumerate_compatible_families,
    family_from_lists,
    is_compatible,
    lattice_from_dict,
    mask_to_points,
    points_to_mask,
    validate_lattice,
)
from .lie import (
    LieCandidate,
    check_cqp,
    cqp_sides,
    cqp_transfer_check,
    is_lie_ideal,
    sandwich_random_suite,
    sandwich_witness,
    weak_centrality,
)
from .linalg import rref, vector

MAX_LATTICE_SIZE = 12
MAX_POINTS = 4
MAX_POINT_DIM = 32
DEFAULT_FAMILY_BOUND = 16


class InputError(Exception):
    """Bad problem input; mapped to exit code 2."""


def _is_int(v) -> bool:
    """JSON integers only: true and false are not indices or counts."""
    return isinstance(v, int) and not isinstance(v, bool)


def _shown(n: int):
    """n as a message prints it: str() refuses an int of over 4,300 digits."""
    return n if n < 1 << 64 else "over 2^64"


def _parse_scalar(text: str) -> tuple:
    """Parse "p/q", "r/s i" or "p/q+r/s i" (signs and spaces allowed) into
    (re, im), each in canonical form.  An exponent is refused: Fraction("1e9999999")
    would build 10^9999999 from nine characters."""
    t = text.strip()
    if not t:
        raise ValueError("empty scalar")
    if "e" in t or "E" in t:
        raise ValueError("exponents are not accepted")
    if not t.endswith("i"):
        return vector((t, 0))
    body = t[:-1].strip()
    if body in ("", "+", "-"):
        return (0, -1) if body == "-" else (0, 1)
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            im_part = body[k:].strip()
            if im_part in ("+", "-"):
                im_part += "1"
            return vector((body[:k].strip(), im_part))
    return vector((0, body))


def _scalar_from_json(v) -> tuple:
    """A subspace entry as (re, im)."""
    if isinstance(v, bool):
        raise InputError(f"scalar entry {v!r} is not a number")
    if isinstance(v, int):
        return v, 0
    if isinstance(v, float):
        if v.is_integer():
            return int(v), 0
        raise InputError(f"scalar entry {v!r} is not exact; use a rational string")
    if isinstance(v, str):
        try:
            return _parse_scalar(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse scalar {v!r}: {exc}") from None
    raise InputError(f"scalar entry {v!r} has unsupported type")


def _json_list(value, what: str) -> list:
    """value, refused unless a JSON list (not read by character or by key)."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return value


def _member(doc: dict, key: str, build, requires: str = "", ready: bool = True):
    """build(doc[key]), or None when the member is absent.  It is refused as
    `<key> requires <requires>` unless ready, and a TypeError or ValueError
    from build as `bad <key> member: <reason>`; an InputError passes through."""
    if key not in doc:
        return None
    if not ready:
        raise InputError(f"{key} requires {requires}")
    try:
        return build(doc[key])
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {key} member: {exc}") from None


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"problem file is not UTF-8: invalid byte at offset {exc.start}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:
        # int() refuses a literal longer than sys.get_int_max_str_digits()
        raise InputError("malformed JSON: a number has too many digits") from None
    except RecursionError:
        raise InputError("malformed JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("problem file must contain a JSON object")
    return doc


def _resolve_problem(args) -> SimpleNamespace:
    doc = _load_document(args.problem) if args.problem else {}
    name = "problem"
    if args.fixture:
        try:
            name, bundled = fixtures_mod.load_fixture(args.fixture)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        if "blocks" in doc or "lattice" in doc:
            raise InputError("the problem file and --fixture both provide a lattice")
        points = doc.get("points")
        if points is None:
            points = bundled.get("points", 2)
        if points != bundled.get("points"):
            bundled.pop("family", None)  # it lists the bundled points only
        doc = {**bundled, **doc, "points": points}

    spec = _member(doc, "blocks", lambda v: AlgebraSpec(_json_list(v, "blocks")))
    # An over-limit lattice is not built: its size is read from the raw member.
    size = doc["lattice"].get("size") if isinstance(doc.get("lattice"), dict) else None
    over = _is_int(size) and size > MAX_LATTICE_SIZE
    lattice = None if over else _member(doc, "lattice", lattice_from_dict)

    points = doc.get("points")
    if points is not None and (not _is_int(points) or points < 0):
        raise InputError(f"points must be a nonnegative integer, got {points!r}")

    # Every limit is checked before any enumeration starts.
    if over:
        raise InputError(f"lattice size {_shown(size)} exceeds the limit {MAX_LATTICE_SIZE}")
    if spec is not None and 1 << spec.num_blocks > MAX_LATTICE_SIZE:
        size = _shown(1 << spec.num_blocks)
        raise InputError(f"ideal lattice size {size} exceeds the limit {MAX_LATTICE_SIZE}")
    if points is not None and points > MAX_POINTS:
        raise InputError(f"points = {points} exceeds the limit {MAX_POINTS}")
    if spec is not None and spec.total_dim > MAX_POINT_DIM:
        dim = _shown(spec.total_dim)
        raise InputError(f"algebra dimension {dim} exceeds the per-point limit {MAX_POINT_DIM}")

    if spec is not None:
        block_lat = enumerate_ideals(spec)
        if lattice is not None and lattice != block_lat:
            raise InputError("lattice member must be the block lattice, indexed by block bitmask")
        lattice = block_lat
    elif lattice is not None and args.command != "validate":  # validate reports a violation
        violation = validate_lattice(lattice)
        if violation is not None:
            raise InputError(f"bad lattice member: {violation}")

    def family(value):
        entries = enumerate(_json_list(value, "family"))
        lists = [_json_list(e, f"family entry {k}") for k, e in entries]
        return family_from_lists(lattice, points, lists)

    def ideal(stalks):
        if not isinstance(stalks, list) or len(stalks) != points:
            raise ValueError("ideal must list one stalk index per point")
        return PointwiseIdeal(lattice, stalks)

    def ideal_index(t):
        if not _is_int(t) or not 0 <= t < lattice.size:
            raise ValueError(f"ideal_index {t!r} out of range")
        return t

    def subspace(rows):
        rows = [_json_list(row, "each subspace row") for row in _json_list(rows, "subspace")]
        return tuple(tuple(_scalar_from_json(v) for v in row) for row in rows)  # (re, im) pairs

    has_both = lattice is not None and points is not None
    return SimpleNamespace(
        name=name, lattice=lattice, spec=spec, points=points,
        family=_member(doc, "family", family, "a lattice and points", has_both),
        ideal=_member(doc, "ideal", ideal, "a lattice and points", has_both),
        y_mask=_member(doc, "Y", lambda v: points_to_mask(_json_list(v, "Y"), points),
                       "points", points is not None),
        ideal_index=_member(doc, "ideal_index", ideal_index, "a lattice", lattice is not None),
        subspace_rows=_member(doc, "subspace", subspace),
    )


def _fmt_points(mask: int) -> str:
    return "{" + ",".join(str(p) for p in mask_to_points(mask)) + "}"


def _fmt_indices(indices) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(indices)) + "}"


def cmd_validate(problem: SimpleNamespace, args):
    violation = validate_lattice(problem.lattice)
    yield "ok" if violation is None else f"FAIL {violation}"
    return violation is None


def cmd_compat(problem: SimpleNamespace, args):
    good = is_compatible(problem.family)
    yield "compatible" if good else "incompatible"
    return good


def cmd_gamma(problem: SimpleNamespace, args):
    lat = problem.lattice
    for j in range(lat.size):
        if j == lat.bottom:
            continue
        yield f"gamma_{j + 1} = {_fmt_indices(compute_gamma(lat, j))}"


def cmd_theta(problem: SimpleNamespace, args):
    try:
        ideal = theta(problem.family)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    for x, s in enumerate(ideal.stalks):
        yield f"stalk[{x}] = {s + 1}"


def cmd_recover(problem: SimpleNamespace, args):
    for i, mask in enumerate(recover_S(problem.ideal).sets):
        yield f"S[{i + 1}] = {_fmt_points(mask)}"


def cmd_decompose(problem: SimpleNamespace, args):
    try:
        dec = decompose(problem.family)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    full = (1 << problem.family.points) - 1
    for y, j in dec.terms:
        if args.minimal and y == full:
            continue
        yield f"term[{j + 1}]: Y = {_fmt_points(y)}"


def cmd_verify_fin_sum(problem: SimpleNamespace, args):
    bound = args.bound if args.bound is not None else DEFAULT_FAMILY_BOUND
    families = enumerate_compatible_families(problem.lattice, problem.points, bound=bound)
    passed = 0
    for idx, family in enumerate(families):
        report = verify_theorem(family)
        ok = all(good for _, good in report)
        passed += ok
        for identity, good in report:
            yield f"{'PASS' if good else 'FAIL'} {problem.name} {idx} {identity}"
    yield f"{passed}/{len(families)} families PASS"
    return passed == len(families)


def cmd_ideal_from_y(problem: SimpleNamespace, args):
    alg = function_algebra(problem.spec, problem.points)
    ideal, matches = ideal_from_Y_and_I(alg, problem.y_mask, problem.ideal_index)
    for x, s in enumerate(ideal.stalks):
        yield f"stalk[{x}] = {s + 1}"
    yield f"{'PASS' if matches else 'FAIL'} product-sum-equality"
    return matches


def cmd_normalizer(problem: SimpleNamespace, args):
    alg = function_algebra(problem.spec, problem.points)
    nj, summed = cqp_sides(alg, problem.ideal)
    yield f"dim N(J) = {nj.dim}"
    # N(J) = J + C(X, C1) needs a unique maximal ideal in A: one block.
    k = alg.spec.num_blocks
    if k != 1:
        yield ("PRECONDITION normalizer-decomposition "
               f"(algebra has {k} blocks; a unique maximal ideal needs 1)")
        return
    ok = nj == summed
    yield (f"{'PASS' if ok else 'FAIL'} normalizer-decomposition "
           f"(dim N(J) = {nj.dim}, dim (J + central functions) = {summed.dim})")
    return ok


def cmd_sandwich(problem: SimpleNamespace, args):
    """Decide L over the rationals through its realification: B is real, so
    L is a Lie ideal of B iff the span of (Re v, Im v) and (-Im v, Re v) over
    its rows v is closed under the halfwise brackets (see lie.LieCandidate)."""
    alg = function_algebra(problem.spec, problem.points)
    realified = []
    for row in problem.subspace_rows:
        re = [x for x, _ in row]
        im = [y for _, y in row]
        realified.append(re + im)
        realified.append([-y for y in im] + re)
    try:
        sub = rref(realified, 2 * alg.dim)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    candidate = LieCandidate(alg, sub)
    lie = is_lie_ideal(candidate)
    witness = sandwich_witness(candidate)
    yield f"lie-ideal: {'true' if lie else 'false'}"
    if witness is None:
        yield "witness: none"
    else:
        yield f"witness: ({','.join(str(s + 1) for s in witness.stalks)})"
    consistent = lie == (witness is not None)
    yield f"{'PASS' if consistent else 'FAIL'} sandwich-consistency"
    return consistent


def cmd_cqp(problem: SimpleNamespace, args):
    ok, lines = check_cqp(function_algebra(problem.spec, problem.points))
    yield from lines
    yield f"cqp: {'true' if ok else 'false'}"
    return ok


def cmd_weak_central(problem: SimpleNamespace, args):
    ok = weak_centrality(function_algebra(problem.spec, problem.points))
    yield f"weakly-central: {'true' if ok else 'false'}"
    return ok


def cmd_fixtures(problem: SimpleNamespace, args):
    yield from sorted(fixtures_mod.bundled_fixture_names())


def cmd_verify_all(problem: SimpleNamespace, args):
    """Every check on the problem.  Its lines are collected before the first
    is yielded, so a failed invariance check prints its FAIL line alone."""
    lat, points = problem.lattice, problem.points
    bound = args.bound if args.bound is not None else DEFAULT_FAMILY_BOUND
    work = lat.size * points
    families, lines = None, []  # families: built once, by the first step that needs them

    def record(name, ok):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")

    record("lattice-laws", validate_lattice(lat) is None)

    if work <= bound:
        families = enumerate_compatible_families(lat, points, bound=work)
        fin_ok = all(all(g for _, g in verify_theorem(f)) for f in families)
        record(f"fin-sum ({len(families)} families)", fin_ok)
    else:
        lines.append("SKIP fin-sum (enumeration bound)")

    if work <= min(bound, 12):  # fin-sum ran: work <= bound
        record("compat-oracle-agreement", compat_oracles_agree(lat, points, families))
    else:
        lines.append("SKIP compat-oracle-agreement (enumeration bound)")

    if problem.family is not None:
        compatible = is_compatible(problem.family)
        record("family-compatible", compatible)
        if compatible:
            record("theta-recover-roundtrip", recover_S(theta(problem.family)) == problem.family)

    if problem.spec is not None:
        alg = function_algebra(problem.spec, points)
        ideals = enumerate_all_ideals(alg)
        if args.bound is not None and work > args.bound:
            lines.append("SKIP bijection-count (enumeration bound)")
        else:
            families = families or enumerate_compatible_families(lat, points, bound=work)
            bij = len(families) == len(ideals) and all(recover_S(theta(f)) == f for f in families)
            record(f"bijection-count ({len(families)} = {len(ideals)})", bij)

        sweep_ok = all(
            ideal_from_Y_and_I(alg, y_mask, t)[1]
            for y_mask in range(1 << points)
            for t in range(alg.lattice.size)
        )
        record("ideal-from-y-sweep", sweep_ok)

        # With one block, Z(B) = C(X, C1): the normalizer formula is the CQP
        # identity over the same ideals, so one evaluation decides both lines.
        cqp_ok, _ = check_cqp(alg)
        if alg.spec.num_blocks == 1:
            record("normalizer-decomposition", cqp_ok)
        else:
            lines.append("SKIP normalizer-decomposition (needs a single block)")

        lines.extend(sandwich_random_suite(alg, args.seed)[1])
        wc_ok = weak_centrality(alg)
        record("cqp", cqp_ok)
        if points:  # with no point, B has no maximal ideal
            record("weak-central", wc_ok)
        else:
            lines.append("VACUOUS weak-central (no maximal ideal)")
        lines.extend(cqp_transfer_check(problem.spec, points, cqp_ok, wc_ok)[1])

    ok = not any(line.startswith("FAIL") for line in lines)
    yield from lines
    yield f"verify-all: {'PASS' if ok else 'FAIL'}"
    return ok


# What a command needs, in the order a missing member is named, and how the
# refusal names each member.
_COMMANDS = {
    "validate": (cmd_validate, ("lattice",)),
    "compat": (cmd_compat, ("lattice", "family")),
    "gamma": (cmd_gamma, ("lattice",)),
    "theta": (cmd_theta, ("family",)),
    "recover": (cmd_recover, ("lattice", "ideal")),
    "decompose": (cmd_decompose, ("family",)),
    "verify-fin-sum": (cmd_verify_fin_sum, ("lattice", "points")),
    "ideal-from-y": (cmd_ideal_from_y, ("spec", "points", "y_mask", "ideal_index")),
    "normalizer": (cmd_normalizer, ("spec", "points", "ideal")),
    "sandwich": (cmd_sandwich, ("spec", "points", "subspace_rows")),
    "cqp": (cmd_cqp, ("spec", "points")),
    "weak-central": (cmd_weak_central, ("spec", "points")),
    "verify-all": (cmd_verify_all, ("lattice", "points")),
    "fixtures": (cmd_fixtures, ()),
}
_MISSING = {
    "lattice": "a lattice",
    "spec": "a concrete block algebra (blocks member or fixture)",
    "points": "a points member",
    "family": "a family member",
    "ideal": "an ideal member (stalk list)",
    "y_mask": "a Y member",
    "ideal_index": "an ideal_index member",
    "subspace_rows": "a subspace member",
}


def _run(args) -> int:
    """Resolve the problem, refuse it when it lacks a member the command needs,
    and print each line the command yields as it comes.  Returns 1 when the
    command returned False (a check failed), else 0."""
    command, needs = _COMMANDS[args.command]
    problem = _resolve_problem(args)
    for member in needs:
        if getattr(problem, member) is None:
            raise InputError(f"this command needs {_MISSING[member]}")
    lines = command(problem, args)
    try:
        while True:
            print(next(lines))
    except StopIteration as end:
        return 1 if end.value is False else 0


# A plain command line, COMMAND [PROBLEM] with only the exact options, each
# value in its own token, is read by the loop below, so a one-shot query does
# not import argparse and gettext (see README, Start-up).  argparse reads
# every other line and prints the help, the usage and its error messages; its
# width is pinned, so they wrap at 80 columns whatever the terminal.
_FLAGS = ("--minimal",)
_VALUE_TYPES = {"--fixture": str, "--seed": int, "--bound": int}


def _plain_args(argv: list):
    """The namespace of a plain command line, or None for any other line."""
    args = SimpleNamespace(fixture=None, minimal=False, seed=0, bound=None)
    positionals = []
    tokens = iter(argv)
    try:
        for token in tokens:
            if token[:1] != "-":
                positionals.append(token)
            elif token in _FLAGS:
                setattr(args, token[2:], True)
            else:
                kind, value = _VALUE_TYPES[token], next(tokens)
                if value[:1] == "-":
                    return None
                setattr(args, token[2:], kind(value))
    except (KeyError, StopIteration, ValueError):
        return None  # an unknown option, a missing value or one int() refuses
    if not 1 <= len(positionals) <= 2 or positionals[0] not in _COMMANDS:
        return None
    args.command, args.problem = (positionals + [None])[:2]
    return args


def parse_args(argv):
    """Read COMMAND [PROBLEM] [--fixture NAME] [--seed N] [--bound N] [--minimal]
    as argparse's parse_intermixed_args reads it, options anywhere.
    argparse raises SystemExit after -h/--help (code 0) or a refused line (2)."""
    args = _plain_args(argv)
    if args is not None:
        return args
    import argparse

    parser = argparse.ArgumentParser(
        prog="fnideals",
        description="Exhaustive finite-model checks for ideal and Lie-ideal lattices "
        "of algebra-valued function algebras.",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("problem", nargs="?", help="JSON problem file")
    parser.add_argument("--fixture", help="bundled fixture name (see the fixtures command)")
    parser.add_argument("--minimal", action="store_true", help="drop zero decomposition terms")
    parser.add_argument("--seed", type=int, default=0, help="seed for random-subspace suites")
    parser.add_argument("--bound", type=int, default=None, help="family enumeration bound")
    return parser.parse_intermixed_args(argv)


def main(argv=None) -> int:
    """Run one command in this process and return its exit code; it never
    ends the process (run() does)."""
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
            code = _run(args)
        except SystemExit as exc:
            # from argparse: 0 after the help, 2 after the usage and its message
            code = exc.code
        except (InputError, LimitExceeded) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except AssertionError as exc:
            # an invariance check inside the library failed
            print(f"FAIL {exc}")
            code = 1
        # a reader that closed the pipe is seen here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the flush at exit writes what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def run():
    """The process entry of `python -m fnideals.cli` and the `fnideals` script.

    Runs main(), flushes stdout and stderr, and ends the process with
    os._exit, which skips tearing down the modules that site and the standard
    library loaded (about 12 ms of a 100 ms process).  Nothing is written
    after the flush, so a closed stdout found there only sets exit code 1.
    An exception that escapes main() propagates, with its traceback.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
