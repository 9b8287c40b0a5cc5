"""Command-line surface: load a problem, run a suite, print a stable report.

Problems are JSON documents (see README.md for the schema); a bundled fixture
can stand in for the lattice via --fixture.  All indices in JSON are
0-based; printed reports label ideals 1-based to match the usual I_1..I_n
numbering.  Exit codes: 0 all checks passed, 1 a checked identity failed
or stdout was closed before the report was written, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures as fixtures_mod
from .decomposition import decompose, verify_theorem
from .fdalgebra import AlgebraSpec, enumerate_ideals
from .function_algebra import (
    FunctionAlgebra,
    PointwiseIdeal,
    enumerate_all_ideals,
    function_algebra,
    ideal_from_Y_and_I,
    recover_S,
    theta,
)
from .lattice import (
    LimitExceeded,
    SpaceModel,
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


class Problem:
    """What a problem file and --fixture give; each command reads the members it needs."""

    __slots__ = (
        "name", "lattice", "spec", "points", "family", "stalks", "y_points", "ideal_index",
        "subspace_rows",  # rows of (re, im) pairs
    )

    def __init__(self, name: str, lattice=None, spec=None, points=None):
        self.name = name
        self.lattice = lattice
        self.spec = spec
        self.points = points
        self.family = self.stalks = self.y_points = self.ideal_index = None
        self.subspace_rows = None


def _is_int(v) -> bool:
    """JSON integers only: true and false are not indices or counts."""
    return isinstance(v, int) and not isinstance(v, bool)


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


def _resolve_problem(args) -> Problem:
    doc = _load_document(args.problem) if getattr(args, "problem", None) else {}
    fixture = None
    if getattr(args, "fixture", None):
        try:
            fixture = fixtures_mod.load_fixture(args.fixture)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    name = fixture.name if fixture else "problem"

    lattice = None
    spec = None
    if "blocks" in doc or "lattice" in doc:
        if fixture is not None:
            raise InputError("the problem file and --fixture both provide a lattice")
        if "blocks" in doc:
            try:
                spec = AlgebraSpec(tuple(doc["blocks"]))
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad blocks member: {exc}") from None
        if "lattice" in doc:
            try:
                lattice = lattice_from_dict(doc["lattice"])
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad lattice member: {exc}") from None
    elif fixture is not None:
        lattice = fixture.lattice
        spec = fixture.spec

    points = doc.get("points")
    if points is None and fixture is not None and fixture.family is not None:
        points = fixture.family.space.point_count
    if points is None and fixture is not None:
        points = 2
    if points is not None and (not _is_int(points) or points < 0):
        raise InputError(f"points must be a nonnegative integer, got {points!r}")

    # Every limit is checked before any enumeration starts.
    if lattice is not None and lattice.size > MAX_LATTICE_SIZE:
        raise InputError(f"lattice size {lattice.size} exceeds the limit {MAX_LATTICE_SIZE}")
    if spec is not None and 1 << spec.num_blocks > MAX_LATTICE_SIZE:
        raise InputError(
            f"ideal lattice size {1 << spec.num_blocks} exceeds the limit {MAX_LATTICE_SIZE}"
        )
    if points is not None and points > MAX_POINTS:
        raise InputError(f"points = {points} exceeds the limit {MAX_POINTS}")
    if spec is not None and spec.total_dim > MAX_POINT_DIM:
        raise InputError(
            f"algebra dimension {spec.total_dim} exceeds the per-point limit {MAX_POINT_DIM}"
        )

    if "blocks" in doc:
        block_lat = enumerate_ideals(spec)
        if lattice is not None and lattice != block_lat:
            raise InputError("lattice member must be the block lattice, indexed by block bitmask")
        lattice = block_lat

    problem = Problem(name=name, lattice=lattice, spec=spec, points=points)

    if "family" in doc:
        if lattice is None or points is None:
            raise InputError("family requires a lattice and points")
        try:
            problem.family = family_from_lists(lattice, SpaceModel(points), doc["family"])
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad family member: {exc}") from None
    elif fixture is not None and fixture.family is not None:
        if points == fixture.family.space.point_count:
            problem.family = fixture.family

    if "ideal" in doc:
        stalks = doc["ideal"]
        if lattice is None or points is None:
            raise InputError("ideal requires a lattice and points")
        if not isinstance(stalks, list) or len(stalks) != points:
            raise InputError("ideal must list one stalk index per point")
        for s in stalks:
            if not _is_int(s) or not 0 <= s < lattice.size:
                raise InputError(f"stalk index {s!r} out of range")
        problem.stalks = tuple(stalks)

    if "Y" in doc:
        if points is None:
            raise InputError("Y requires points")
        try:
            points_to_mask(doc["Y"], points)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad Y member: {exc}") from None
        problem.y_points = tuple(doc["Y"])

    if "ideal_index" in doc:
        t = doc["ideal_index"]
        if lattice is None or not _is_int(t) or not 0 <= t < lattice.size:
            raise InputError(f"ideal_index {t!r} out of range")
        problem.ideal_index = t

    if "subspace" in doc:
        rows = doc["subspace"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InputError("subspace must be a list of rows")
        problem.subspace_rows = tuple(
            tuple(_scalar_from_json(v) for v in row) for row in rows
        )

    return problem


def _need(problem: Problem, attr: str, what: str):
    value = getattr(problem, attr)
    if value is None:
        raise InputError(f"this command needs {what}")
    return value


def _need_algebra(problem: Problem) -> FunctionAlgebra:
    spec = _need(problem, "spec", "a concrete block algebra (blocks member or fixture)")
    points = _need(problem, "points", "a points member")
    return function_algebra(spec, points)


def _fmt_points(mask_or_points) -> str:
    pts = mask_to_points(mask_or_points) if isinstance(mask_or_points, int) else mask_or_points
    return "{" + ",".join(str(p) for p in pts) + "}"


def _fmt_indices(indices) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(indices)) + "}"


def cmd_validate(problem: Problem, args) -> int:
    lat = _need(problem, "lattice", "a lattice")
    violation = validate_lattice(lat)
    if violation is None:
        print("ok")
        return 0
    print(f"FAIL {violation}")
    return 1


def cmd_compat(problem: Problem, args) -> int:
    lat = _need(problem, "lattice", "a lattice")
    family = _need(problem, "family", "a family member")
    try:
        good = is_compatible(family, exhaustive=args.oracle)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    print("compatible" if good else "incompatible")
    return 0 if good else 1


def cmd_gamma(problem: Problem, args) -> int:
    lat = _need(problem, "lattice", "a lattice")
    for j in range(lat.size):
        if j == lat.bottom:
            continue
        print(f"gamma_{j + 1} = {_fmt_indices(compute_gamma(lat, j))}")
    return 0


def cmd_theta(problem: Problem, args) -> int:
    family = _need(problem, "family", "a family member")
    try:
        ideal = theta(family)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    for x, s in enumerate(ideal.stalks):
        print(f"stalk[{x}] = {s + 1}")
    return 0


def cmd_recover(problem: Problem, args) -> int:
    lat = _need(problem, "lattice", "a lattice")
    stalks = _need(problem, "stalks", "an ideal member (stalk list)")
    points = _need(problem, "points", "a points member")
    family = recover_S(PointwiseIdeal(lat, SpaceModel(points), stalks))
    for i, mask in enumerate(family.sets):
        print(f"S[{i + 1}] = {_fmt_points(mask)}")
    return 0


def cmd_decompose(problem: Problem, args) -> int:
    family = _need(problem, "family", "a family member")
    try:
        dec = decompose(family)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    full = family.space.full_mask
    for y, j in dec.terms:
        if args.minimal and y == full:
            continue
        print(f"term[{j + 1}]: Y = {_fmt_points(y)}")
    return 0


def cmd_verify_fin_sum(problem: Problem, args) -> int:
    lat = _need(problem, "lattice", "a lattice")
    points = _need(problem, "points", "a points member")
    bound = args.bound if args.bound is not None else DEFAULT_FAMILY_BOUND
    families = enumerate_compatible_families(lat, SpaceModel(points), bound=bound)
    passed = 0
    for idx, family in enumerate(families):
        report = verify_theorem(family)
        ok = all(good for _, good in report)
        passed += ok
        for identity, good in report:
            print(f"{'PASS' if good else 'FAIL'} {problem.name} {idx} {identity}")
    print(f"{passed}/{len(families)} families PASS")
    return 0 if passed == len(families) else 1


def cmd_ideal_from_y(problem: Problem, args) -> int:
    alg = _need_algebra(problem)
    y_points = _need(problem, "y_points", "a Y member")
    t = _need(problem, "ideal_index", "an ideal_index member")
    y_mask = points_to_mask(y_points, alg.space.point_count)
    ideal, matches = ideal_from_Y_and_I(alg, y_mask, t)
    for x, s in enumerate(ideal.stalks):
        print(f"stalk[{x}] = {s + 1}")
    print(f"{'PASS' if matches else 'FAIL'} product-sum-equality")
    return 0 if matches else 1


def cmd_normalizer(problem: Problem, args) -> int:
    alg = _need_algebra(problem)
    stalks = _need(problem, "stalks", "an ideal member (stalk list)")
    ideal = PointwiseIdeal(alg.lattice, alg.space, stalks)
    nj, summed = cqp_sides(alg, ideal)
    print(f"dim N(J) = {nj.dim}")
    # N(J) = J + C(X, C1) needs a unique maximal ideal in A: one block.
    k = alg.spec.num_blocks
    if k != 1:
        print(
            f"PRECONDITION normalizer-decomposition "
            f"(algebra has {k} blocks; a unique maximal ideal needs 1)"
        )
        return 0
    ok = nj == summed
    print(
        f"{'PASS' if ok else 'FAIL'} normalizer-decomposition "
        f"(dim N(J) = {nj.dim}, dim (J + central functions) = {summed.dim})"
    )
    return 0 if ok else 1


def cmd_sandwich(problem: Problem, args) -> int:
    """Decide L over the rationals through its realification: B is real, so
    L is a Lie ideal of B iff the span of (Re v, Im v) and (-Im v, Re v) over
    its rows v is closed under the halfwise brackets (see lie.LieCandidate)."""
    alg = _need_algebra(problem)
    rows = _need(problem, "subspace_rows", "a subspace member")
    realified = []
    for row in rows:
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
    print(f"lie-ideal: {'true' if lie else 'false'}")
    if witness is None:
        print("witness: none")
    else:
        print(f"witness: ({','.join(str(s + 1) for s in witness.stalks)})")
    consistent = lie == (witness is not None)
    print(f"{'PASS' if consistent else 'FAIL'} sandwich-consistency")
    return 0 if consistent else 1


def cmd_cqp(problem: Problem, args) -> int:
    alg = _need_algebra(problem)
    ok, lines = check_cqp(alg)
    for line in lines:
        print(line)
    print(f"cqp: {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_weak_central(problem: Problem, args) -> int:
    alg = _need_algebra(problem)
    ok = weak_centrality(alg)
    print(f"weakly-central: {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_fixtures(problem: Problem, args) -> int:
    for name in sorted(fixtures_mod.bundled_fixture_names()):
        print(name)
    return 0


def _verify_all_lines(problem: Problem, args) -> list:
    lat = _need(problem, "lattice", "a lattice")
    points = _need(problem, "points", "a points member")
    bound = args.bound if args.bound is not None else DEFAULT_FAMILY_BOUND
    space = SpaceModel(points)
    lines = []

    def record(name, ok):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")

    record("lattice-laws", validate_lattice(lat) is None)

    if lat.size * points <= bound:
        families = enumerate_compatible_families(lat, space, bound=bound)
        fin_ok = all(all(g for _, g in verify_theorem(f)) for f in families)
        record(f"fin-sum ({len(families)} families)", fin_ok)
    else:
        lines.append("SKIP fin-sum (enumeration bound)")

    if lat.size * points <= min(bound, 12):
        record("compat-oracle-agreement", compat_oracles_agree(lat, space))
    else:
        lines.append("SKIP compat-oracle-agreement (enumeration bound)")

    if problem.family is not None:
        try:
            compatible = is_compatible(problem.family)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        record("family-compatible", compatible)
        if compatible:
            record("theta-recover-roundtrip", recover_S(theta(problem.family)) == problem.family)

    if problem.spec is not None:
        alg = function_algebra(problem.spec, points)
        ideals = enumerate_all_ideals(alg)
        work = alg.lattice.size * points
        if args.bound is not None and work > args.bound:
            lines.append("SKIP bijection-count (enumeration bound)")
        else:
            families = enumerate_compatible_families(alg.lattice, space, bound=max(bound, work))
            bij = len(families) == len(ideals) and all(recover_S(theta(f)) == f for f in families)
            record(f"bijection-count ({len(families)} = {len(ideals)})", bij)

        sweep_ok = all(
            ideal_from_Y_and_I(alg, y_mask, t)[1]
            for y_mask in range(space.full_mask + 1)
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

        sandwich_ok, sandwich_lines = sandwich_random_suite(alg, args.seed)
        lines.extend(sandwich_lines)

        wc_ok = weak_centrality(alg)
        record("cqp", cqp_ok)
        record("weak-central", wc_ok)
        transfer_ok, transfer_lines = cqp_transfer_check(problem.spec, space, cqp_ok, wc_ok)
        lines.extend(transfer_lines)

    return lines


def cmd_verify_all(problem: Problem, args) -> int:
    lines = _verify_all_lines(problem, args)
    ok = not any(line.startswith("FAIL") for line in lines)
    for line in lines:
        print(line)
    print(f"verify-all: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


_COMMANDS = {
    "validate": cmd_validate,
    "compat": cmd_compat,
    "gamma": cmd_gamma,
    "theta": cmd_theta,
    "recover": cmd_recover,
    "decompose": cmd_decompose,
    "verify-fin-sum": cmd_verify_fin_sum,
    "ideal-from-y": cmd_ideal_from_y,
    "normalizer": cmd_normalizer,
    "sandwich": cmd_sandwich,
    "cqp": cmd_cqp,
    "weak-central": cmd_weak_central,
    "verify-all": cmd_verify_all,
    "fixtures": cmd_fixtures,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnideals",
        description="Exhaustive finite-model checks for ideal and Lie-ideal lattices "
        "of algebra-valued function algebras.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("problem", nargs="?", help="JSON problem file")
    parser.add_argument("--fixture", help="bundled fixture name (see the fixtures command)")
    parser.add_argument("--oracle", action="store_true", help="exhaustive compatibility mode")
    parser.add_argument("--minimal", action="store_true", help="drop zero decomposition terms")
    parser.add_argument("--seed", type=int, default=0, help="seed for random-subspace suites")
    parser.add_argument("--bound", type=int, default=None, help="family enumeration bound")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_intermixed_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        problem = _resolve_problem(args)
        code = _COMMANDS[args.command](problem, args)
        # a reader that closed the pipe is seen here, not at interpreter exit
        sys.stdout.flush()
        return code
    except (InputError, LimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the flush at exit writes what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
