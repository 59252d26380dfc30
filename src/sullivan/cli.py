"""Command-line front end.

Subcommands cover the whole toolkit: validating and measuring models
written in the surface syntax, enumerating elliptic rank vectors,
solving fiber-rank and Wang systems, and running the full submersion
obstruction analysis.  Structured output goes to stdout, diagnostics to
stderr.

Exit codes: 0 on success, 1 when a requested check finds a mathematical
failure (invalid model, undecided enumeration, fully obstructed
analysis, fixture drift), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import validate_model
from .cohomology import betti_table
from .dsl import ParseError, parse_document
from .ellipticity import RankVector, elliptic_verdicts, enumerate_candidates
from .exactseq import fiber_rank_vectors, wang_fiber_betti
from .pipeline import (
    REPRODUCE_TARGETS,
    _TARGET_ALIASES,
    SpaceCatalogEntry,
    analyze,
    audit_table,
    find_entry,
    reproduce,
)


class CommandError(Exception):
    """Bad input discovered after argument parsing; maps to exit 2."""


def _coeffs_from(text: str) -> tuple[Fraction, ...]:
    try:
        parts = tuple(Fraction(p.strip()) for p in text.split(",") if p.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CommandError(f"bad coefficient set {text!r}: {exc}")
    if not parts:
        raise CommandError(f"bad coefficient set {text!r}: empty")
    return parts


def _degree(text: str) -> int:
    """A nonnegative degree, for --max-degree."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _read_model(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc.strerror or exc}")
    return parse_document(text)


def _rank_vector_spec(spec: str) -> RankVector:
    """A catalog name or an inline vector like 2:1,3:1,5:1."""
    try:
        return find_entry(spec).rank_vector
    except KeyError:
        pass
    try:
        return RankVector.parse(spec)
    except ValueError as exc:
        raise CommandError(f"bad space spec {spec!r}: {exc}")


def _total_entry(spec: str) -> SpaceCatalogEntry:
    """A catalog name, or a model file for ad-hoc total spaces."""
    if os.path.exists(spec):
        doc = _read_model(spec)
        report = validate_model(doc.model, require_minimal=True)
        if not report.ok:
            raise CommandError(f"{spec}: {report.summary()}")
        entry = SpaceCatalogEntry.of(doc.name, doc.model, table_row=False)
        if entry.dim <= 0:
            raise CommandError(f"{spec}: formal dimension {entry.dim} is not positive")
        return entry
    try:
        return find_entry(spec)
    except KeyError as exc:
        raise CommandError(str(exc.args[0]))


# -- subcommand handlers -----------------------------------------------------

def _cmd_model_check(args) -> int:
    doc = _read_model(args.file)
    report = validate_model(doc.model, require_minimal=args.require_minimal)
    for note in doc.notes:
        print(f"note: {note}", file=sys.stderr)
    problems = [] if report.ok else report.summary().splitlines()
    if args.require_simply_connected and not doc.model.is_simply_connected:
        low = [g.name for g in doc.model.generators if g.degree < 2]
        problems.append(f"not simply connected: degree-1 generators {', '.join(low)}")
    if problems:
        print(f"{doc.name}: FAIL")
        for p in problems:
            print(f"  {p}")
        return 1
    gens = len(doc.model.generators)
    print(f"{doc.name}: ok ({gens} generators)")
    if args.max_degree is not None:
        table = betti_table(doc.model, args.max_degree)
        print("betti: " + " ".join(str(b) for b in table.values))
    return 0


def _cmd_model_cohomology(args) -> int:
    doc = _read_model(args.file)
    report = validate_model(doc.model, require_minimal=False)
    if not report.ok:
        print(f"error: {doc.name}: {report.summary()}", file=sys.stderr)
        return 1
    table = betti_table(doc.model, args.max_degree)
    if args.format == "tree":
        print(json.dumps({"name": doc.name, "max_degree": args.max_degree, "betti": list(table.values)}, indent=2))
    else:
        print(" ".join(str(b) for b in table.values))
    return 0


def _cmd_elliptic_enumerate(args) -> int:
    if args.no_prune:
        for f in enumerate_candidates(args.dim):
            print(f)
        return 0
    coeffs = _coeffs_from(args.coeffs) if args.coeffs is not None else (-1, 0, 1)
    undecided = []
    for verdict in elliptic_verdicts(args.dim, coeffs):
        if verdict.status == "realized":
            print(verdict.f)
        else:
            undecided.append(verdict.f)
    if undecided:
        for f in undecided:
            print(f"undecided: {f}", file=sys.stderr)
        return 1
    return 0


def _cmd_fibration_fiber_ranks(args) -> int:
    total = _rank_vector_spec(args.total)
    base = _rank_vector_spec(args.base)
    try:
        fibers = fiber_rank_vectors(total, base)
    except ValueError as exc:
        raise CommandError(str(exc))
    for f in fibers:
        print(f)
    return 0


def _cmd_fibration_wang(args) -> int:
    total = _total_entry(args.total)
    known = {}
    if args.known:
        for piece in args.known.split(","):
            piece = piece.strip()
            if not piece:
                continue
            k, sep, v = piece.partition("=")
            if not sep:
                raise CommandError(f"bad --known entry {piece!r} (use k=v)")
            try:
                known[int(k)] = int(v)
            except ValueError:
                raise CommandError(f"bad --known entry {piece!r}")
    try:
        solutions = wang_fiber_betti(
            args.sphere, total.betti, args.fiber_dim, known_fiber=known or None
        )
    except ValueError as exc:
        raise CommandError(str(exc))
    for s in solutions:
        print(" ".join(str(b) for b in s.values))
    print(f"{len(solutions)} profile(s)", file=sys.stderr)
    return 0


def _cmd_check_submersion(args) -> int:
    if args.live_table:
        drift = audit_table()
        if drift:
            for line in drift:
                print(f"fixture drift: {line}", file=sys.stderr)
            return 1
    total = _total_entry(args.total)
    if not 2 <= args.max_base_dim < total.dim:
        raise CommandError(
            f"--max-base-dim must lie in [2, {total.dim - 1}] for {total.name}"
        )
    coeffs = _coeffs_from(args.coeffs) if args.coeffs is not None else (0, 1)
    if 0 not in coeffs:
        raise CommandError("the coefficient set of check submersion must contain 0")
    report = analyze(total, args.max_base_dim, coeff_set=coeffs)
    print(json.dumps(report.to_dict(), indent=2))
    n = len(report.survivors)
    print(f"{n} surviving base(s)", file=sys.stderr)
    return 0 if n else 1


def _cmd_reproduce(args) -> int:
    print(json.dumps(reproduce(args.target), indent=2))
    return 0


# -- argument surface --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sullivan",
        description="Exact rational-homotopy computations: models, cohomology, and submersion obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model = sub.add_parser("model", help="work with model files")
    model_sub = model.add_subparsers(dest="subcommand", required=True)
    mc = model_sub.add_parser("check", help="validate a model file")
    mc.add_argument("file")
    mc.add_argument("--max-degree", type=_degree, default=None)
    mc.add_argument("--require-minimal", action="store_true")
    mc.add_argument("--require-simply-connected", action="store_true")
    mc.set_defaults(handler=_cmd_model_check)
    mh = model_sub.add_parser("cohomology", help="Betti numbers of a model file")
    mh.add_argument("file")
    mh.add_argument("--max-degree", type=_degree, required=True)
    mh.add_argument("--format", choices=("text", "tree"), default="text")
    mh.set_defaults(handler=_cmd_model_cohomology)

    elliptic = sub.add_parser("elliptic", help="rank-vector enumeration")
    elliptic_sub = elliptic.add_subparsers(dest="subcommand", required=True)
    ee = elliptic_sub.add_parser("enumerate", help="elliptic rank vectors for one dimension")
    ee.add_argument("--dim", type=int, required=True)
    ee.add_argument("--no-prune", action="store_true",
                    help="list every numerically feasible vector, skip the arithmetic"
                         " condition and the witness search")
    ee.add_argument("--coeffs", default=None)
    ee.set_defaults(handler=_cmd_elliptic_enumerate)

    fibration = sub.add_parser("fibration", help="exact-sequence rank solving")
    fibration_sub = fibration.add_subparsers(dest="subcommand", required=True)
    fr = fibration_sub.add_parser("fiber-ranks", help="fiber rank vectors over a base")
    fr.add_argument("--total", required=True)
    fr.add_argument("--base", required=True)
    fr.set_defaults(handler=_cmd_fibration_fiber_ranks)
    fw = fibration_sub.add_parser("wang", help="fiber Betti profiles over an odd sphere")
    fw.add_argument("--sphere", type=int, required=True)
    fw.add_argument("--total", required=True)
    fw.add_argument("--fiber-dim", type=int, required=True)
    fw.add_argument("--known", default=None)
    fw.set_defaults(handler=_cmd_fibration_wang)

    check = sub.add_parser("check", help="obstruction analyses")
    check_sub = check.add_subparsers(dest="subcommand", required=True)
    cs = check_sub.add_parser("submersion", help="sweep base candidates for a total space")
    cs.add_argument("--total", required=True)
    cs.add_argument("--max-base-dim", type=int, required=True)
    cs.add_argument("--coeffs", default=None)
    cs.add_argument("--live-table", action="store_true",
                    help="audit the pinned rank-vector table against the enumerator first")
    cs.set_defaults(handler=_cmd_check_submersion)

    rp = sub.add_parser("reproduce", help="pinned headline reports")
    spelled = {name: alias for alias, name in _TARGET_ALIASES.items()}
    rp.add_argument("target", choices=[spelled.get(t, t) for t in REPRODUCE_TARGETS])
    rp.set_defaults(handler=_cmd_reproduce)

    return parser


def _glue_coeffs(argv: list[str]) -> list[str]:
    """Read `--coeffs -1,0,1` as `--coeffs=-1,0,1`: argparse takes a value
    that starts with '-' for an option and leaves --coeffs without one."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--coeffs" and not arg.startswith("--"):
            out[-1] = f"--coeffs={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_coeffs(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse prints usage itself; normalize its failure code to 2
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
