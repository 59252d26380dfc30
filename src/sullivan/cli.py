"""Command-line front end.

Subcommands cover the whole toolkit: validating and measuring models
written in the surface syntax, enumerating elliptic rank vectors,
solving fiber-rank and Wang systems, and running the full submersion
obstruction analysis.  Structured output goes to stdout, diagnostics to
stderr.

Exit codes: 0 on success, 1 when a requested check finds a mathematical
failure (invalid model, undecided enumeration, fully obstructed
analysis, fixture drift) or, quietly, when stdout is closed early, 2 on
usage or parse errors.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

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
    """A nonnegative integer, for --max-degree and --dim."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise ValueError(f"must not be negative, got {value}")
    return value


def _read_model(path: str):
    try:
        with open(path) as handle:
            text = handle.read()
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
                k, v = int(k), int(v)
            except ValueError:
                raise CommandError(f"bad --known entry {piece!r}")
            if v < 0:
                raise CommandError(f"bad --known entry {piece!r}: a Betti number is not negative")
            known[k] = v
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

# the README's usage block, word for word (tests/test_cli.py compares them)
USAGE = """\
sullivan model check FILE [--max-degree N] [--require-minimal] [--require-simply-connected]
sullivan model cohomology FILE --max-degree N [--format text|tree]
sullivan elliptic enumerate --dim N [--no-prune] [--coeffs SET]
sullivan fibration fiber-ranks --total SPEC --base SPEC
sullivan fibration wang --sphere N --total SPEC --fiber-dim N [--known k=v,...]
sullivan check submersion --total NAME|FILE --max-base-dim N [--coeffs SET] [--live-table]
sullivan reproduce table1|prop31|prop32|prop41|prop42|theorem-a|theorem-b
"""


def _one_of(*choices: str):
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {text!r}")
        return text
    return convert


# command words -> (handler, positionals as (name, converter) pairs,
# options as flag -> (converter, required)); a switch's converter is None
COMMANDS = {
    ("model", "check"): (_cmd_model_check, [("file", str)], {
        "--max-degree": (_degree, False),
        "--require-minimal": (None, False), "--require-simply-connected": (None, False)}),
    ("model", "cohomology"): (_cmd_model_cohomology, [("file", str)], {
        "--max-degree": (_degree, True), "--format": (_one_of("text", "tree"), False)}),
    ("elliptic", "enumerate"): (_cmd_elliptic_enumerate, [], {
        "--dim": (_degree, True), "--no-prune": (None, False), "--coeffs": (str, False)}),
    ("fibration", "fiber-ranks"): (_cmd_fibration_fiber_ranks, [], {
        "--total": (str, True), "--base": (str, True)}),
    ("fibration", "wang"): (_cmd_fibration_wang, [], {
        "--sphere": (int, True), "--total": (str, True), "--fiber-dim": (int, True),
        "--known": (str, False)}),
    ("check", "submersion"): (_cmd_check_submersion, [], {
        "--total": (str, True), "--max-base-dim": (int, True), "--coeffs": (str, False),
        "--live-table": (None, False)}),
    ("reproduce",): (_cmd_reproduce, [("target", _one_of(*(
        {name: alias for alias, name in _TARGET_ALIASES.items()}.get(t, t)
        for t in REPRODUCE_TARGETS)))], {}),
}


def _parse(argv: list[str]):
    """The handler and arguments that argv names; ValueError on a usage error.

    `--opt value` equals `--opt=value`, and the value is the next word even
    when it starts with '-', as in `--coeffs -1,0,1`.  The last repeat wins.
    """
    key = tuple(argv[:2]) if tuple(argv[:2]) in COMMANDS else tuple(argv[:1])
    if key not in COMMANDS:
        raise ValueError(f"unknown command {' '.join(argv[:2])!r}" if argv else "no command given")
    handler, positionals, options = COMMANDS[key]
    values = {flag: None if convert else False for flag, (convert, _) in options.items()}
    words, rest = iter(argv[len(key):]), []
    for word in words:
        flag, eq, value = word.partition("=")
        if not word.startswith("-"):
            rest.append(word)
        elif flag not in options:
            raise ValueError(f"unknown option {flag}")
        elif options[flag][0] is None:
            if eq:
                raise ValueError(f"{flag} takes no value")
            values[flag] = True
        else:
            if not eq:
                value = next(words, None)
                if value is None:
                    raise ValueError(f"{flag} needs a value")
            try:
                values[flag] = options[flag][0](value)
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    missing = [flag for flag, (_, required) in options.items() if required and values[flag] is None]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    if len(rest) != len(positionals):
        raise ValueError(f"{' '.join(key)} takes {len(positionals)} argument(s), got {len(rest)}")
    args = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    args.update((name, convert(word)) for (name, convert), word in zip(positionals, rest))
    return handler, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout, as `| head -1` does: point it at devnull
        # so that the flush at exit cannot fail again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return 0
    try:
        handler, args = _parse(argv)
    except ValueError as exc:
        print(f"{USAGE}error: {exc}", file=sys.stderr)
        return 2
    try:
        return handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
