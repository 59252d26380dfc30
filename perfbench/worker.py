"""Runs one benchmark operation in this fresh process and reports on it.

Usage: python3 -S perfbench/worker.py SRC_DIR SPEC_JSON

SRC_DIR holds the `sullivan` package under test.  SPEC_JSON is one
operation: {"kind": "cli", "argv": [...]} calls `sullivan.cli.main(argv)`;
{"kind": "coboundary", "file": ..., "queries": [...]} parses a model file
and asks `cohomology.is_coboundary` about each queried monomial.  With
"trace": true, the spans of `spans.py` are installed first.

The operation's own stdout and stderr are captured.  The last line of this
process's stdout is one JSON object: import time, operation time (from the
call into the entry point to its return, output included), exit code,
captured output, peak RSS and, when traced, the span totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def calibrate() -> float:
    """Seconds that a fixed piece of pure-Python work takes right now.

    The work is exact Fraction arithmetic and dict traffic, the mix of the
    package's own inner loops.  On a shared machine the speed of the CPU
    drifts by tens of percent over seconds; run.py divides every
    timing by this figure, measured just before and just after it.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 8000):
        acc += Fraction(1, i % 61 + 1)
        table[(i % 251, "k")] = acc
    return time.perf_counter() - start


def run_coboundary(spec: dict) -> str:
    """Answers every query, each with its certificate, as JSON."""
    from sullivan.cohomology import is_coboundary
    from sullivan.dsl import parse_document

    model = parse_document(Path(spec["file"]).read_text()).model
    answers = []
    for word in spec["queries"]:
        x = model.unit()
        for name, e in word:
            x = x * model.gen(name) ** e
        verdict = is_coboundary(x)
        if verdict.is_coboundary:
            terms = verdict.witness.terms.items()
            answers.append({"exact": True, "witness": _terms(terms)})
        else:
            answers.append({"exact": False, "functional": _terms(verdict.functional.items())})
    return json.dumps(answers)


def _terms(items) -> list[list[str]]:
    return [[mon.format(), str(c)] for mon, c in items]


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    spec = json.loads(sys.argv[2])
    sys.path.insert(0, str(src))

    calibrate_before = calibrate()
    start = time.perf_counter()
    import sullivan
    import sullivan.cli
    setup_s = time.perf_counter() - start
    calibrate_between = calibrate()
    if not Path(sullivan.__file__).resolve().is_relative_to(src):
        print(f"imported sullivan from {sullivan.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    answers = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if spec["kind"] == "cli":
            code = sullivan.cli.main(spec["argv"])
        else:
            code = 0
            print(run_coboundary(spec))
        op_s = time.perf_counter() - start
    calibrate_after = calibrate()
    if spec["kind"] == "coboundary":
        answers = json.loads(out.getvalue())

    result = {
        "setup_s": setup_s,
        "setup_calibrate_s": (calibrate_before + calibrate_between) / 2,
        "op_s": op_s,
        "op_calibrate_s": (calibrate_between + calibrate_after) / 2,
        "exit": code,
        "stdout": out.getvalue() if answers is None else "",
        "stderr": err.getvalue(),
        "answers": answers,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
