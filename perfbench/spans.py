"""Spans around the package's layer boundaries, installed from outside.

`Tracer.install()` replaces each public name in TARGETS with a wrapper
that records calls, inclusive time and self time (inclusive time minus
the time of child spans), and reads outcome counts from the values the
function returns.  Every module that bound the name, e.g. by
`from .algebra import validate_model`, gets the wrapper; methods are
replaced on their class.  A name that no longer exists is listed as
absent and the metrics built on it read "absent".

`layer_metrics` turns the summed span totals of a pass into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# span name -> (module, attribute path); the span names of SullivanModel.d
# are split into algebra.d_assembly (under coboundary_matrix) and
# algebra.d_check (everywhere else: the d*d checks and validate_model)
TARGETS = {
    "algebra.d": ("sullivan.algebra", "SullivanModel.d"),
    "algebra.basis": ("sullivan.algebra", "SullivanModel.basis_of_degree"),
    "algebra.with_differentials": ("sullivan.algebra", "SullivanModel.with_differentials"),
    "algebra.validate": ("sullivan.algebra", "validate_model"),
    "cohomology.coboundary": ("sullivan.cohomology", "coboundary_matrix"),
    "cohomology.betti": ("sullivan.cohomology", "betti"),
    "cohomology.betti_table": ("sullivan.cohomology", "betti_table"),
    "cohomology.is_coboundary": ("sullivan.cohomology", "is_coboundary"),
    "linalg.rref": ("sullivan.linalg", "rref"),
    "linalg.rank": ("sullivan.linalg", "RationalMatrix.rank"),
    "linalg.solve": ("sullivan.linalg", "RationalMatrix.solve"),
    "linalg.nullspace": ("sullivan.linalg", "RationalMatrix.nullspace_basis"),
    "ellipticity.enumerate": ("sullivan.ellipticity", "enumerate_candidates"),
    "ellipticity.realizable": ("sullivan.ellipticity", "realizable"),
    "exactseq.solve": ("sullivan.exactseq", "solve_exact_ranks"),
    "exactseq.wang": ("sullivan.exactseq", "wang_fiber_betti"),
    "pipeline.reproduce": ("sullivan.pipeline", "reproduce"),
    "pipeline.analyze": ("sullivan.pipeline", "analyze"),
    "pipeline.relative": ("sullivan.pipeline", "check_relative_cohomology"),
    "pipeline.wang_check": ("sullivan.pipeline", "check_wang_bound"),
    "dsl.parse": ("sullivan.dsl", "parse_document"),
}

# lru caches whose hits and misses are read around the operation
CACHES = {"betti": "cohomology.betti", "coboundary": "cohomology.coboundary"}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.root_s = 0.0
        self._stack: list[float] = []
        self._assembly = 0
        self._caches: dict[str, tuple] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- hooks reading work counts from arguments and results -------------

    def _rref_rows(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        self.count("rref_nnz_in", sum(len(r) for r in rows))

    def _realizable(self, verdict):
        self.count("models_examined", verdict.examined)
        self.count("decided", verdict.status in ("realized", "unrealizable"))
        self.count("realized", verdict.status == "realized")

    def _solutions(self, found):
        self.count("solutions", len(found))

    def _relative(self, outcome):
        detail = getattr(outcome, "detail", None)
        if detail is None:
            self.count("witnesses")
        else:
            self.count("branches_pruned", len(detail["branches"]))
            self.count("dd_rejections", detail["rejected_invalid"])

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "linalg.rref": (self._rref_rows, None),
            "ellipticity.realizable": (None, self._realizable),
            "exactseq.solve": (None, self._solutions),
            "exactseq.wang": (None, self._solutions),
            "pipeline.relative": (None, self._relative),
        }
        modules = [m for n, m in sys.modules.items() if n == "sullivan" or n.startswith("sullivan.")]
        for name, (module, path) in TARGETS.items():
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if not callable(original):
                self.absent.append(name)
                continue
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(name, original, before, after)
            if parents:
                setattr(owner, attr, wrapper)
            else:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
            for cache, span in CACHES.items():
                if span == name and hasattr(original, "cache_info"):
                    self._caches[cache] = (original, original.cache_info())

    def _wrap(self, name, fn, before, after):
        stack = self._stack
        spans = self.spans
        tracer = self
        split = name == "algebra.d"
        assembly = name == "cohomology.coboundary"

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            key = name
            if split:
                key = "algebra.d_assembly" if tracer._assembly else "algebra.d_check"
            if assembly:
                tracer._assembly += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if assembly:
                    tracer._assembly -= 1
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.root_s += elapsed
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def report(self) -> dict:
        caches = {}
        for cache, (fn, before) in self._caches.items():
            now = fn.cache_info()
            caches[cache] = [now.hits - before.hits, now.misses - before.misses]
        return {
            "spans": self.spans,
            "counters": self.counters,
            "caches": caches,
            "root_s": self.root_s,
            "absent": self.absent,
        }


def merge(reports: list[tuple[dict, float]]) -> dict:
    """Sum the trace reports of a pass's operations, each time multiplied
    by its report's scale."""
    total = {"spans": {}, "counters": {}, "caches": {}, "root_s": 0.0, "absent": set()}
    for r, scale in reports:
        for name, (calls, incl, own) in r["spans"].items():
            rec = total["spans"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl * scale
            rec[2] += own * scale
        for name, n in r["counters"].items():
            total["counters"][name] = total["counters"].get(name, 0) + n
        for name, (hits, misses) in r["caches"].items():
            rec = total["caches"].setdefault(name, [0, 0])
            rec[0] += hits
            rec[1] += misses
        total["root_s"] += r["root_s"] * scale
        total["absent"].update(r["absent"])
    return total


# metric name -> (unit, span targets it needs)
PER_LAYER = {
    "algebra.d_calls": ("count", ("algebra.d",)),
    "algebra.d_check_s": ("s", ("algebra.d",)),
    "algebra.d_assembly_s": ("s", ("algebra.d", "cohomology.coboundary")),
    "algebra.basis_calls": ("count", ("algebra.basis",)),
    "algebra.basis_s": ("s", ("algebra.basis",)),
    "algebra.models_built": ("count", ("algebra.with_differentials",)),
    "algebra.validate_calls": ("count", ("algebra.validate",)),
    "algebra.validate_s": ("s", ("algebra.validate",)),
    "cohomology.coboundary_calls": ("count", ("cohomology.coboundary",)),
    "cohomology.coboundary_built": ("count", ("cohomology.coboundary",)),
    "cohomology.coboundary_self_s": ("s", ("cohomology.coboundary",)),
    "cohomology.betti_calls": ("count", ("cohomology.betti",)),
    "cohomology.betti_hit_ratio": ("ratio", ("cohomology.betti",)),
    "cohomology.is_coboundary_calls": ("count", ("cohomology.is_coboundary",)),
    "cohomology.is_coboundary_s": ("s", ("cohomology.is_coboundary",)),
    "linalg.rref_calls": ("count", ("linalg.rref",)),
    "linalg.rref_nnz_in": ("count", ("linalg.rref",)),
    "linalg.rref_s": ("s", ("linalg.rref",)),
    "linalg.rank_calls": ("count", ("linalg.rank",)),
    "linalg.solve_calls": ("count", ("linalg.solve",)),
    "linalg.solve_s": ("s", ("linalg.solve",)),
    "linalg.nullspace_calls": ("count", ("linalg.nullspace",)),
    "linalg.nullspace_s": ("s", ("linalg.nullspace",)),
    "ellipticity.realizable_calls": ("count", ("ellipticity.realizable",)),
    "ellipticity.realizable_s": ("s", ("ellipticity.realizable",)),
    "ellipticity.search_self_s": ("s", ("ellipticity.realizable",)),
    "ellipticity.models_examined": ("count", ("ellipticity.realizable",)),
    "ellipticity.decided_ratio": ("ratio", ("ellipticity.realizable",)),
    "ellipticity.realized_ratio": ("ratio", ("ellipticity.realizable",)),
    "exactseq.solve_calls": ("count", ("exactseq.solve",)),
    "exactseq.solve_s": ("s", ("exactseq.solve",)),
    "exactseq.solutions": ("count", ("exactseq.solve", "exactseq.wang")),
    "exactseq.wang_calls": ("count", ("exactseq.wang",)),
    "exactseq.wang_s": ("s", ("exactseq.wang",)),
    "pipeline.analyze_s": ("s", ("pipeline.analyze",)),
    "pipeline.relative_calls": ("count", ("pipeline.relative",)),
    "pipeline.relative_s": ("s", ("pipeline.relative",)),
    "pipeline.search_self_s": ("s", ("pipeline.relative",)),
    "pipeline.branches_pruned": ("count", ("pipeline.relative",)),
    "pipeline.dd_rejections": ("count", ("pipeline.relative",)),
    "pipeline.witness_ratio": ("ratio", ("pipeline.relative",)),
    "pipeline.wang_check_s": ("s", ("pipeline.wang_check",)),
    "dsl.parse_calls": ("count", ("dsl.parse",)),
    "dsl.parse_s": ("s", ("dsl.parse",)),
    "cli.untraced_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}

# counts that must repeat exactly between two traced passes of one run
DETERMINISTIC = tuple(name for name, (unit, _) in PER_LAYER.items() if unit == "count")


def layer_metrics(total: dict, op_s: float) -> dict:
    """Per-layer values of one traced pass; `trace.overhead_s` is left to
    the caller, which alone has the untraced passes."""
    spans, counters, caches = total["spans"], total["counters"], total["caches"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    betti_hits, betti_misses = caches.get("betti", (None, None))
    values = {
        "algebra.d_calls": calls("algebra.d_check"),
        "algebra.d_check_s": own("algebra.d_check"),
        "algebra.d_assembly_s": own("algebra.d_assembly"),
        "algebra.basis_calls": calls("algebra.basis"),
        "algebra.basis_s": incl("algebra.basis"),
        "algebra.models_built": calls("algebra.with_differentials"),
        "algebra.validate_calls": calls("algebra.validate"),
        "algebra.validate_s": incl("algebra.validate"),
        "cohomology.coboundary_calls": calls("cohomology.coboundary"),
        "cohomology.coboundary_built": caches["coboundary"][1] if "coboundary" in caches else "absent",
        "cohomology.coboundary_self_s": own("cohomology.coboundary"),
        "cohomology.betti_calls": calls("cohomology.betti"),
        "cohomology.betti_hit_ratio": "absent" if betti_hits is None
        else ratio(betti_hits, betti_hits + betti_misses),
        "cohomology.is_coboundary_calls": calls("cohomology.is_coboundary"),
        "cohomology.is_coboundary_s": incl("cohomology.is_coboundary"),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_nnz_in": counters.get("rref_nnz_in", 0),
        "linalg.rref_s": incl("linalg.rref"),
        "linalg.rank_calls": calls("linalg.rank"),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_s": incl("linalg.solve"),
        "linalg.nullspace_calls": calls("linalg.nullspace"),
        "linalg.nullspace_s": incl("linalg.nullspace"),
        "ellipticity.realizable_calls": calls("ellipticity.realizable"),
        "ellipticity.realizable_s": incl("ellipticity.realizable"),
        "ellipticity.search_self_s": own("ellipticity.realizable"),
        "ellipticity.models_examined": counters.get("models_examined", 0),
        "ellipticity.decided_ratio": ratio(counters.get("decided", 0), calls("ellipticity.realizable")),
        "ellipticity.realized_ratio": ratio(counters.get("realized", 0), calls("ellipticity.realizable")),
        "exactseq.solve_calls": calls("exactseq.solve"),
        "exactseq.solve_s": incl("exactseq.solve"),
        "exactseq.solutions": counters.get("solutions", 0),
        "exactseq.wang_calls": calls("exactseq.wang"),
        "exactseq.wang_s": incl("exactseq.wang"),
        "pipeline.analyze_s": incl("pipeline.analyze"),
        "pipeline.relative_calls": calls("pipeline.relative"),
        "pipeline.relative_s": incl("pipeline.relative"),
        "pipeline.search_self_s": own("pipeline.relative"),
        "pipeline.branches_pruned": counters.get("branches_pruned", 0),
        "pipeline.dd_rejections": counters.get("dd_rejections", 0),
        "pipeline.witness_ratio": ratio(counters.get("witnesses", 0), calls("pipeline.relative")),
        "pipeline.wang_check_s": incl("pipeline.wang_check"),
        "dsl.parse_calls": calls("dsl.parse"),
        "dsl.parse_s": incl("dsl.parse"),
        "cli.untraced_s": op_s - total["root_s"],
    }
    for name, (_, needs) in PER_LAYER.items():
        if any(n in total["absent"] for n in needs):
            values[name] = "absent"
    return values
