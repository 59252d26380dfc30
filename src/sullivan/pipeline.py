"""Obstruction pipeline for compact-fiber submersion candidates.

Given a total space known up to rational homotopy, the pipeline asks which
lower-dimensional bases could carry a submersion from it.  For each base
candidate it enumerates the fiber rank vectors allowed by the long exact
homotopy sequence, then tries to kill each case with exact rational
arguments, in a fixed order:

  1. dimension formula: the fiber's formal dimension must equal
     dim(total) - dim(base);
  2. a Betti-number bound from the Wang sequence, applied when the base is
     the rational 2-sphere: b_k of the fiber can never exceed the number
     of degree-k monomials on its generators;
  3. relative Sullivan models: every differential on base+fiber generators
     (coefficients drawn from a small fixed set) must reproduce the total
     space's cohomology; if all choices fail degree-by-degree, the case
     dies with an exhaustive certificate.

A case that survives all three is reported as rationally consistent; when
the base dimension does not exceed the fiber dimension it is additionally
flagged as needing integral input, since purely rational tools are
insufficient there.  Kill certificates carry enough data to be re-checked
without re-running any search.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import (
    Element,
    GeneratorSpec,
    SullivanModel,
    _Record,
    coefficient_box,
    coefficient_set,
    format_terms,
    search_differentials,
)
from .cohomology import (
    BettiTable,
    betti,
    betti_table,
    coboundary_columns,
    coboundary_matrix,
    vector_to_element,
)
from .dsl import read_scalar, read_word
from .ellipticity import (
    RankVector,
    elliptic_verdicts,
    formal_dimension,
    generators_for,
    rank_vector_of_model,
)
from .exactseq import fiber_rank_vectors, wang_fiber_betti
from .linalg import reduce_into, rref

TWO_SPHERE = RankVector.of({2: 1, 3: 1})

INTEGRAL_FLAG = "integral-obstruction-required"

CERTIFICATE_KINDS = (
    "dimension-formula",
    "relative-model-cohomology",
    "wang-betti-bound",
)


# -- space catalog -----------------------------------------------------------

_SPHERE = "sphere"
_PROJ = "proj"

# (name, factors, aliases, table_row); dim and rank vector derive from the
# model.  Single-factor models use prefix x, products a/b/c per factor.
_CATALOG_ROWS: tuple = (
    ("S2", ((_SPHERE, 2),), (), True),
    ("S3", ((_SPHERE, 3),), (), True),
    ("S4", ((_SPHERE, 4),), (), True),
    ("CP2", ((_PROJ, 2),), (), True),
    ("S2xS2", ((_SPHERE, 2), (_SPHERE, 2)), (), True),
    ("S5", ((_SPHERE, 5),), (), True),
    ("S2xS3", ((_SPHERE, 2), (_SPHERE, 3)), (), True),
    ("S6", ((_SPHERE, 6),), (), True),
    ("CP3", ((_PROJ, 3),), (), True),
    ("S3xS3", ((_SPHERE, 3), (_SPHERE, 3)), (), True),
    ("S2xS4", ((_SPHERE, 2), (_SPHERE, 4)), (), True),
    ("S2xCP2", ((_SPHERE, 2), (_PROJ, 2)), (), True),
    ("S2xS2xS2", ((_SPHERE, 2), (_SPHERE, 2), (_SPHERE, 2)), (), True),
    ("S7", ((_SPHERE, 7),), (), True),
    ("S3xS4", ((_SPHERE, 3), (_SPHERE, 4)), (), True),
    ("S2xS5", ((_SPHERE, 2), (_SPHERE, 5)), (), True),
    ("S2xS2xS3", ((_SPHERE, 2), (_SPHERE, 2), (_SPHERE, 3)), (), True),
    ("eschenburg", ((_SPHERE, 2), (_SPHERE, 5)), ("eschenburg-rational-type",), False),
    ("bazaikin", ((_PROJ, 2), (_SPHERE, 9)), ("bazaikin-rational-type",), False),
)


def _build_model(factors: Sequence[tuple[str, int]]) -> SullivanModel:
    gens: list[tuple[str, int]] = []
    rules: list[tuple[str, str, int]] = []  # (target, source, power)
    for (kind, n), prefix in zip(factors, "abcdef"):
        p = prefix if len(factors) > 1 else "x"
        if kind == _SPHERE and n % 2 == 1:
            gens.append((f"{p}{n}", n))
        elif kind == _SPHERE:
            gens += [(f"{p}{n}", n), (f"{p}{2 * n - 1}", 2 * n - 1)]
            rules.append((f"{p}{2 * n - 1}", f"{p}{n}", 2))
        elif kind == _PROJ:
            gens += [(f"{p}2", 2), (f"{p}{2 * n + 1}", 2 * n + 1)]
            rules.append((f"{p}{2 * n + 1}", f"{p}2", n + 1))
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    model = SullivanModel.free(gens)
    return model.with_differentials({t: model.word(((s, e),)) for t, s, e in rules})


class SpaceCatalogEntry(_Record):
    """A pinned witness space: rank vector, dimension, explicit model."""

    __slots__ = ("name", "rank_vector", "dim", "model", "aliases", "table_row", "__dict__")
    _defaults = {"aliases": (), "table_row": True}

    @classmethod
    def of(
        cls, name: str, model: SullivanModel, aliases: tuple[str, ...] = (), table_row: bool = True
    ) -> "SpaceCatalogEntry":
        """The entry for model, with its rank vector and formal dimension;
        its Betti table is computed on first read of `betti`."""
        rv = rank_vector_of_model(model)
        return cls(name, rv, formal_dimension(rv), model, aliases, table_row)

    @cached_property
    def betti(self) -> BettiTable:
        """Betti numbers through the formal dimension; an instance
        attribute once read, so it stays out of == and hash."""
        return betti_table(self.model, self.dim)


@lru_cache(maxsize=1)
def catalog() -> tuple[SpaceCatalogEntry, ...]:
    """All pinned spaces: the realizable rank vectors in dimensions 2..7,
    each with a product witness model, plus the two named total spaces."""
    return tuple(
        SpaceCatalogEntry.of(name, _build_model(factors), aliases, table_row)
        for name, factors, aliases, table_row in _CATALOG_ROWS
    )


def find_entry(name: str) -> SpaceCatalogEntry:
    wanted = name.strip().lower()
    for entry in catalog():
        if entry.name.lower() == wanted:
            return entry
        if any(a.lower() == wanted for a in entry.aliases):
            return entry
    known = ", ".join(e.name for e in catalog())
    raise KeyError(f"no catalog entry named {name!r}; known: {known}")


# -- element and model serialization -----------------------------------------

def element_terms_data(x: Element) -> list[list[str]]:
    return [[mon.format(), str(c)] for mon, c in x.sorted_terms()]


def element_from_data(model: SullivanModel, terms: Sequence[Sequence[str]]) -> Element:
    """The sum of c * word over the [word, c] pairs, each field read as a
    model file reads it (`dsl.read_scalar`, `dsl.read_word`): a word is "1"
    or a factor list such as b5*a3^2, multiplied in the order written by
    `SullivanModel.word`.  Raises ValueError on a malformed field or a word
    that is 0."""
    total = model.zero()
    for word, c in terms:
        x = model.word(read_word(word))
        if not x:
            raise ValueError(f"word {word!r} is 0")
        total = total + read_scalar(c) * x
    return total


def model_data(model: SullivanModel) -> dict:
    return {
        "generators": [[g.name, g.degree, g.origin] for g in model.generators],
        "differentials": {
            name: element_terms_data(model.d_of_generator(name))
            for name in model.generator_names
            if not model.d_of_generator(name).is_zero()
        },
    }


def model_from_data(data: Mapping) -> SullivanModel:
    free = SullivanModel.free(
        [GeneratorSpec(n, d, o) for n, d, o in data["generators"]]
    )
    return free.with_differentials(
        {
            name: element_from_data(free, terms)
            for name, terms in data["differentials"].items()
        }
    )


# -- kill certificates -------------------------------------------------------

class KillCertificate(_Record):
    """A machine-checkable reason a fiber case cannot occur.

    detail is JSON-ready and self-contained.  revalidate() reruns the check
    that produced a dimension or Wang certificate on the inputs the detail
    records and asks for this very certificate; for a relative one it
    recomputes each recorded Betti mismatch without redoing the search.
    Malformed detail reads False.
    """

    __slots__ = ("kind", "detail")

    def _check(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}

    def revalidate(self) -> bool:
        d = self.detail
        try:
            if self.kind == "dimension-formula":
                return check_dimension_formula(RankVector.parse(d["fiber"]), d["required"]) == self
            if self.kind == "wang-betti-bound":
                total = BettiTable(tuple(d["total_betti"]))
                fiber = RankVector.parse(d["fiber"])
                return check_wang_bound(d["sphere_dim"], total, fiber, d["fiber_dim"]) == self
            return self._revalidate_relative()
        except (AttributeError, KeyError, ValueError, TypeError):
            return False

    def _revalidate_relative(self) -> bool:
        d = self.detail
        free = model_from_data(d["skeleton"])
        target = BettiTable(tuple(d["target"]))
        scan = d["scan"]
        pairs = [(row["assignment"], [row]) for row in d["branches"]]
        for assignment, rows in pairs + [(scan["assignment"], scan["rows"])]:
            model = free.with_differentials(
                {name: element_from_data(free, terms) for name, terms in assignment.items()}
            )
            for row in rows:
                k = row["degree"]
                if betti(model, k) != row["computed"] or row["computed"] == target[k]:
                    return False
        return True


# -- the three checks --------------------------------------------------------

def check_dimension_formula(
    fiber_ranks: RankVector, required_fiber_dim: int
) -> KillCertificate | None:
    """None when the formal dimension matches, else a certificate."""
    if required_fiber_dim < 0:
        raise ValueError("required fiber dimension must be >= 0")
    computed = formal_dimension(fiber_ranks)
    if computed == required_fiber_dim:
        return None
    return KillCertificate(
        "dimension-formula",
        {
            "fiber": fiber_ranks.to_string(),
            "computed": computed,
            "required": required_fiber_dim,
        },
    )


def check_wang_bound(
    sphere_dim: int,
    total_betti: BettiTable,
    fiber_ranks: RankVector,
    fiber_dim: int,
) -> KillCertificate | None:
    """Betti profiles of the fiber must fit both the Wang sequence over the
    sphere and the monomial-count bounds b_k <= dim Lambda^k(V_F)."""
    free = SullivanModel.free(generators_for(fiber_ranks, "z", "fiber"))
    caps = {k: free.dimension_of_degree(k) for k in range(fiber_dim + 1)}
    known = {1: fiber_ranks.get(1)}
    unconstrained = wang_fiber_betti(sphere_dim, total_betti, fiber_dim, known_fiber=known)
    if any(all(s[k] <= cap for k, cap in caps.items()) for s in unconstrained):
        return None
    degree = required = bound = None
    for k in range(fiber_dim + 1):
        if unconstrained and all(s[k] > caps[k] for s in unconstrained):
            degree = k
            required = min(s[k] for s in unconstrained)
            bound = caps[k]
            break
    return KillCertificate(
        "wang-betti-bound",
        {
            "fiber": fiber_ranks.to_string(),
            "sphere_dim": sphere_dim,
            "fiber_dim": fiber_dim,
            "total_betti": list(total_betti.values),
            "known": {str(k): v for k, v in known.items()},
            "caps": {str(k): v for k, v in caps.items()},
            "degree": degree,
            "required": required,
            "bound": bound,
            "profiles_without_caps": [list(s.values) for s in unconstrained],
        },
    )


# -- relative model family ---------------------------------------------------

def _relative_skeleton(
    base: SullivanModel, fiber_ranks: RankVector
) -> tuple[SullivanModel, list[GeneratorSpec]]:
    fiber_gens = generators_for(fiber_ranks, "z", "fiber")
    taken = set(base.generator_names)
    for g in fiber_gens:
        if g.name in taken:
            raise ValueError(f"fiber generator name {g.name} collides with the base")
    gens = [
        GeneratorSpec(g.name, g.degree, "base") for g in base.generators
    ] + fiber_gens
    free = SullivanModel.free(gens)
    # base differentials carry over with the fiber's exponents 0 appended,
    # as the relative generator order keeps base generators first
    pad = (0,) * len(fiber_gens)
    assignments = {
        name: Element(free, {vec + pad: c for vec, c in terms}) for name, terms in base.diff
    }
    return free.with_differentials(assignments), fiber_gens


def _candidate_monomials(free: SullivanModel, gen: GeneratorSpec) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree deg(g)+1 monomials allowed in D(g):
    anything touching the base, or a decomposable word in fiber generators
    alone."""
    base = [p for p, g in enumerate(free.generators) if g.origin == "base"]
    return [
        vec for vec, _ in free._tables.vectors(gen.degree + 1)
        if sum(vec) >= 2 or any(vec[p] for p in base)
    ]


def _coeff_tuple(coeff_set: Sequence) -> tuple:
    cs = coefficient_set(coeff_set)
    if not cs:
        raise ValueError("coefficient set must be nonempty")
    if 0 not in cs:
        raise ValueError("coefficient set must contain 0")
    # zero first so the untwisted product is tried before any twist
    return (0, *(c for c in cs if c != 0))


class RelativeWitness(_Record):
    """A differential assignment matching the target cohomology, and the
    number of points the search dropped by the d*d check on its way."""

    __slots__ = ("model", "assignment", "rejected_invalid")

    def assignment_text(self) -> dict[str, str]:
        return {name: str(e) for name, e in self.assignment}


def _witness_classes(
    model: SullivanModel, k: int, limit: int
) -> tuple[list[str], int, list[str]]:
    """Representatives of cohomology classes in degree k, the coboundary
    image rank, and the image's pivot monomials."""
    kernel = coboundary_matrix(model, k).nullspace_basis()
    span = rref(coboundary_columns(model, k - 1, range(model.dimension_of_degree(k - 1))))
    basis = model.basis_of_degree(k)
    image = [basis[p].format() for p in span]
    witnesses: list[str] = []
    for vec in kernel:
        # the residue, 0 at the span's pivots, joins the span
        residue = reduce_into(span, vec)
        if residue:
            lead = residue[min(residue)]
            scaled = {i: Fraction(c, lead) for i, c in residue.items()}
            witnesses.append(str(vector_to_element(model, scaled, k)))
            if len(witnesses) >= limit:
                break
    return witnesses, len(image), image


def check_relative_cohomology(
    base: SullivanModel,
    fiber_ranks: RankVector,
    target: BettiTable,
    coeff_set: Sequence = (0, 1),
) -> RelativeWitness | KillCertificate:
    """Search all relative differentials over base, a valid model, for
    one whose cohomology matches target through the bound (two degrees
    past the table's top, where target reads 0); certify the kill when
    none does.

    Branches are pruned at their first Betti mismatch, checking degrees as
    soon as every generator that can contribute is assigned.  The
    certificate records each pruned branch and a full mismatch scan of
    the deepest branch: the largest (degree, number of assigned
    generators), the first found among equals, with d = 0 on the fiber
    generators it leaves unassigned.
    """
    bound = len(target.values) + 1
    skeleton, fiber_gens = _relative_skeleton(base, fiber_ranks)
    coeffs = _coeff_tuple(coeff_set)
    candidates = {g.name: _candidate_monomials(skeleton, g) for g in fiber_gens}
    pruned: list[tuple[list[Element], int, int]] = []  # (values, degree, computed)

    def checkable_through(idx: int) -> int:
        if idx >= len(fiber_gens):
            return bound
        return min(bound, fiber_gens[idx].degree - 1)

    def options(path):
        monomials = candidates[fiber_gens[len(path)].name]
        return monomials, coefficient_box(len(monomials), coeffs)

    def node(path, model) -> bool:
        # check each degree once every generator that can contribute to
        # it is assigned
        depth = len(path)
        low = checkable_through(depth - 1) + 1 if depth else 0
        for k in range(low, checkable_through(depth) + 1):
            got = betti(model, k)
            if got != target[k]:
                pruned.append(([v for _, v in path], k, got))
                return False
        return True

    def leaf(path, model):
        # every value passed the search's d*d check and has the right
        # degree, so a leaf is valid: the search records its defect as inf
        return model, tuple((g.name, v) for g, (_, v) in zip(fiber_gens, path))

    found, dropped = search_differentials(skeleton, fiber_gens, options, node, leaf)
    if found is not None:
        return RelativeWitness(*found, rejected_invalid=dropped)

    def assignment_data(values) -> dict:
        return {g.name: element_terms_data(v) for g, v in zip(fiber_gens, values)}

    values, degree, computed = max(pruned, key=lambda b: (b[1], len(b[0])), default=([], -1, None))
    scan_model = skeleton.with_differentials({g.name: v for g, v in zip(fiber_gens, values)})
    scan_rows = []
    for k in range(bound + 1):
        got = betti(scan_model, k)
        want = target[k]
        if got == want:
            continue
        row: dict[str, object] = {"degree": k, "computed": got, "required": want}
        if got > want:
            classes, image_rank, image = _witness_classes(scan_model, k, limit=3)
            row["witnesses"] = classes
            row["image_rank"] = image_rank
            if len(image) <= 8:
                row["image"] = image
        scan_rows.append(row)
    detail = {
        "fiber": fiber_ranks.to_string(),
        "degree": degree,
        "computed": computed,
        "required": target[degree] if degree >= 0 else None,
        "target": list(target.values),
        "bound": bound,
        "coeff_set": [str(c) for c in coeffs],
        "skeleton": model_data(skeleton),
        "candidates": {
            g.name: [str(Element(skeleton, {vec: 1})) for vec in candidates[g.name]]
            for g in fiber_gens
        },
        "branches": [
            {"assignment": assignment_data(vs), "degree": k, "computed": got, "required": target[k]}
            for vs, k, got in pruned
        ],
        "rejected_invalid": dropped,
        "scan": {
            "assignment": assignment_data(scan_model.d_of_generator(g.name) for g in fiber_gens),
            "rows": scan_rows,
        },
    }
    return KillCertificate("relative-model-cohomology", detail)


# -- end-to-end analysis -----------------------------------------------------

class FiberVerdict(_Record):
    # status: "killed" | "survives-rationally"
    __slots__ = ("fiber", "status", "certificate", "flags", "witness", "checks_run")
    _defaults = {"certificate": None, "flags": (), "witness": None, "checks_run": ()}

    @property
    def survives(self) -> bool:
        return self.status == "survives-rationally"

    def to_dict(self) -> dict:
        out: dict[str, object] = {
            "ranks": str(self.fiber),
            "verdict": self.status,
            "checks_run": list(self.checks_run),
            "flags": list(self.flags),
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class BaseAnalysis(_Record):
    __slots__ = ("name", "base", "dim", "fiber_dim", "verdicts")

    @property
    def survives(self) -> bool:
        return any(v.survives for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": {"ranks": str(self.base), "dim": self.dim},
            "fiber_dim": self.fiber_dim,
            "survives": self.survives,
            "fibers": [v.to_dict() for v in self.verdicts],
        }


class ObstructionReport(_Record):
    __slots__ = ("total_name", "total", "total_dim", "max_base_dim", "entries")

    @property
    def survivors(self) -> tuple[BaseAnalysis, ...]:
        return tuple(e for e in self.entries if e.survives)

    def to_dict(self) -> dict:
        return {
            "total": {
                "name": self.total_name,
                "ranks": str(self.total),
                "dim": self.total_dim,
            },
            "max_base_dim": self.max_base_dim,
            "bases": [e.to_dict() for e in self.entries],
            "survivors": [e.name for e in self.survivors],
        }


def analyze(
    total: SpaceCatalogEntry | str,
    max_base_dim: int,
    coeff_set: Sequence = (0, 1),
) -> ObstructionReport:
    """Sweep every catalog base up to the dimension cap and judge every
    fiber case the homotopy sequence allows."""
    entry = find_entry(total) if isinstance(total, str) else total
    if not (2 <= max_base_dim < entry.dim):
        raise ValueError("need 2 <= max_base_dim < dim(total)")
    bases = sorted(
        (e for e in catalog() if e.table_row and e.dim <= max_base_dim),
        key=lambda e: (e.dim, e.rank_vector.padded(e.dim)),
    )
    analyses = []
    for base_entry in bases:
        fiber_dim = entry.dim - base_entry.dim
        verdicts = []
        for fiber in fiber_rank_vectors(entry.rank_vector, base_entry.rank_vector):
            checks = ["dimension-formula"]
            outcome = check_dimension_formula(fiber, fiber_dim)
            if outcome is None and base_entry.rank_vector == TWO_SPHERE:
                checks.append("wang-betti-bound")
                outcome = check_wang_bound(2, entry.betti, fiber, fiber_dim)
            if outcome is None:
                checks.append("relative-model-cohomology")
                outcome = check_relative_cohomology(base_entry.model, fiber, entry.betti, coeff_set)
            if isinstance(outcome, KillCertificate):
                verdict = FiberVerdict(fiber, "killed", certificate=outcome, checks_run=tuple(checks))
            else:
                flags = (INTEGRAL_FLAG,) if base_entry.dim <= fiber_dim else ()
                witness = {"differentials": outcome.assignment_text()}
                verdict = FiberVerdict(
                    fiber, "survives-rationally", flags=flags, witness=witness, checks_run=tuple(checks)
                )
            verdicts.append(verdict)
        analyses.append(
            BaseAnalysis(
                name=base_entry.name,
                base=base_entry.rank_vector,
                dim=base_entry.dim,
                fiber_dim=fiber_dim,
                verdicts=tuple(verdicts),
            )
        )
    return ObstructionReport(
        total_name=entry.name,
        total=entry.rank_vector,
        total_dim=entry.dim,
        max_base_dim=max_base_dim,
        entries=tuple(analyses),
    )


# -- canned reproductions ----------------------------------------------------

REPRODUCE_TARGETS = (
    "table1",
    "prop31",
    "prop32",
    "prop41",
    "prop42",
    "theoremA",
    "theoremB",
)

_TARGET_ALIASES = {
    "theorem-a": "theoremA",
    "theorem-b": "theoremB",
}


def realized_rank_vectors(n: int) -> list[RankVector]:
    """Rank vectors of elliptic spaces of dimension n, in canonical order,
    that `elliptic_verdicts` realizes, by a certified pure witness or else
    the walk over the pure models in the box; the candidates failing the
    arithmetic condition get no verdict."""
    return [v.f for v in elliptic_verdicts(n) if v.status == "realized"]


def audit_table() -> list[str]:
    """Check the pinned catalog against the live enumeration.

    Returns discrepancy messages, one per dimension where the realized
    rank vectors differ from the catalog rows; empty means the fixture
    is faithful.
    """
    problems = []
    for n in range(2, 8):
        pinned = {str(e.rank_vector) for e in catalog() if e.table_row and e.dim == n}
        live = {str(f) for f in realized_rank_vectors(n)}
        if pinned != live:
            problems.append(
                f"dim {n}: catalog {sorted(pinned)} vs enumeration {sorted(live)}"
            )
    return problems


def reproduce(target: str) -> dict:
    """Deterministic reports for the pinned headline computations."""
    target = _TARGET_ALIASES.get(target, target)
    if target not in REPRODUCE_TARGETS:
        raise ValueError(
            f"unknown target {target!r}; expected one of {', '.join(REPRODUCE_TARGETS)}"
        )
    if target == "table1":
        return {
            "target": "table1",
            "dimensions": {
                str(n): [str(f) for f in realized_rank_vectors(n)]
                for n in range(2, 8)
            },
        }
    if target == "prop31":
        return {"target": "prop31", **analyze("eschenburg", 6).to_dict()}
    if target == "prop32":
        return {"target": "prop32", **analyze("eschenburg", 3).to_dict()}
    if target == "prop41":
        return {"target": "prop41", **analyze("bazaikin", 7).to_dict()}
    if target == "prop42":
        return _reproduce_prop42()
    if target == "theoremA":
        report = analyze("eschenburg", 6)
        return _theorem_summary("theoremA", report)
    report = analyze("bazaikin", 7)
    return _theorem_summary("theoremB", report)


def _reproduce_prop42() -> dict:
    """The projective-plane base of the 13-dimensional total space, with
    the degree-6 coboundary span that decides the three-generator case."""
    total = find_entry("bazaikin")
    report = analyze(total, 7)
    base_block = next(e for e in report.entries if e.name == "CP2")
    out = {
        "target": "prop42",
        "total": {"name": total.name, "rank_vector": str(total.rank_vector), "dim": total.dim},
        "base": base_block.to_dict(),
    }
    for verdict in base_block.verdicts:
        if verdict.certificate is None:
            continue
        if verdict.certificate.kind != "relative-model-cohomology":
            continue
        detail = verdict.certificate.detail
        for row in detail["scan"]["rows"]:
            if row["degree"] == 6 and "image" in row:
                out["degree6_span"] = {
                    "fiber": detail["fiber"],
                    "forced": {
                        name: format_terms(terms)
                        for name, terms in detail["scan"]["assignment"].items()
                    },
                    "rank": row["image_rank"],
                    "monomials": row["image"],
                    "witnesses": row.get("witnesses", []),
                }
    return out


def _theorem_summary(name: str, report: ObstructionReport) -> dict:
    flagged = []
    for entry in report.entries:
        for verdict in entry.verdicts:
            if INTEGRAL_FLAG in verdict.flags:
                flagged.append({"base": entry.name, "fiber": str(verdict.fiber)})
    return {
        "target": name,
        "analysis": report.to_dict(),
        "rationally_possible_bases": [e.name for e in report.survivors],
        "integral_steps_required": flagged,
    }
