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
    Monomial,
    SullivanModel,
    _Value,
    coefficient_box,
    search_differentials,
)
from .cohomology import (
    BettiTable,
    betti,
    betti_table,
    coboundary_matrix,
    vector_to_element,
)
from .ellipticity import (
    RankVector,
    elliptic_verdicts,
    formal_dimension,
    generators_for,
    rank_vector_of_model,
)
from .exactseq import fiber_rank_vectors, wang_fiber_betti
from .linalg import reduce_against, rref, vec_add_scaled

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
    return model.with_differentials({t: model.gen(s) ** e for t, s, e in rules})


class SpaceCatalogEntry(_Value):
    """A pinned witness space: rank vector, dimension, explicit model."""

    __slots__ = ("name", "rank_vector", "dim", "model", "aliases", "table_row", "__dict__")

    def __init__(
        self,
        name: str,
        rank_vector: RankVector,
        dim: int,
        model: SullivanModel,
        aliases: tuple[str, ...] = (),
        table_row: bool = True,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rank_vector", rank_vector)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "aliases", aliases)
        object.__setattr__(self, "table_row", table_row)

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


def monomial_from_word(model: SullivanModel, word: str) -> Monomial:
    """Parse "x2^2*z1" back into a canonical monomial."""
    if word == "1":
        return Monomial()
    counts: dict[str, int] = {}
    for factor in word.split("*"):
        if "^" in factor:
            name, _, e = factor.partition("^")
            counts[name] = counts.get(name, 0) + int(e)
        else:
            counts[factor] = counts.get(factor, 0) + 1
    index = model.generator_index
    for name in counts:
        if name not in index:
            raise ValueError(f"unknown generator {name!r} in word {word!r}")
    exps = tuple(
        (name, counts[name]) for name in sorted(counts, key=index.__getitem__)
    )
    return Monomial(exps)


def element_from_data(model: SullivanModel, terms: Sequence[Sequence[str]]) -> Element:
    return model.element_from_terms(
        {monomial_from_word(model, word): Fraction(c) for word, c in terms}
    )


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

class KillCertificate(_Value):
    """A machine-checkable reason a fiber case cannot occur.

    detail is JSON-ready and self-contained: revalidate() recomputes each
    recorded mismatch from the stored data alone, without redoing the
    search that produced the certificate.
    """

    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: dict):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "detail", detail)
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}

    def revalidate(self) -> bool:
        try:
            if self.kind == "dimension-formula":
                return self._revalidate_dimension()
            if self.kind == "wang-betti-bound":
                return self._revalidate_wang()
            return self._revalidate_relative()
        except (KeyError, ValueError, TypeError):
            return False

    def _revalidate_dimension(self) -> bool:
        d = self.detail
        f = RankVector.parse(d["fiber"])
        return (
            formal_dimension(f) == d["computed"]
            and d["computed"] != d["required"]
        )

    def _revalidate_wang(self) -> bool:
        d = self.detail
        total = BettiTable(tuple(d["total_betti"]))
        known = {int(k): v for k, v in d["known"].items()}
        caps = {int(k): v for k, v in d["caps"].items()}
        capped = wang_fiber_betti(
            d["sphere_dim"], total, d["fiber_dim"],
            known_fiber=known, upper_bounds=caps,
        )
        if capped:
            return False
        if d.get("degree") is None:
            return True
        unconstrained = wang_fiber_betti(
            d["sphere_dim"], total, d["fiber_dim"], known_fiber=known
        )
        k = d["degree"]
        return bool(unconstrained) and all(s[k] > d["bound"] for s in unconstrained)

    def _revalidate_relative(self) -> bool:
        d = self.detail
        free = model_from_data(d["skeleton"])
        target = BettiTable(tuple(d["target"]))

        def apply(assignment: Mapping[str, Sequence]) -> SullivanModel:
            return free.with_differentials(
                {name: element_from_data(free, terms) for name, terms in assignment.items()}
            )

        for row in d["branches"]:
            model = apply(row["assignment"])
            if betti(model, row["degree"]) != row["computed"]:
                return False
            if row["computed"] == target[row["degree"]]:
                return False
        scan = d["scan"]
        model = apply(scan["assignment"])
        for row in scan["rows"]:
            if betti(model, row["degree"]) != row["computed"]:
                return False
            if row["computed"] == target[row["degree"]]:
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
    capped = wang_fiber_betti(
        sphere_dim, total_betti, fiber_dim, known_fiber=known, upper_bounds=caps
    )
    if capped:
        return None
    unconstrained = wang_fiber_betti(
        sphere_dim, total_betti, fiber_dim, known_fiber=known
    )
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
    # base differentials carry over verbatim: monomial names are shared and
    # the relative generator order keeps base generators first
    assignments = {}
    for name in base.generator_names:
        dx = base.d_of_generator(name)
        if not dx.is_zero():
            assignments[name] = free.element_from_terms(dx.terms)
    return free.with_differentials(assignments), fiber_gens


def _candidate_monomials(free: SullivanModel, gen: GeneratorSpec) -> list[Monomial]:
    """Degree deg(g)+1 monomials allowed in D(g): anything touching the
    base, or a decomposable word in fiber generators alone."""
    out = []
    for mon in free.basis_of_degree(gen.degree + 1):
        origins = {free.generator(name).origin for name, _ in mon.exps}
        if "base" in origins:
            out.append(mon)
        elif mon.factor_count >= 2:
            out.append(mon)
    return out


def _coeff_tuple(coeff_set: Sequence) -> tuple[Fraction, ...]:
    cs = tuple(dict.fromkeys(Fraction(c) for c in coeff_set))
    if not cs:
        raise ValueError("coefficient set must be nonempty")
    if Fraction(0) not in cs:
        raise ValueError("coefficient set must contain 0")
    # zero first so the untwisted product is tried before any twist
    return tuple(sorted(cs, key=lambda c: (c != 0, c)))


class RelativeWitness(_Value):
    """A differential assignment matching the target cohomology, and the
    number of points the search dropped by the d*d check on its way."""

    __slots__ = ("model", "assignment", "rejected_invalid")

    def __init__(
        self, model: SullivanModel, assignment: tuple[tuple[str, Element], ...], rejected_invalid: int
    ):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "rejected_invalid", rejected_invalid)

    def assignment_text(self) -> dict[str, str]:
        return {name: str(e) for name, e in self.assignment}


def _witness_classes(
    model: SullivanModel, k: int, limit: int
) -> tuple[list[str], int, list[str]]:
    """Representatives of cohomology classes in degree k, the coboundary
    image rank, and the image's pivot monomials."""
    kernel = coboundary_matrix(model, k).nullspace_basis()
    image_rows: list = []
    if k > 0:
        image_rows = coboundary_matrix(model, k - 1).transpose().rows
    reduced, pivots = rref(image_rows)
    image_rank = len(pivots)
    basis = model.basis_of_degree(k)
    image_monomials = [basis[p].format() for p in pivots]
    witnesses: list[str] = []
    span = dict(zip(pivots, reduced))
    for vec in kernel:
        residue = reduce_against(span, vec)
        if not residue:
            continue
        lead = min(residue)
        scaled = {i: c / residue[lead] for i, c in residue.items()}
        witnesses.append(str(vector_to_element(model, scaled, k)))
        if len(witnesses) >= limit:
            break
        # grow the span by the residue, which is 0 at its pivots, and
        # clear the residue's pivot from its rows, so the span stays reduced
        for row in span.values():
            vec_add_scaled(row, scaled, -row.get(lead, 0))
        span[lead] = scaled
    return witnesses, image_rank, image_monomials


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
    certificate records each pruned branch and a full mismatch scan of the
    deepest branch completed with zero differentials.
    """
    bound = len(target.values) + 1
    skeleton, fiber_gens = _relative_skeleton(base, fiber_ranks)
    coeffs = _coeff_tuple(coeff_set)
    candidates = {g.name: _candidate_monomials(skeleton, g) for g in fiber_gens}
    branches: list[dict] = []

    def assignment_data(path) -> dict:
        return {g.name: element_terms_data(v) for g, (_, v) in zip(fiber_gens, path)}

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
                branches.append(
                    {
                        "assignment": assignment_data(path),
                        "degree": k,
                        "computed": got,
                        "required": target[k],
                    }
                )
                return False
        return True

    def leaf(path, model):
        # every value passed the search's d*d check and has the right
        # degree by construction, so a leaf is a valid model
        return model, tuple((g.name, v) for g, (_, v) in zip(fiber_gens, path))

    found, dropped = search_differentials(skeleton, fiber_gens, options, node, leaf)
    if found is not None:
        return RelativeWitness(*found, rejected_invalid=dropped)

    if branches:
        deepest = max(branches, key=lambda r: (r["degree"], len(r["assignment"])))
    else:
        deepest = {"assignment": {}, "degree": -1}
    scan_assignment = dict(deepest["assignment"])
    for g in fiber_gens:
        scan_assignment.setdefault(g.name, [])
    scan_model = skeleton.with_differentials(
        {n: element_from_data(skeleton, terms) for n, terms in scan_assignment.items()}
    )
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
        "degree": deepest["degree"],
        "computed": deepest.get("computed"),
        "required": target[deepest["degree"]] if deepest["degree"] >= 0 else None,
        "target": list(target.values),
        "bound": bound,
        "coeff_set": [str(c) for c in coeffs],
        "skeleton": model_data(skeleton),
        "candidates": {
            g.name: [m.format() for m in candidates[g.name]] for g in fiber_gens
        },
        "branches": branches,
        "rejected_invalid": dropped,
        "scan": {"assignment": scan_assignment, "rows": scan_rows},
    }
    return KillCertificate("relative-model-cohomology", detail)


# -- end-to-end analysis -----------------------------------------------------

class FiberVerdict(_Value):
    __slots__ = ("fiber", "status", "certificate", "flags", "witness", "checks_run")

    def __init__(
        self,
        fiber: RankVector,
        status: str,
        certificate: KillCertificate | None = None,
        flags: tuple[str, ...] = (),
        witness: dict | None = None,
        checks_run: tuple[str, ...] = (),
    ):
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "status", status)  # "killed" | "survives-rationally"
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "checks_run", checks_run)

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


class BaseAnalysis(_Value):
    __slots__ = ("name", "base", "dim", "fiber_dim", "verdicts")

    def __init__(
        self, name: str, base: RankVector, dim: int, fiber_dim: int, verdicts: tuple[FiberVerdict, ...]
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "fiber_dim", fiber_dim)
        object.__setattr__(self, "verdicts", verdicts)

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


class ObstructionReport(_Value):
    __slots__ = ("total_name", "total", "total_dim", "max_base_dim", "entries")

    def __init__(
        self,
        total_name: str,
        total: RankVector,
        total_dim: int,
        max_base_dim: int,
        entries: tuple[BaseAnalysis, ...],
    ):
        object.__setattr__(self, "total_name", total_name)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "total_dim", total_dim)
        object.__setattr__(self, "max_base_dim", max_base_dim)
        object.__setattr__(self, "entries", entries)

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
            cert = check_dimension_formula(fiber, fiber_dim)
            if cert is None and base_entry.rank_vector == TWO_SPHERE:
                checks.append("wang-betti-bound")
                cert = check_wang_bound(2, entry.betti, fiber, fiber_dim)
            witness = None
            if cert is None:
                checks.append("relative-model-cohomology")
                outcome = check_relative_cohomology(
                    base_entry.model, fiber, entry.betti, coeff_set
                )
                if isinstance(outcome, KillCertificate):
                    cert = outcome
                else:
                    witness = outcome
            if cert is not None:
                verdicts.append(
                    FiberVerdict(
                        fiber, "killed", certificate=cert, checks_run=tuple(checks)
                    )
                )
            else:
                flags = ()
                if base_entry.dim <= fiber_dim:
                    flags = (INTEGRAL_FLAG,)
                verdicts.append(
                    FiberVerdict(
                        fiber,
                        "survives-rationally",
                        flags=flags,
                        witness={"differentials": witness.assignment_text()},
                        checks_run=tuple(checks),
                    )
                )
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
        skeleton = model_from_data(detail["skeleton"])
        for row in detail["scan"]["rows"]:
            if row["degree"] == 6 and "image" in row:
                out["degree6_span"] = {
                    "fiber": detail["fiber"],
                    "forced": {
                        name: str(element_from_data(skeleton, terms))
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
