"""Homotopy rank vectors and which of them carry an elliptic model.

A rank vector f records, per degree i, the rank f_i of the degree-i
rational homotopy.  For a model on such generators the formal dimension
is

    n = sum over odd i of i*f_i  -  sum over even i of (i-1)*f_i,

and finite-dimensional cohomology forces the classical numeric bounds
(at least as many odd ranks as even, odd degrees summing to at most
2n-1, even degrees to at most n).  `enumerate_candidates` lists every
vector passing those bounds for a given n.  The bounds are necessary
only; the strong arithmetic condition of Friedlander and Halperin
(`sac_violation`) decides which candidates are rank vectors of elliptic
spaces.  `pure_witness` builds, for a vector meeting it, a pure model on
its generators and certifies its cohomology finite (the sufficiency
half of Friedlander-Halperin).  `realizable` decides whether a vector
has an elliptic minimal model with coefficients from a small set: by
SAC, then a pure witness, then a walk over every pure model in that
coefficient box.  Each step is certified, so "realized" comes with a
model of finite cohomology and "unrealizable" is a proof over the named
box.  `elliptic_verdicts` applies it to the candidates that meet the
condition, and no others.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import combinations
from operator import add

from .algebra import (
    Element,
    GeneratorSpec,
    Scalar,
    SullivanModel,
    _Record,
    coefficient_box,
    coefficient_set,
    search_differentials,
)
from .dsl import read_pairs
from .linalg import extend_echelon


class RankVector(_Record):
    """Sparse map degree -> rank, degrees ascending, zero ranks dropped."""

    __slots__ = ("counts",)

    def _check(self):
        degs = [d for d, _ in self.counts]
        if degs != sorted(set(degs)):
            raise ValueError("degrees must be strictly ascending")
        for d, c in self.counts:
            if d < 1 or c < 1:
                raise ValueError(f"bad entry {d}:{c}")

    @classmethod
    def of(cls, ranks: Mapping[int, int]) -> "RankVector":
        return cls(tuple(sorted((d, c) for d, c in ranks.items() if c)))

    @classmethod
    def parse(cls, text: str) -> "RankVector":
        """Parse "2:1,3:2" by `dsl.read_pairs`; "" is the empty vector."""
        return cls.of(read_pairs(text, ":"))

    def to_string(self) -> str:
        return ",".join(f"{d}:{c}" for d, c in self.counts)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def get(self, degree: int) -> int:
        return dict(self.counts).get(degree, 0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.counts)

    @property
    def max_degree(self) -> int:
        return self.counts[-1][0] if self.counts else 0

    def total(self, parity: str | None = None) -> int:
        if parity == "odd":
            return sum(c for d, c in self.counts if d % 2 == 1)
        if parity == "even":
            return sum(c for d, c in self.counts if d % 2 == 0)
        return sum(c for _, c in self.counts)

    def weighted(self, parity: str) -> int:
        if parity == "odd":
            return sum(d * c for d, c in self.counts if d % 2 == 1)
        return sum(d * c for d, c in self.counts if d % 2 == 0)

    def padded(self, upto: int) -> tuple[int, ...]:
        m = self.as_dict()
        return tuple(m.get(i, 0) for i in range(1, upto + 1))

    def __str__(self):
        return "{" + ", ".join(f"{d}:{c}" for d, c in self.counts) + "}"


def canonical_sorted(vectors: Iterable[RankVector]) -> list[RankVector]:
    vs = list(vectors)
    upto = max((v.max_degree for v in vs), default=0)
    return sorted(vs, key=lambda v: v.padded(upto))


def formal_dimension(f: RankVector) -> int:
    return sum(d * c for d, c in f.counts if d % 2 == 1) - sum(
        (d - 1) * c for d, c in f.counts if d % 2 == 0
    )


def rank_vector_of_model(model: SullivanModel) -> RankVector:
    ranks: dict[int, int] = {}
    for g in model.generators:
        ranks[g.degree] = ranks.get(g.degree, 0) + 1
    return RankVector.of(ranks)


def feasibility_failures(f: RankVector, n: int) -> list[str]:
    """Which of the finite-cohomology numeric bounds fail for target n.

    These are necessary conditions on the sums and counts of degrees, not
    the Friedlander-Halperin arithmetic condition (`sac_violation`): a
    vector can pass them and still carry no elliptic model, e.g.
    {3:1, 4:1, 5:1} for n = 5."""
    out = []
    if formal_dimension(f) != n:
        out.append(f"formal dimension {formal_dimension(f)} != {n}")
    if f.total("even") > f.total("odd"):
        out.append(f"even count {f.total('even')} exceeds odd count {f.total('odd')}")
    if f.weighted("odd") > 2 * n - 1:
        out.append(f"odd degree sum {f.weighted('odd')} exceeds {2 * n - 1}")
    if f.weighted("even") > n:
        out.append(f"even degree sum {f.weighted('even')} exceeds {n}")
    return out


def fh_feasible(f: RankVector, n: int) -> bool:
    """f passes every numeric bound of `feasibility_failures` for n; see
    `sac_violation` for the condition that decides ellipticity."""
    return not feasibility_failures(f, n)


def enumerate_candidates(n: int) -> list[RankVector]:
    """All rank vectors feasible for formal dimension n, simply connected.

    Support lies in [2, 2n-1]; the weighted bounds box the search, then
    `fh_feasible` filters.  Output is in ascending lexicographic order on
    the padded sequences.
    """
    if n < 1:
        return []
    out: list[RankVector] = []
    degrees = range(2, 2 * n)

    def rec(i: int, odd_budget: int, even_budget: int, acc: list[tuple[int, int]]):
        if i >= 2 * n:
            f = RankVector(tuple(acc))
            if fh_feasible(f, n):
                out.append(f)
            return
        cap = odd_budget // i if i % 2 else even_budget // i
        for c in range(0, cap + 1):
            if c:
                acc.append((i, c))
            rec(
                i + 1,
                odd_budget - (i * c if i % 2 else 0),
                even_budget - (0 if i % 2 else i * c),
                acc,
            )
            if c:
                acc.pop()

    rec(2, 2 * n - 1, n, [])
    return canonical_sorted(out)


def _sum_of_two_or_more(k: int, degrees: Sequence[int]) -> bool:
    """Whether k is a sum of at least two entries of degrees, repeats
    allowed."""
    one = set()  # sums of at least one entry, below k
    for j in range(1, k):
        if any(j == d or j - d in one for d in degrees):
            one.add(j)
    return any(k - d in one for d in degrees)


def sac_violation(f: RankVector) -> tuple[int, ...] | None:
    """The even degrees of a set of generators on which f fails the strong
    arithmetic condition (SAC) of Friedlander and Halperin, or None when f
    meets it.

    SAC: for every nonempty set S of even generators, at least |S| odd
    generators y have |y|+1 equal to a sum of at least two degrees from S,
    repeats allowed.  Whether an odd y counts depends only on the set D of
    degrees in S, and the largest S with degrees D (every even generator
    whose degree lies in D) is the hardest, so only the subsets D of
    distinct even degrees are tried, smallest first.  A simply connected f
    meets SAC exactly when it is the rank vector of an elliptic space:
    Friedlander and Halperin, Invent. Math. 53 (1979); Felix, Halperin and
    Thomas, Rational Homotopy Theory, GTM 205, section 32.

    Necessity: the pure model associated with an elliptic minimal model
    has the same ranks and finite cohomology, so the even generators x
    span a polynomial ring Q[x] modulo whose ideal (dy : y odd) is finite
    dimensional.  Setting the evens outside S to zero keeps the quotient
    finite dimensional, now of Q[x_S], and a polynomial ring in |S|
    variables needs at least |S| relations for that.  Minimality makes
    each dy decomposable, so its image in Q[x_S] is zero unless |y|+1 is a
    sum of at least two degrees from S.
    """
    evens = [(d, c) for d, c in f.counts if d % 2 == 0]
    odds = [(d, c) for d, c in f.counts if d % 2 == 1]
    for size in range(1, len(evens) + 1):
        for chosen in combinations(evens, size):
            degrees = [d for d, _ in chosen]
            relations = sum(c for d, c in odds if _sum_of_two_or_more(d + 1, degrees))
            if relations < sum(c for _, c in chosen):
                return tuple(degrees)
    return None


# -- realizability search -------------------------------------------------


class RealizabilityVerdict(_Record):
    """Result of the decision for one rank vector over a coefficient box.

    status is "realized" (model present: a pure model certified to have
    finite cohomology), "unrealizable" (a proof that no minimal model in
    the box is elliptic: f fails SAC, or no pure model in the box has
    finite cohomology), or "inconclusive" (the budget ran out first).
    `examined` counts the pure models the box walk built, 0 when SAC or a
    pure witness decides.  `note` names the failing degrees or the
    coefficient set and, for a pure witness, the attempt that found it.
    """

    __slots__ = ("status", "f", "model", "examined", "note")
    _defaults = {"model": None, "examined": 0, "note": ""}


def generators_for(
    f: RankVector, prefix: str = "g", origin: str = "plain"
) -> list[GeneratorSpec]:
    """Generators for f in degree order: prefix+d for a lone generator of
    degree d, prefix+d_j (j from 1) when there are several."""
    gens = []
    for d, c in f.counts:
        if c == 1:
            gens.append(GeneratorSpec(f"{prefix}{d}", d, origin))
        else:
            gens.extend(
                GeneratorSpec(f"{prefix}{d}_{j}", d, origin) for j in range(1, c + 1)
            )
    return gens


def _even_exponents(free: SullivanModel, k: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree-k monomials in the even generators
    alone, in basis order."""
    return [vec for vec, odd_mask in free._tables.vectors(k) if not odd_mask]


def _relation_columns(free: SullivanModel, top, value, shifts) -> Iterator[dict]:
    """The multiples m*q of the pure-even part q of value, one column over
    top (exponent vector -> row) per exponent vector m in shifts, with
    q's coefficients, which `extend_echelon` scales to integers."""
    mask = free._tables.mask
    q = [(vec, c) for vec, c in value._terms.items() if not mask(vec)]
    for shift in shifts:
        yield {top[tuple(map(add, shift, vec))]: c for vec, c in q}


def _pure_shape(f: RankVector):
    """The free model on f's generators, its odd generators y in degree
    order, per y the candidates for dy (the exponent vectors of the
    even-only monomials of length at least 2 in degree |y|+1), and one
    ideal slice per even degree k in (n, n+e], n the formal dimension and
    e the largest even generator degree: the even monomials of degree k
    (exponent vector -> row), and per y the m whose multiples m*dy land
    in degree k.

    A pure model on f has finite cohomology iff Q[x]/(dy) is finite
    (Halperin, Trans. AMS 230, 1977; Felix, Halperin and Thomas, GTM 205,
    section 32), iff the ideal (dy) fills every slice.  If it does, it
    fills every degree D > n+e, by induction on D: a monomial of degree D
    is x*m, x a generator and m of degree D-|x| in (n, D).  Conversely
    Q[x]/(dy) lies in the cohomology, which vanishes above n if finite.
    """
    n = formal_dimension(f)
    free = SullivanModel.free(generators_for(f))
    odds = [g for g in free.generators if g.is_odd]
    e = max((g.degree for g in free.generators if not g.is_odd), default=0)
    monomials = [
        [vec for vec in _even_exponents(free, y.degree + 1) if sum(vec) >= 2] for y in odds
    ]
    slices = []
    for k in range(n + 2 - n % 2, n + e + 1, 2):
        top = {vec: i for i, vec in enumerate(_even_exponents(free, k))}
        slices.append((top, [_even_exponents(free, k - y.degree - 1) for y in odds]))
    return free, odds, monomials, slices


def _extend_slices(free: SullivanModel, slices, echelons, j: int, values: Sequence[Element]):
    """Each slice's echelon, of the ideal of dy over the odd generators
    before j, extended by the multiples m*dy of the next ones, dy in values;
    None once, in some slice, the rank plus the multiples of the odd
    generators after those falls short."""
    extended = []
    for echelon, (top, shifts) in zip(echelons, slices):
        columns = (
            column
            for value, shift in zip(values, shifts[j:])
            for column in _relation_columns(free, top, value, shift)
        )
        echelon = extend_echelon(echelon, columns, len(top))
        if len(echelon) + sum(map(len, shifts[j + len(values):])) < len(top):
            return None
        extended.append(echelon)
    return extended


PURE_ATTEMPTS = 8


def _drawn_coefficients(coeffs: Sequence[Scalar], attempt: int, index: int) -> Iterator[Scalar]:
    """Coefficients drawn uniformly from coeffs by a `random.Random` seeded
    with the string "attempt/index": seeded, so every run draws the same
    ones.  A string seed is hashed (SHA-512), so each (attempt, index) has
    a stream of its own.  The integer seed attempt << 32 | index would
    not: the Mersenne Twister's seeding gives it the same stream at
    attempts 0 and index - 1."""
    draw = random.Random(f"{attempt}/{index}")
    while coeffs:
        yield draw.choice(coeffs)


def pure_witness(
    f: RankVector, coeff_set: Sequence = (-1, 0, 1)
) -> tuple[SullivanModel, int] | None:
    """A pure minimal model on f's generators certified to have finite
    cohomology, with the attempt that found it, or None.

    The model has dx = 0 on the even generators x and, on the odd
    generators y, dy a combination of the even-only monomials of length
    at least 2 in degree |y|+1, so d*d = 0 and the model is minimal.  The
    coefficients come from coeff_set, sorted, by `_drawn_coefficients`;
    attempt a = 0, 1, ..., PURE_ATTEMPTS - 1 reseeds it.  The certificate
    is that the ideal (dy) fills every slice of `_pure_shape`, checked by
    integer elimination of the multiples m*dy (`_extend_slices`).
    """
    if any(d < 2 for d in f.support):
        raise ValueError("a pure witness requires a simply connected rank vector")
    coeffs = coefficient_set(coeff_set)
    free, odds, monomials, slices = _pure_shape(f)
    for attempt in range(PURE_ATTEMPTS):
        values = [
            Element(free, dict(zip(mons, _drawn_coefficients(coeffs, attempt, j))))
            for j, mons in enumerate(monomials)
        ]
        if _extend_slices(free, slices, [{} for _ in slices], 0, values) is not None:
            return free.with_differentials(dict(zip((y.name for y in odds), values))), attempt
    return None


def _walk_pure_models(
    f: RankVector, coeffs: Sequence[Scalar], max_models: int | None = None
) -> RealizabilityVerdict:
    """Walk the pure models on f with coefficients in coeffs (ascending),
    building at most max_models, until one has finite cohomology.

    `search_differentials` assigns dy to the odd generators y in degree
    order, nondecreasing within a degree, as those are interchangeable.
    Each depth keeps one echelon per slice of `_pure_shape`, its parent's
    extended by the multiples m*dy of its own y, and prunes, the root too,
    once in some slice the rank plus what the deeper y can add falls short
    (`_extend_slices`).  So a leaf fills every slice, and its model is
    certified.
    """
    free, odds, monomials, slices = _pure_shape(f)
    box = f"coefficients from {sorted(map(str, coeffs))}"
    # echelons[i][s]: slice s of the ideal of dy over the first i odds
    echelons: list = [_extend_slices(free, slices, [{} for _ in slices], 0, ())] * (len(odds) + 1)
    examined, refused = 0, False

    def counted(points):
        nonlocal examined, refused
        for point in points:
            if examined == max_models:
                refused = True
                return
            examined += 1
            yield point

    def options(path):
        i = len(path)
        same = i > 0 and odds[i - 1].degree == odds[i].degree
        start = path[-1][0] if same else 0
        return monomials[i], counted(coefficient_box(len(monomials[i]), coeffs, start))

    def node(path, model) -> bool:
        depth = len(path)
        if depth:
            echelons[depth] = _extend_slices(
                free, slices, echelons[depth - 1], depth - 1, [path[-1][1]]
            )
        return echelons[depth] is not None

    def leaf(path, model) -> RealizabilityVerdict:
        note = f"pure model with {box}, Q[x]/(dy) zero above degree {formal_dimension(f)}"
        return RealizabilityVerdict("realized", f, model, examined, note)

    verdict, _ = search_differentials(free, odds, options, node, leaf)
    if verdict is not None:
        return verdict
    if refused:
        note = f"budget of {max_models} pure models exhausted"
        return RealizabilityVerdict("inconclusive", f, None, examined, note)
    note = f"no pure model with {box} has finite cohomology"
    return RealizabilityVerdict("unrealizable", f, None, examined, note)


def realizable(
    f: RankVector,
    coeff_set: Sequence = (-1, 0, 1),
    max_models: int | None = None,
) -> RealizabilityVerdict:
    """Decide whether f has an elliptic minimal model with coefficients
    from coeff_set, read in ascending order whatever order it is given in.

    A vector failing SAC (`sac_violation`) is "unrealizable", as SAC is
    necessary.  Otherwise the `pure_witness` attempts come first, then
    `_walk_pure_models` over the whole box, which decides it both ways:
    the associated pure model (dx = 0, dy the pure-even part of dy) of an
    elliptic minimal model in the box is elliptic and in the box too (FHT
    GTM 205, section 32).  So "unrealizable" is a proof over the named
    box, and "inconclusive" means the walk stopped short at max_models.
    """
    if max_models is not None and max_models < 0:
        raise ValueError(f"max_models must not be negative, got {max_models}")
    if any(d < 2 for d in f.support):
        raise ValueError("realizability requires a simply connected rank vector")
    failing = sac_violation(f)
    if failing is not None:
        note = f"fails the arithmetic condition on even degrees {failing}"
        return RealizabilityVerdict("unrealizable", f, note=note)
    coeffs = coefficient_set(coeff_set)
    found = pure_witness(f, coeffs)
    if found is None:
        return _walk_pure_models(f, coeffs, max_models)
    model, attempt = found
    note = (
        f"pure witness (attempt {attempt}) with coefficients from {sorted(map(str, coeffs))},"
        f" Q[x]/(dy) zero above degree {formal_dimension(f)}"
    )
    return RealizabilityVerdict("realized", f, model, note=note)


def elliptic_verdicts(n: int, coeff_set: Sequence = (-1, 0, 1)) -> Iterator[RealizabilityVerdict]:
    """`realizable` verdicts, in canonical order, for the candidates of
    formal dimension n that meet SAC, i.e. the rank vectors of elliptic
    spaces of dimension n.  Candidates failing SAC get no verdict."""
    for f in enumerate_candidates(n):
        if sac_violation(f) is None:
            yield realizable(f, coeff_set)
