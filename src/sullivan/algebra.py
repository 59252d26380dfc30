"""Free graded-commutative algebras over Q with a degree +1 differential.

A model here is Lambda(V) = exterior(V_odd) (x) polynomial(V_even) on a
finite list of generators, each with a positive integer degree, together
with a differential d that raises degree by 1 and satisfies the graded
Leibniz rule

    d(x * y) = d(x) * y + (-1)^|x| x * d(y).

Monomials are kept in a canonical form: factors sorted by generator
declaration order, odd generators with exponent at most 1.  Reordering a
word of generators into canonical form picks up the Koszul sign
(-1)^k where k is the number of transposed odd-odd pairs; any odd
generator appearing twice kills the monomial.

Everything is exact.  An element is stored as {exponent vector over its
model's generator list: coefficient}, the coefficient an int where
integral and a fractions.Fraction otherwise, and a model's differential
is kept in the same form.  A list of factors becomes a vector in one
place, `SullivanModel.word`, which multiplies them in the order written
with the Koszul sign; a vector becomes a Monomial only for text output
(`Element.terms`, `basis_of_degree`, element repr).  Models are immutable
and hashable so degree-wise data (bases, boundary matrices) can be
memoized per model.  On first use a model compiles itself into
integer-indexed tables: each generator's differential as (exponent
vector, bitmask of odd positions, coefficient) rows, on which products
and the Leibniz expansion of d run.  The tables are also the one source
of bases: each degree's basis is enumerated once per generator list, as
(exponent vector, odd bitmask) pairs, by a walk over memoised tails that
never enters a dead end twice; its vector -> position index and its
Monomials are made from those pairs on first request.
`search_differentials` is the one backtracking search over
differentials; the realizability and the relative-model searches plug
their prunes into it.  It walks numbered coefficient points
(`coefficient_box`) over each generator's candidate monomials and decides
d*d = 0 for a point by sums of vectors computed once per node: d is a
derivation, so d(x) is affine in the coefficients of d(z) (`_dd_test`).
Only a point that passes becomes an Element and a model.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, attrgetter, mul

Scalar = Fraction | int

ORIGINS = ("plain", "base", "fiber")


class _Record:
    """Base of the package's records.

    A record's fields are the names in its class's `__slots__` (a
    `__dict__` there holds cached properties only), and its `__init__`
    sets them.  Two records are equal when they are of one class and their
    field tuples are equal; repr lists the fields.  A `_Record` is mutable
    and unhashable, a `_Value` frozen and hashed as its field tuple, as
    dataclasses would make them.  They are written by hand so that
    importing the package generates no code and loads neither
    `dataclasses` nor `typing`.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        if fields:  # _Value adds behaviour, not fields
            get = attrgetter(*fields)
            cls._fields = fields
            cls._astuple = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _Value(_Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as __setattr__ refuses
        return self.__class__, self._astuple(self)


class GeneratorSpec(_Value):
    """One algebra generator: a name, a positive degree, and an origin tag.

    The origin tag ("base" / "fiber" / "plain") only matters for relative
    models, where quotienting by base generators must be possible.
    """

    __slots__ = ("name", "degree", "origin")

    def __init__(self, name: str, degree: int, origin: str = "plain"):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "origin", origin)
        if not self.name or not self.name.isidentifier():
            raise ValueError(f"generator name must be an identifier: {self.name!r}")
        if self.degree < 1:
            raise ValueError(f"generator degree must be >= 1: {self.name} has {self.degree}")
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r} for generator {self.name}")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


def format_word(factors: Iterable[tuple[str, int]]) -> str:
    """The factors (name, power) joined by "*", a power above 1 written
    name^power; "1" for no factors."""
    return "*".join([name if e == 1 else f"{name}^{e}" for name, e in factors]) or "1"


class Monomial(_Value):
    """A canonical-form monomial: ((name, exponent), ...) in declaration order.

    The unit monomial is the empty tuple.  Monomials are decoded from a
    model's exponent vectors for text output; the model supplies degrees
    and ordering.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: tuple[tuple[str, int], ...] = ()):
        object.__setattr__(self, "exps", exps)

    @property
    def is_unit(self) -> bool:
        return not self.exps

    def format(self) -> str:
        return format_word(self.exps)


Vector = tuple[int, ...]


class Element:
    """A finite Q-linear combination of monomials in a fixed model.

    Stored as {exponent vector: coefficient} over the model's generator
    list, an int coefficient where integral and a Fraction otherwise;
    `terms` reads it as {Monomial: Fraction}.  Supports +, -, scalar and
    element multiplication, and integer powers.  Elements compare equal
    when they live over the same generator list and have identical terms;
    the differentials of the ambient models are irrelevant to equality.
    """

    __slots__ = ("model", "_terms")

    def __init__(self, model: "SullivanModel", terms: Mapping[Vector, Scalar] | None = None):
        """terms maps exponent vectors to int or Fraction coefficients;
        zeros are dropped.  `SullivanModel.word` builds the element of a
        list of factors."""
        self.model = model
        self._terms = (
            {vec: c.numerator if c.denominator == 1 else c for vec, c in terms.items() if c}
            if terms else {}
        )

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        decode = self.model._tables.decode
        return {decode(vec): Fraction(c) for vec, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int | None:
        """Common degree of all terms; None for 0; error if inhomogeneous."""
        if not self._terms:
            return None
        degs = set(map(self.model._tables.degree, self._terms))
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop()

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """The terms in ascending order of their exponent vectors."""
        decode = self.model._tables.decode
        return [(decode(vec), Fraction(c)) for vec, c in sorted(self._terms.items())]

    # -- arithmetic ------------------------------------------------------

    def _check_same_model(self, other: "Element"):
        if self.model.generators != other.model.generators:
            raise ValueError("elements live over different generator lists")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.model.constant(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same_model(other)
        terms = dict(self._terms)
        for vec, c in other._terms.items():
            terms[vec] = terms.get(vec, 0) + c
        return Element(self.model, terms)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.model, {vec: -c for vec, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Element) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Element(self.model, {vec: other * c for vec, c in self._terms.items()})
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same_model(other)
        mask = self.model._tables.mask
        right = [(bvec, mask(bvec), cb) for bvec, cb in other._terms.items()]
        out: dict[Vector, Scalar] = {}
        for avec, ca in self._terms.items():
            amask = mask(avec)
            for bvec, bmask, cb in right:
                if amask & bmask:
                    continue
                vec, sign = _merge(avec, amask, bvec, bmask)
                out[vec] = out.get(vec, 0) + ca * cb * sign
        return Element(self.model, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        # repeated squaring: x^n from x, x^2, x^4, ... at n's binary digits
        out, square = self.model.unit(), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.model.generators == other.model.generators and self._terms == other._terms

    def __hash__(self):
        raise TypeError("Element is unhashable; compare with == or freeze via sorted_terms()")

    def d(self) -> "Element":
        return self.model.d(self)

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for mon, c in self.sorted_terms():
            if mon.is_unit:
                parts.append(str(c))
            elif c == 1:
                parts.append(mon.format())
            elif c == -1:
                parts.append(f"-{mon.format()}")
            else:
                parts.append(f"{c}*{mon.format()}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


DiffTable = tuple[tuple[str, tuple[tuple[Vector, Scalar], ...]], ...]


class SullivanModel(_Value):
    """An immutable free graded-commutative model with differential.

    `generators` fixes the declaration order used for canonical monomial
    form.  `diff` maps each generator name to the terms of its
    differential, (exponent vector, coefficient) pairs in ascending order
    of the vectors, as an Element stores them; generators absent from
    `diff` have d = 0.  Build free models with `SullivanModel.free(...)`,
    then attach differentials with `with_differentials(...)`.
    """

    __slots__ = ("generators", "diff", "__dict__")

    def __init__(self, generators: tuple[GeneratorSpec, ...], diff: DiffTable = ()):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "diff", diff)
        seen = set()
        for g in self.generators:
            if g.name in seen:
                raise ValueError(f"duplicate generator name {g.name!r}")
            seen.add(g.name)
        for name, _ in self.diff:
            if name not in seen:
                raise ValueError(f"differential assigned to unknown generator {name!r}")

    # -- construction ----------------------------------------------------

    @classmethod
    def free(cls, gens: Iterable[GeneratorSpec | tuple]) -> "SullivanModel":
        specs = []
        for g in gens:
            if isinstance(g, GeneratorSpec):
                specs.append(g)
            else:
                specs.append(GeneratorSpec(*g))
        return cls(tuple(specs))

    def with_differentials(self, assignments: Mapping[str, "Element | None"]) -> "SullivanModel":
        """New model with d(name) = value for each given name (None means 0).

        Values may be elements of any model sharing this generator list.
        Unmentioned generators keep their current differential.  No
        validity check happens here; see `validate_model`.
        """
        table = {name: terms for name, terms in self.diff}
        for name, val in assignments.items():
            if name not in self.generator_index:
                raise ValueError(f"unknown generator {name!r}")
            if val is None or (isinstance(val, Element) and val.is_zero()):
                table.pop(name, None)
                continue
            if val.model.generators != self.generators:
                raise ValueError(f"d({name}) uses a different generator list")
            table[name] = tuple(sorted(val._terms.items()))
        ordered = tuple((g.name, table[g.name]) for g in self.generators if g.name in table)
        return SullivanModel(self.generators, ordered)

    # -- lookups ---------------------------------------------------------

    @cached_property
    def _tables(self) -> "_Tables":
        # compiled on first use; kept in the instance __dict__, so it dies
        # with the model and, not being a field, stays out of == and hash
        return _Tables(self)

    @property
    def generator_index(self) -> Mapping[str, int]:
        return self._tables.index

    @property
    def generator_names(self) -> tuple[str, ...]:
        return self._tables.names

    def generator(self, name: str) -> GeneratorSpec:
        return self.generators[self.generator_index[name]]

    def degree_of(self, name: str) -> int:
        return self.generator(name).degree

    @property
    def is_simply_connected(self) -> bool:
        return all(g.degree >= 2 for g in self.generators)

    # -- element builders ------------------------------------------------

    def zero(self) -> Element:
        return Element(self)

    def constant(self, c: Scalar) -> Element:
        return Element(self, {(0,) * len(self.generators): Fraction(c)})

    def unit(self) -> Element:
        return self.constant(1)

    def gen(self, name: str) -> Element:
        return self.word(((name, 1),))

    def word(self, factors: Iterable[tuple[str, int]]) -> Element:
        """The product of the factors (name, power) in the order given,
        with its Koszul sign; 0 when an odd generator repeats or has a
        power above 1.  Raises ValueError on a name that is no generator
        or a power below 1."""
        vec, sign = self._tables.encode(factors)
        return Element(self, {vec: sign})

    # -- differential ----------------------------------------------------

    def d_of_generator(self, name: str) -> Element:
        tables = self._tables
        p = tables.index.get(name)
        if p is None:
            raise ValueError(f"unknown generator {name!r}")
        return Element(self, {vec: c for vec, _, c in tables.dgen[p]})

    def d(self, x: "Element | str") -> Element:
        """Differential, extended from generators by the graded Leibniz rule."""
        if isinstance(x, str):
            return self.d_of_generator(x)
        if x.model.generators != self.generators:
            raise ValueError("element lives over a different generator list")
        return Element(self, self._tables.derive(x._terms.items()))

    # -- bases -----------------------------------------------------------

    def basis_of_degree(self, k: int) -> tuple[Monomial, ...]:
        """All canonical monomials of total degree k, ascending in the
        exponent-vector lexicographic order."""
        return self._tables.basis(k)

    def dimension_of_degree(self, k: int) -> int:
        return len(self._tables.vectors(k))

    @cached_property
    def _hash(self) -> int:
        # the fields' hash, computed once: models key the Betti and
        # coboundary caches, and rehashing walks every term of d
        return hash((self.generators, self.diff))

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=None)
def _generator_frame(generators: tuple[GeneratorSpec, ...]):
    """Index, names, degrees and odd bits (1 << p for an odd generator p,
    else 0) of a generator list, and its stores of basis tails, position
    indexes and monomial bases by degree, shared by every model over it."""
    return (
        {g.name: i for i, g in enumerate(generators)},
        tuple(g.name for g in generators),
        tuple(g.degree for g in generators),
        tuple(1 << i if g.is_odd else 0 for i, g in enumerate(generators)),
        {},
        {},
        {},
    )


def _merge(avec, amask: int, bvec, bmask: int) -> tuple[Vector, int]:
    """Product of exponent vectors a and b, with no odd position in both
    bitmasks: (exponent vector, Koszul sign).  The sign counts the odd
    pairs (x in a, y in b) with x declared after y."""
    inversions = 0
    while amask:
        low = amask & -amask
        inversions += (bmask & (low - 1)).bit_count()
        amask ^= low
    return tuple(map(add, avec, bvec)), -1 if inversions & 1 else 1


class _Tables:
    """A model compiled to integer indices.

    A monomial is an exponent vector over the generator list, with a
    bitmask of its odd positions (`mask`); dgen[p] lists d of generator p
    as (exponent vector, odd bitmask, coefficient) rows.  The bases are
    the generator list's: each degree's as (exponent vector, odd bitmask)
    pairs (`vectors`), enumerated once, with a vector -> position index
    (`positions`) and the Monomials decoded on demand (`basis`).
    `encode` is the one reader of a list of factors, `decode` the one
    maker of Monomials.
    """

    __slots__ = ("index", "names", "degrees", "odd", "tails", "indexes", "bases", "dgen")

    def __init__(self, model: "SullivanModel"):
        frame = _generator_frame(model.generators)
        self.index, self.names, self.degrees, self.odd, self.tails, self.indexes, self.bases = frame
        dgen: list[tuple] = [()] * len(self.names)
        for name, terms in model.diff:
            dgen[self.index[name]] = tuple([(vec, self.mask(vec), c) for vec, c in terms])
        self.dgen = tuple(dgen)

    def mask(self, vec: Vector) -> int:
        """The bitmask of the odd generators in the monomial vec."""
        return sum([bit for bit, e in zip(self.odd, vec) if e])

    def degree(self, vec: Vector) -> int:
        return sum(map(mul, self.degrees, vec))

    def encode(self, factors: Iterable[tuple[str, int]]) -> tuple[Vector, int]:
        """The product of the factors (name, power), folded in the order
        given with `_merge`: (exponent vector, Koszul sign), the sign 0
        when an odd generator repeats or has a power above 1.  Raises
        ValueError on a name that is no generator or a power below 1."""
        vec, mask, sign = (0,) * len(self.names), 0, 1
        for name, e in factors:
            p = self.index.get(name)
            if p is None:
                raise ValueError(f"unknown generator {name!r}")
            if e < 1:
                raise ValueError(f"power {e} of {name} is below 1")
            bit = self.odd[p]
            if bit and (e > 1 or mask & bit):
                sign = 0
                continue
            factor = [0] * len(vec)
            factor[p] = e
            vec, s = _merge(vec, mask, factor, bit)
            mask |= bit
            sign *= s
        return vec, sign

    def decode(self, vec: Vector) -> Monomial:
        names = self.names
        return Monomial(tuple([(names[p], e) for p, e in enumerate(vec) if e]))

    def vectors(self, k: int) -> tuple[tuple[Vector, int], ...]:
        """The degree-k basis as (exponent vector, odd bitmask) pairs, in
        ascending lexicographic order of the vectors."""
        return self._tail(0, k) if k >= 0 else ()

    def _tail(self, i: int, r: int) -> tuple[tuple[Vector, int], ...]:
        """The pairs over generators i.. of degree r, ascending, memoised
        per (i, r): a dead end is found once, and a degree's walk reuses
        the tails of the degrees before it."""
        found = self.tails.get((i, r))
        if found is not None:
            return found
        if i == len(self.degrees):
            found = (((), 0),) if r == 0 else ()
        else:
            degree, bit = self.degrees[i], self.odd[i]
            top = min(r // degree, 1) if bit else r // degree
            out: list = []
            for e in range(top + 1):
                head, odd_bit = (e,), bit if e else 0
                out += [(head + vec, mask | odd_bit) for vec, mask in self._tail(i + 1, r - e * degree)]
            found = tuple(out)
        self.tails[i, r] = found
        return found

    def positions(self, k: int) -> dict[Vector, int]:
        """Exponent vector -> position in the degree-k basis."""
        found = self.indexes.get(k)
        if found is None:
            found = self.indexes[k] = {vec: i for i, (vec, _) in enumerate(self.vectors(k))}
        return found

    def basis(self, k: int) -> tuple[Monomial, ...]:
        """The degree-k basis as Monomials, decoded on first request."""
        found = self.bases.get(k)
        if found is None:
            found = self.bases[k] = tuple([self.decode(vec) for vec, _ in self.vectors(k)])
        return found

    def d_vector(
        self, vec: Vector, mask: int, dgen: Sequence[tuple] | None = None
    ) -> Iterator[tuple[Vector, Scalar]]:
        """The terms (exponent vector, coefficient) of d(mon), unsummed,
        for the monomial mon with exponent vector vec and odd bitmask
        mask, and for the model's own d or the derivation whose generator
        rows, in the form of the model's dgen, are dgen.

        With mon = g_1^e_1 ... g_r^e_r and D the degree of the factors
        before g_i, the g_i term is e_i * (-1)^D * g_1^e_1 ..
        d(g_i) .. g_r^e_r; moving d(g_i) to the front turns it into
        (-1)^D times d(g_i) * (mon / g_i) for odd g_i, and that product
        alone for even g_i, whose power commutes past d(g_i) without sign.
        """
        if dgen is None:
            dgen = self.dgen
        for p, rows in enumerate(dgen):
            e = vec[p]
            if not (e and rows):
                continue
            bit = 1 << p
            rest = mask & ~bit
            rest_vec = list(vec)
            rest_vec[p] -= 1
            # D is odd iff an odd number of odd factors precede g_p
            scale = -e if self.odd[p] and (mask & (bit - 1)).bit_count() & 1 else e
            for tvec, tmask, c in rows:
                if tmask & rest:
                    continue
                product, sign = _merge(tvec, tmask, rest_vec, rest)
                yield product, scale * sign * c

    def derive(
        self, terms: Iterable[tuple[Vector, Scalar]], dgen: Sequence[tuple] | None = None
    ) -> dict[Vector, Scalar]:
        """The nonzero terms of the model's d, or of the derivation with
        generator rows dgen, applied to the sum of c * vec over terms."""
        out: dict[Vector, Scalar] = {}
        for vec, c in terms:
            for tvec, v in self.d_vector(vec, self.mask(vec), dgen):
                out[tvec] = out.get(tvec, 0) + c * v
        return {vec: v for vec, v in out.items() if v}


# -- validation ----------------------------------------------------------


class ValidationReport(_Record):
    """Outcome of the structural checks on a model."""

    __slots__ = ("ok", "d_squared_failures", "degree_failures", "nonminimal_terms")

    def __init__(
        self,
        ok: bool,
        d_squared_failures: list[tuple[str, str]] | None = None,
        degree_failures: list[tuple[str, str]] | None = None,
        nonminimal_terms: list[tuple[str, str]] | None = None,
    ):
        self.ok = ok
        self.d_squared_failures = [] if d_squared_failures is None else d_squared_failures
        self.degree_failures = [] if degree_failures is None else degree_failures
        self.nonminimal_terms = [] if nonminimal_terms is None else nonminimal_terms

    def summary(self) -> str:
        if self.ok:
            return "ok"
        lines = []
        for name, expr in self.degree_failures:
            lines.append(f"degree: d({name}) = {expr} is not homogeneous of degree deg({name})+1")
        for name, expr in self.d_squared_failures:
            lines.append(f"d*d: d(d({name})) = {expr} != 0")
        for name, mon in self.nonminimal_terms:
            lines.append(f"minimality: d({name}) has the non-decomposable term {mon}")
        return "\n".join(lines)


def validate_model(model: SullivanModel, require_minimal: bool = True) -> ValidationReport:
    """Check degrees, d*d = 0, and (optionally) minimality.

    d*d = 0 is checked on generators only, which suffices by the Leibniz
    rule.  Minimality asks every term of every d(generator) to have at
    least two factors counted with multiplicity.  The checks run on the
    compiled tables; an Element is made only to print a failure.
    """
    report = ValidationReport(ok=True)
    tables = model._tables
    for g, rows in zip(model.generators, tables.dgen):
        if not rows:
            continue
        terms = [(vec, c) for vec, _, c in rows]
        if {tables.degree(vec) for vec, _ in terms} != {g.degree + 1}:
            report.degree_failures.append((g.name, repr(Element(model, dict(terms)))))
        dd = tables.derive(terms)
        if dd:
            report.d_squared_failures.append((g.name, repr(Element(model, dd))))
        if require_minimal:
            for vec, _ in terms:
                if sum(vec) < 2:
                    report.nonminimal_terms.append((g.name, tables.decode(vec).format()))
    report.ok = not (report.d_squared_failures or report.degree_failures or report.nonminimal_terms)
    return report


# -- differential search -------------------------------------------------


def coefficient_set(coeffs: Iterable[Scalar]) -> tuple[Scalar, ...]:
    """The distinct values of coeffs, ascending, integral ones as int."""
    return tuple(c.numerator if c.denominator == 1 else c for c in sorted(set(map(Fraction, coeffs))))


def coefficient_box(
    size: int, coeffs: Sequence[Scalar], start: int = 0
) -> Iterator[tuple[int, tuple[Scalar, ...]]]:
    """Every tuple of size coefficients drawn from coeffs, as
    `coefficient_set` gives them, numbered in itertools.product order (the
    last coefficient varies fastest), from number start on."""
    combos = itertools.product(coeffs, repeat=size)
    return enumerate(itertools.islice(combos, start, None), start)


def _dd_test(
    model: SullivanModel,
    z: str,
    monomials: Sequence[Vector],
    checkable: Sequence[Element],
    later: set[str],
) -> Callable[[Sequence[Scalar]], bool]:
    """The d*d test on the points c of d(z) = v = sum c_k m_k over model,
    where d(z) is 0 and the m_k are exponent vectors: a point passes iff
    d(w) = 0 for each w in checkable and, unless v touches a generator in
    later, d(v) = 0.

    d is a derivation, so d(x) = d_0(x) + sum c_k delta_k(x), where d_0 is
    the model's d and delta_k the derivation that sends z to m_k and every
    other generator to 0 (FHT GTM 205, section 12).  So d(w) is affine in
    c and d(v) = sum c_j (d_0(m_j) + sum c_k delta_k(m_j)) quadratic, the
    delta_k(m_j) nonzero only where m_j contains z.  These vectors are
    computed once, on the compiled tables, and each point costs sums.
    """
    tables = model._tables
    p = tables.index[z]
    swaps = []
    for m in monomials:
        rows = [()] * len(tables.dgen)
        rows[p] = ((m, tables.mask(m), 1),)
        swaps.append(rows)
    # affine rows (b, [(k, a)]) of d(w): b + sum c_k a = 0 at each term
    affine = []
    for w in checkable:
        terms = w._terms.items()
        rows = {vec: (b, []) for vec, b in tables.derive(terms).items()}
        for k, dgen in enumerate(swaps):
            for vec, a in tables.derive(terms, dgen).items():
                rows.setdefault(vec, (0, []))[1].append((k, a))
        affine.extend(rows.values())
    # quadratic rows ([(j, b)], [(j, k, q)]) of d(v), per term
    quadratic: dict[Vector, tuple[list, list]] = {}
    for j, m in enumerate(monomials):
        for vec, b in tables.derive([(m, 1)]).items():
            quadratic.setdefault(vec, ([], []))[0].append((j, b))
        if m[p]:
            for k, dgen in enumerate(swaps):
                for vec, q in tables.derive([(m, 1)], dgen).items():
                    quadratic.setdefault(vec, ([], []))[1].append((j, k, q))
    later_positions = [tables.index[name] for name in later]
    deferred = [j for j, m in enumerate(monomials) if any(m[q] for q in later_positions)]
    squares = list(quadratic.values())

    def passes(c: Sequence[Scalar]) -> bool:
        for b, row in affine:
            if b + sum([c[k] * a for k, a in row]):
                return False
        if any(c[j] for j in deferred):
            return True
        for row, quad in squares:
            if sum([c[j] * b for j, b in row]) + sum([c[j] * c[k] * q for j, k, q in quad]):
                return False
        return True

    return passes


SearchPath = list[tuple[int, Element]]


def search_differentials(
    model: SullivanModel,
    gens: Sequence[GeneratorSpec],
    options: Callable[[SearchPath], tuple[Sequence[Vector], Iterable[tuple[int, Sequence[Scalar]]]]],
    node: Callable[[SearchPath, SullivanModel], bool],
    leaf: Callable[[SearchPath, SullivanModel], object],
) -> tuple[object, int]:
    """Depth-first search over the differentials of gens, in their order;
    model has d = 0 on gens.

    The path lists the (number, value) choices made for gens[:len(path)].
    options(path) gives the next generator's candidate monomials m_1..m_M,
    exponent vectors over model's generator list, and a stream of
    numbered coefficient points c (`coefficient_box`), each the value
    sum c_k m_k.  A point is dropped, and counted, when some d(v) != 0, v
    its value or an earlier one, checked as soon as every generator v
    touches is assigned; generators outside gens count as assigned from
    the start.  `_dd_test` decides this per point from
    vectors computed once per node, so only a point that passes becomes
    an Element and a model.  node(path, model) runs at every node, the
    root included, and returns False to prune there.  leaf(path, model)
    runs at every complete assignment; its first result other than None
    ends the search.  Returns that result (None once the tree is
    exhausted) and the number of points dropped by the d*d check.
    """
    names = [g.name for g in gens]
    all_names = model.generator_names
    path: SearchPath = []
    dropped = 0

    def walk(current: SullivanModel, pending: list) -> object:
        nonlocal dropped
        if not node(path, current):
            return None
        depth = len(path)
        if depth == len(names):
            return leaf(path, current)
        z, later = names[depth], set(names[depth + 1:])
        monomials, points = options(path)
        passes = _dd_test(
            current, z, monomials, [w for w, used in pending if not used & later], later
        )
        pending = [(w, used) for w, used in pending if used & later]
        for number, combo in points:
            if not passes(combo):
                dropped += 1
                continue
            value = Element(model, dict(zip(monomials, combo)))
            used = {all_names[p] for vec in value._terms for p, e in enumerate(vec) if e}
            path.append((number, value))
            found = walk(
                current.with_differentials({z: value}),
                [(value, used)] + pending if used & later else pending,
            )
            path.pop()
            if found is not None:
                return found
        return None

    return walk(model, []), dropped
