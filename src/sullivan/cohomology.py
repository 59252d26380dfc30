"""Cohomology of a model, degree by degree, with exact certificates.

The coboundary operator in each degree becomes sparse rational columns
over the monomial bases; Betti numbers come from ranks, and coboundary
questions come with a checkable answer either way: a primitive when the
class bounds, a linear functional vanishing on the image but not on the
candidate when it does not.

Ranks reduce the chain complex as they go (Kaczynski, Mrozek and
Slusarek, 1998): if P indexes a row basis of d_(k-1) and d_k d_(k-1) =
0, then each column of d_k at P is a combination of the columns outside
P, so d_k is ranked, and a row basis of it found, on those dim_k -
r_(k-1) = r_k + b_k columns alone.  Each model keeps the row bases it
has ranked, and skips columns only below its least generator degree on
which `validate_model` finds that d fails to be a differential (d(g) not
of degree |g| + 1, or d(d(g)) != 0): d*d is a derivation, so below that
degree it vanishes.
An invalid model, such as a search node or a zero-padded scan model,
thus reads from that degree on the ranks of its full matrices.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .algebra import Element, Monomial, SullivanModel, _Record, _Value, validate_model
from .linalg import RationalMatrix, SparseVec, row_basis


def element_to_vector(x: Element, k: int) -> SparseVec:
    """Coordinates of a degree-k element in the canonical monomial basis."""
    index = x.model._tables.positions(k)
    out: SparseVec = {}
    for vec, c in x._terms.items():
        i = index.get(vec)
        if i is None:
            raise ValueError(f"term {Element(x.model, {vec: 1})} is not of degree {k}")
        out[i] = c
    return out


def vector_to_element(model: SullivanModel, vec: SparseVec, k: int) -> Element:
    basis = model._tables.vectors(k)
    return Element(model, {basis[i][0]: c for i, c in vec.items()})


def coboundary_columns(model: SullivanModel, k: int, positions: Iterable[int]) -> list[dict]:
    """d of the degree-k basis vectors at the given positions, as sparse
    columns {position in the (k+1)-basis: nonzero entry}.

    Each column sums the terms of d on one basis vector, expanded from
    the model's compiled differential and filed by exponent vector, so no
    Element is built; an entry is an int where integral, else a Fraction.
    """
    tables = model._tables
    index = tables.positions(k + 1)
    basis = tables.vectors(k)
    columns = []
    for j in positions:
        vec, mask = basis[j]
        column: dict = {}
        for tvec, c in tables.d_vector(vec, mask):
            i = index.get(tvec)
            if i is None:
                raise ValueError(f"term {Element(model, {tvec: 1})} is not of degree {k + 1}")
            column[i] = column.get(i, 0) + c
        columns.append({i: c.numerator if c.denominator == 1 else c for i, c in column.items() if c})
    return columns


@lru_cache(maxsize=None)
def coboundary_matrix(model: SullivanModel, k: int) -> RationalMatrix:
    """Matrix of d from degree k to degree k+1, columns over the k-basis."""
    columns = coboundary_columns(model, k, range(model.dimension_of_degree(k)))
    return RationalMatrix(columns, model.dimension_of_degree(k + 1)).transpose()


def _first_defect(model: SullivanModel) -> float:
    """The least degree of a generator g on which d fails to be a
    differential, as `validate_model` finds it: d(g) not homogeneous of
    degree |g| + 1, or d(d(g)) != 0; infinity if there is none.  d*d is a
    derivation, so it vanishes on every monomial of degree below this one,
    and there d is homogeneous.  Computed once per model, kept in its
    __dict__."""
    found = model.__dict__.get("_first_defect")
    if found is None:
        report = validate_model(model, require_minimal=False)
        found = model.__dict__["_first_defect"] = min(
            (model.degree_of(name) for name, _ in report.degree_failures + report.d_squared_failures),
            default=float("inf"),
        )
    return found


def _row_basis(model: SullivanModel, k: int) -> set[int]:
    """Positions in the (k+1)-basis of a row basis of d_k, whose size is
    the rank of d_k, memoised per model in its __dict__.

    If P indexes a row basis of d_(k-1) and d_k d_(k-1) = 0, then im
    d_(k-1) maps one to one onto the coordinates in P, so each column of
    d_k at P is a combination of the columns outside P: d_k has the rank,
    and a row basis, of its dim_k - r_(k-1) = r_k + b_k columns outside
    P, and only those are assembled.  The skip needs the row basis of
    d_(k-1) in the memo, as Betti numbers read in ascending degree leave
    it, and k below the model's first defect (`_first_defect`), so that
    d*d = 0 on degree k - 1; otherwise every column is ranked.
    """
    memo = model.__dict__.setdefault("_row_bases", {})
    found = memo.get(k)
    if found is None:
        positions = range(model.dimension_of_degree(k))
        skip = memo.get(k - 1)
        if skip and k < _first_defect(model):
            positions = [p for p in positions if p not in skip]
        found = memo[k] = row_basis(coboundary_columns(model, k, positions))
    return found


@lru_cache(maxsize=None)
def betti(model: SullivanModel, k: int) -> int:
    if k < 0:
        return 0
    dim_k = model.dimension_of_degree(k)
    if dim_k == 0:
        return 0
    rank_in = len(_row_basis(model, k - 1)) if k > 0 else 0
    return dim_k - rank_in - len(_row_basis(model, k))


class BettiTable(_Value):
    """Betti numbers b_0..b_top as a tuple."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        object.__setattr__(self, "values", values)

    def __getitem__(self, k: int) -> int:
        return self.values[k] if 0 <= k < len(self.values) else 0

    def __len__(self) -> int:
        return len(self.values)


def betti_table(model: SullivanModel, top: int) -> BettiTable:
    return BettiTable(tuple(betti(model, k) for k in range(top + 1)))


class CoboundaryVerdict(_Record):
    """Answer to "is this cocycle exact", with a certificate either way.

    Exact: `witness` satisfies d(witness) = candidate.  Not exact:
    `functional` is a linear form on the candidate's degree, zero on every
    coboundary, nonzero on the candidate (stored over basis monomials).
    """

    __slots__ = ("is_coboundary", "witness", "functional")

    def __init__(
        self,
        is_coboundary: bool,
        witness: Element | None = None,
        functional: dict[Monomial, Fraction] | None = None,
    ):
        self.is_coboundary = is_coboundary
        self.witness = witness
        self.functional = functional


def is_coboundary(x: Element) -> CoboundaryVerdict:
    """Decide whether the cocycle x is d of something, with certificate."""
    model = x.model
    if x.is_zero():
        return CoboundaryVerdict(True, witness=model.zero())
    dx = model.d(x)
    if not dx.is_zero():
        raise ValueError("not a cocycle: d of the candidate is nonzero")
    k = x.degree()
    if k == 0:
        unit = model.basis_of_degree(0)  # the one monomial of degree 0
        return CoboundaryVerdict(False, functional=dict.fromkeys(unit, Fraction(1)))
    mat = coboundary_matrix(model, k - 1)
    target = element_to_vector(x, k)
    y = mat.solve(target)
    if y is not None:
        witness = vector_to_element(
            model, {i: c for i, c in enumerate(y) if c}, k - 1
        )
        return CoboundaryVerdict(True, witness=witness)
    basis = model.basis_of_degree(k)
    phi = mat.separating_functional(target)
    return CoboundaryVerdict(False, functional={basis[i]: c for i, c in phi.items()})
